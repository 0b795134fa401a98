package server

import (
	"encoding/json"
	"fmt"
	"io"
	"path/filepath"
	"slices"
	"time"

	"gridbw/internal/core"
	"gridbw/internal/metrics"
	"gridbw/internal/request"
	"gridbw/internal/topology"
	"gridbw/internal/trace"
	"gridbw/internal/units"
	"gridbw/internal/wal"
)

// SnapshotVersion is bumped on incompatible snapshot schema changes.
// Version 2 replaced the live-only idempotency key map with full cached
// decisions, so retries of rejected or already-finished submissions stay
// idempotent across a restart. Version 3 added cross-shard holds, so
// tentative and confirmed one-sided bookings survive a snapshot-based
// restore.
const SnapshotVersion = 3

// minSnapshotVersion is the oldest schema restore reads. A version 3
// reader takes version 2 as a snapshot without holds.
const minSnapshotVersion = 2

// snapReservation is the wire form of one live reservation: the full
// request plus its grant, so restore can replay it through the ledger's
// own constraint checks.
type snapReservation struct {
	ID         int     `json:"id"`
	Ingress    int     `json:"ingress"`
	Egress     int     `json:"egress"`
	StartS     float64 `json:"start_s"`
	FinishS    float64 `json:"finish_s"`
	VolumeB    float64 `json:"volume_bytes"`
	MaxRateBps float64 `json:"max_rate_bps"`
	RateBps    float64 `json:"rate_bps"`
	SigmaS     float64 `json:"sigma_s"`
	TauS       float64 `json:"tau_s"`
}

// snapDecision is the wire form of one cached idempotency decision —
// enough to answer a retry without re-admitting, whatever state the
// original reservation has reached by now.
type snapDecision struct {
	ID       int     `json:"id"`
	Accepted bool    `json:"accepted"`
	State    string  `json:"state"`
	RateBps  float64 `json:"rate_bps,omitempty"`
	SigmaS   float64 `json:"sigma_s,omitempty"`
	TauS     float64 `json:"tau_s,omitempty"`
	Reason   string  `json:"reason,omitempty"`
}

// snapHold is the wire form of one live (capacity-booking) cross-shard
// hold: held ones re-arm their TTL rollback on restore, confirmed ones
// their on-time release at tau. Aborted tombstones are not persisted —
// they only answer duplicate protocol messages, and the retry windows
// they serve are far shorter than a restart.
type snapHold struct {
	Key        string  `json:"key"`
	Side       string  `json:"side"`
	Point      int     `json:"point"`
	PeerPoint  int     `json:"peer_point"`
	ID         int     `json:"id"`
	RateBps    float64 `json:"rate_bps"`
	SigmaS     float64 `json:"sigma_s"`
	TauS       float64 `json:"tau_s"`
	VolumeB    float64 `json:"volume_bytes,omitempty"`
	MaxRateBps float64 `json:"max_rate_bps,omitempty"`
	ExpireS    float64 `json:"expire_s"`
	Confirmed  bool    `json:"confirmed,omitempty"`
}

// Snapshot is the persisted control-plane state. Service time is
// continuous across restarts: a restored daemon resumes at NowS no matter
// how long it was down, so booked windows keep their meaning.
type Snapshot struct {
	Version    int            `json:"version"`
	Policy     string         `json:"policy"`
	NowS       float64        `json:"now_s"`
	NextID     int            `json:"next_id"`
	IngressBps []float64      `json:"ingress_capacity_bps"`
	EgressBps  []float64      `json:"egress_capacity_bps"`
	Counters   metrics.Online `json:"counters"`
	// Epoch is the fencing epoch at snapshot time; restore resumes at
	// least here, so a deposed primary's batches stay fenced off.
	Epoch uint64 `json:"epoch,omitempty"`
	// WALSeg/WALOff record the WAL append position this snapshot covers:
	// boot restores the snapshot, then replays only the WAL suffix past
	// this position, and compaction may drop whole segments before it.
	WALSeg uint64            `json:"wal_seg,omitempty"`
	WALOff int64             `json:"wal_off,omitempty"`
	Live   []snapReservation `json:"reservations"`
	// IdempotencyDecisions maps submission keys to their full cached
	// decisions — including rejections and terminal reservations — so a
	// client retrying with the same key after a daemon restart gets the
	// original answer instead of booking a duplicate transfer.
	IdempotencyDecisions map[string]snapDecision `json:"idempotency_decisions,omitempty"`
	// Holds are the cross-shard one-sided bookings alive at snapshot time
	// (version 3).
	Holds []snapHold `json:"holds,omitempty"`
}

// Snapshot captures the current state. It works on a closed server, so a
// draining daemon can persist its final ledger.
func (s *Server) Snapshot() *Snapshot {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.advanceLocked()
	snap := &Snapshot{
		Version:  SnapshotVersion,
		Policy:   s.policyName,
		NowS:     float64(s.sim.Now()),
		NextID:   int(s.nextID),
		Counters: s.stats,
		Epoch:    s.repl.epoch,
	}
	if s.wal != nil {
		// Appends happen under s.mu, so the frontier read here is exactly
		// the boundary between history this snapshot covers and the WAL
		// suffix boot must replay on top of it.
		end := s.wal.End()
		snap.WALSeg, snap.WALOff = end.Seg, end.Off
	}
	for i := 0; i < s.net.NumIngress(); i++ {
		snap.IngressBps = append(snap.IngressBps, float64(s.net.Bin(topology.PointID(i))))
	}
	for e := 0; e < s.net.NumEgress(); e++ {
		snap.EgressBps = append(snap.EgressBps, float64(s.net.Bout(topology.PointID(e))))
	}
	for _, id := range s.sortedLiveIDsLocked() {
		e := s.resv[id]
		snap.Live = append(snap.Live, snapReservation{
			ID:      int(e.req.ID),
			Ingress: int(e.req.Ingress), Egress: int(e.req.Egress),
			StartS: float64(e.req.Start), FinishS: float64(e.req.Finish),
			VolumeB: float64(e.req.Volume), MaxRateBps: float64(e.req.MaxRate),
			RateBps: float64(e.grant.Bandwidth),
			SigmaS:  float64(e.grant.Sigma), TauS: float64(e.grant.Tau),
		})
	}
	for key, ie := range s.idem {
		select {
		case <-ie.done:
		default:
			// Still in flight: the submission will settle after this
			// snapshot, so it has no decision to persist yet.
			continue
		}
		if ie.err != nil {
			continue
		}
		d := ie.d
		sd := snapDecision{
			ID: int(d.ID), Accepted: d.Accepted, State: string(d.State),
			RateBps: float64(d.Rate), SigmaS: float64(d.Sigma), TauS: float64(d.Tau),
			Reason: d.Reason,
		}
		if d.Accepted {
			// The cached decision froze the state at decision time;
			// persist where the reservation actually is now.
			if e, ok := s.resv[d.ID]; ok {
				sd.State = string(s.liveStateLocked(e))
			} else {
				// Evicted from the registry: terminal long ago.
				sd.State = string(StateExpired)
			}
		}
		if snap.IdempotencyDecisions == nil {
			snap.IdempotencyDecisions = make(map[string]snapDecision)
		}
		snap.IdempotencyDecisions[key] = sd
	}
	holdKeys := make([]string, 0, len(s.holds))
	for key, e := range s.holds {
		if e.booked {
			holdKeys = append(holdKeys, key)
		}
	}
	slices.Sort(holdKeys)
	for _, key := range holdKeys {
		e := s.holds[key]
		snap.Holds = append(snap.Holds, snapHold{
			Key: key, Side: e.side, Point: int(e.point), PeerPoint: e.peer,
			ID:      int(e.id),
			RateBps: float64(e.bw), SigmaS: float64(e.sigma), TauS: float64(e.tau),
			VolumeB: float64(e.volume), MaxRateBps: float64(e.maxRate),
			ExpireS: float64(e.expireAt), Confirmed: e.state == holdConfirmed,
		})
	}
	return snap
}

func (s *Server) sortedLiveIDsLocked() []request.ID {
	ids := make([]request.ID, 0, len(s.resv))
	for id, e := range s.resv {
		if e.state == StateActive {
			ids = append(ids, id)
		}
	}
	slices.Sort(ids)
	return ids
}

// WriteSnapshot serializes the current state as indented JSON.
func (s *Server) WriteSnapshot(w io.Writer) error {
	return s.Snapshot().Write(w)
}

// Write serializes the snapshot as indented JSON.
func (snap *Snapshot) Write(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(snap); err != nil {
		return fmt.Errorf("server: write snapshot: %w", err)
	}
	return nil
}

// WriteFile writes the snapshot durably: temp file + fsync + rename +
// directory fsync, so a crash at any instant leaves either the old file
// or the new one — complete and durable — never a torn or vanishing one.
func (snap *Snapshot) WriteFile(path string) error {
	return snap.WriteFileFS(wal.OSFS{}, path)
}

// WriteFileFS is WriteFile through an injectable filesystem, so fault
// harnesses can tear the write at any step. On any failure the temp file
// is removed and the previous snapshot (if any) is left untouched, so
// the boot ladder can never read a half-written *.snap.json ahead of the
// WAL; callers must treat an error as "snapshot not taken" and skip WAL
// compaction.
func (snap *Snapshot) WriteFileFS(fsys wal.FS, path string) error {
	tmp := path + ".tmp"
	f, err := fsys.Create(tmp)
	if err != nil {
		return err
	}
	if err := snap.Write(f); err != nil {
		f.Close()
		fsys.Remove(tmp)
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		fsys.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		fsys.Remove(tmp)
		return err
	}
	if err := fsys.Rename(tmp, path); err != nil {
		fsys.Remove(tmp)
		return err
	}
	// The rename is only durable once the directory entry is.
	return fsys.SyncDir(filepath.Dir(path))
}

// WALPos reports the WAL position the snapshot covers (zero when the
// snapshot predates the WAL or none was configured).
func (snap *Snapshot) WALPos() wal.Pos {
	return wal.Pos{Seg: snap.WALSeg, Off: snap.WALOff}
}

// ReadSnapshot parses a snapshot of version minSnapshotVersion through
// the current one.
func ReadSnapshot(r io.Reader) (*Snapshot, error) {
	var snap Snapshot
	if err := json.NewDecoder(r).Decode(&snap); err != nil {
		return nil, fmt.Errorf("server: decode snapshot: %w", err)
	}
	if err := snap.checkVersion(); err != nil {
		return nil, err
	}
	return &snap, nil
}

func (snap *Snapshot) checkVersion() error {
	if snap.Version < minSnapshotVersion || snap.Version > SnapshotVersion {
		return fmt.Errorf("server: unsupported snapshot version %d (want %d..%d)",
			snap.Version, minSnapshotVersion, SnapshotVersion)
	}
	return nil
}

// NewFromSnapshot restores a server from snap, then folds in the WAL
// history past the position the snapshot covers. Platform capacities and
// policy come from the snapshot; cfg supplies the runtime wiring (Clock,
// WAL, FinishedRetention — its Ingress/Egress/Policy fields must be
// empty). Every live reservation is replayed through the ledger, so a
// tampered or inconsistent snapshot fails restore instead of admitting an
// infeasible state.
func NewFromSnapshot(snap *Snapshot, cfg Config) (*Server, error) {
	if len(cfg.Ingress) != 0 || len(cfg.Egress) != 0 || cfg.Policy != "" {
		return nil, fmt.Errorf("server: restore takes platform and policy from the snapshot")
	}
	for _, c := range snap.IngressBps {
		cfg.Ingress = append(cfg.Ingress, units.Bandwidth(c))
	}
	for _, c := range snap.EgressBps {
		cfg.Egress = append(cfg.Egress, units.Bandwidth(c))
	}
	cfg.Policy = snap.Policy
	return rebuild(snap, cfg)
}

// rebuild is the one way a server comes up: a restore step — snap's
// state, or an empty one on cfg's platform when snap is nil — followed by
// a fold of applyEventLocked over the WAL history the restore does not
// cover (all of cfg.WAL without a snapshot, the suffix past snap.WALPos()
// with one). The fold is the follower's tolerant apply, so replaying
// history the snapshot already holds changes nothing.
func rebuild(snap *Snapshot, cfg Config) (*Server, error) {
	net, err := topology.New(topology.Config{Ingress: cfg.Ingress, Egress: cfg.Egress})
	if err != nil {
		return nil, err
	}
	name := cfg.Policy
	if name == "" {
		name = "minbw"
	}
	pol, err := core.ParsePolicy(name)
	if err != nil {
		return nil, err
	}
	switch cfg.SyncMode {
	case "", "off", "one", "quorum":
	default:
		return nil, fmt.Errorf("server: unknown sync mode %q (want off, one or quorum)", cfg.SyncMode)
	}
	s := newServer(cfg, net, pol, name)
	s.epoch = s.clock()
	var from wal.Pos
	var snapEpoch uint64
	if snap != nil {
		if s.state, err = restoreState(snap, net, s.retention); err != nil {
			return nil, err
		}
		// Anchor the epoch so service time resumes exactly at NowS.
		s.epoch = s.clock().Add(-time.Duration(snap.NowS * float64(time.Second)))
		s.nextID = request.ID(snap.NextID)
		s.stats = snap.Counters
		from, snapEpoch = snap.WALPos(), snap.Epoch
	}
	// A fold from the origin is the whole history only while the WAL still
	// starts there. Segments compacted away live on only in the snapshot
	// that covered them; folding the survivors alone would drop every
	// grant they booked and admit into capacity already granted.
	if cfg.WAL != nil && from.IsZero() {
		if first := cfg.WAL.FirstPos(); first.Seg > 1 {
			return nil, fmt.Errorf("server: WAL %s starts at %v, past its origin: the compacted history needs the snapshot that covered it",
				cfg.WAL.Dir(), first)
		}
	}
	if cfg.Follow == "" {
		// A follower deliberately leaves expiry timers unarmed: the
		// primary's shipped expire events retire grants, and Promote
		// arms the timers when the follower takes over.
		for id, e := range s.resv {
			e.expire = s.sim.At(e.grant.Tau, s.expireEvent(id))
		}
		s.armHoldTimersLocked()
	}
	if err := s.initRepl(cfg, snapEpoch); err != nil {
		return nil, err
	}
	folded := 0
	if s.wal != nil {
		events, _, err := ReadWALEvents(s.wal, from)
		if err == nil {
			folded, err = s.ApplyEvents(events)
		}
		if err != nil {
			return nil, fmt.Errorf("server: fold WAL from %v: %w", from, err)
		}
	}
	// A follower appends only shipped frames: its WAL positions then match
	// the primary's, which keeps another follower's cursor valid on it
	// after a promotion. Only a primary records the restore.
	if cfg.Follow == "" && (snap != nil || folded > 0) {
		reason := fmt.Sprintf("%d WAL events folded", folded)
		if snap != nil {
			reason = fmt.Sprintf("snapshot of %d live reservations, %s", len(snap.Live), reason)
		}
		s.appendEventLocked(trace.Event{
			At: float64(s.wallNow()), Kind: trace.EventRestore, Request: -1, Reason: reason,
		})
	}
	go s.loop()
	return s, nil
}

// restoreState rebuilds the state snap records on net — the restore step
// of NewFromSnapshot and of a follower's Reseed. Every live reservation
// and hold is re-booked through the ledger's own checks, so a tampered or
// infeasible snapshot is rejected rather than silently over-committing a
// point, and idempotency decisions are validated against the restored
// registry. No timers are armed; callers arm them (or deliberately do
// not, on a follower).
func restoreState(snap *Snapshot, net *topology.Network, retention int) (state, error) {
	if err := snap.checkVersion(); err != nil {
		return state{}, err
	}
	if snap.NowS < 0 || snap.NextID < 0 {
		return state{}, fmt.Errorf("server: restore: negative clock or ID counter")
	}
	st := newState(net)
	if err := st.restoreLive(snap, net); err != nil {
		return state{}, err
	}
	if err := st.restoreIdempotency(snap, retention); err != nil {
		return state{}, err
	}
	if err := st.restoreHolds(snap, net); err != nil {
		return state{}, err
	}
	return st, nil
}

// restoreLive validates snap's live reservations and reserves each grant.
func (st *state) restoreLive(snap *Snapshot, net *topology.Network) error {
	for _, sr := range snap.Live {
		r := request.Request{
			ID:      request.ID(sr.ID),
			Ingress: topology.PointID(sr.Ingress),
			Egress:  topology.PointID(sr.Egress),
			Start:   units.Time(sr.StartS),
			Finish:  units.Time(sr.FinishS),
			Volume:  units.Volume(sr.VolumeB),
			MaxRate: units.Bandwidth(sr.MaxRateBps),
		}
		if int(r.Ingress) >= net.NumIngress() || int(r.Egress) >= net.NumEgress() ||
			r.Ingress < 0 || r.Egress < 0 {
			return fmt.Errorf("server: restore: reservation %d routed through unknown point", sr.ID)
		}
		if err := r.Validate(); err != nil {
			return fmt.Errorf("server: restore: %w", err)
		}
		if int(r.ID) >= snap.NextID {
			return fmt.Errorf("server: restore: reservation %d not below next_id %d", sr.ID, snap.NextID)
		}
		g := request.Grant{
			Request:   r.ID,
			Bandwidth: units.Bandwidth(sr.RateBps),
			Sigma:     units.Time(sr.SigmaS),
			Tau:       units.Time(sr.TauS),
		}
		if g.Tau <= g.Sigma || g.Bandwidth <= 0 {
			return fmt.Errorf("server: restore: reservation %d has degenerate grant", sr.ID)
		}
		if err := st.ledger.Reserve(r, g); err != nil {
			return fmt.Errorf("server: restore: %w", err)
		}
		st.resv[r.ID] = &entry{req: r, grant: g, state: StateActive}
	}
	return nil
}

// restoreHolds rebuilds the cross-shard hold registry: each persisted
// hold re-books its one-sided capacity through the ledger's own checks.
func (st *state) restoreHolds(snap *Snapshot, net *topology.Network) error {
	for _, sh := range snap.Holds {
		if _, dup := st.holds[sh.Key]; dup {
			return fmt.Errorf("server: restore: duplicate hold %q", sh.Key)
		}
		e := &holdEntry{
			key: sh.Key, side: sh.Side, peer: sh.PeerPoint,
			id:    request.ID(sh.ID),
			bw:    units.Bandwidth(sh.RateBps),
			sigma: units.Time(sh.SigmaS), tau: units.Time(sh.TauS),
			volume: units.Volume(sh.VolumeB), maxRate: units.Bandwidth(sh.MaxRateBps),
			expireAt: units.Time(sh.ExpireS),
			state:    holdHeld,
		}
		if sh.Confirmed {
			e.state = holdConfirmed
		}
		switch sh.Side {
		case trace.HoldSideIngress:
			if sh.Point < 0 || sh.Point >= net.NumIngress() {
				return fmt.Errorf("server: restore: hold %q on unknown ingress %d", sh.Key, sh.Point)
			}
		case trace.HoldSideEgress:
			if sh.Point < 0 || sh.Point >= net.NumEgress() {
				return fmt.Errorf("server: restore: hold %q on unknown egress %d", sh.Key, sh.Point)
			}
		default:
			return fmt.Errorf("server: restore: hold %q has unknown side %q", sh.Key, sh.Side)
		}
		e.point = topology.PointID(sh.Point)
		if sh.RateBps <= 0 || sh.TauS <= sh.SigmaS {
			return fmt.Errorf("server: restore: hold %q has degenerate grant", sh.Key)
		}
		if err := st.ledger.HoldReserve(e.dir(), e.point, e.sigma, e.tau, e.bw); err != nil {
			return fmt.Errorf("server: restore: hold %q: %w", sh.Key, err)
		}
		e.booked = true
		st.holds[sh.Key] = e
		if e.id >= 0 {
			st.holdsByID[e.id] = sh.Key
		}
	}
	return nil
}

// restoreIdempotency rebuilds the idempotency cache from the snapshot's
// cached decisions, validating live claims against the restored registry.
// Keys are inserted in sorted order so the FIFO eviction queue is
// deterministic across restores.
func (st *state) restoreIdempotency(snap *Snapshot, retention int) error {
	keys := make([]string, 0, len(snap.IdempotencyDecisions))
	for key := range snap.IdempotencyDecisions {
		keys = append(keys, key)
	}
	slices.Sort(keys)
	for _, key := range keys {
		sd := snap.IdempotencyDecisions[key]
		d := Decision{
			ID: request.ID(sd.ID), Accepted: sd.Accepted, State: State(sd.State),
			Rate: units.Bandwidth(sd.RateBps), Sigma: units.Time(sd.SigmaS), Tau: units.Time(sd.TauS),
			Reason: sd.Reason,
		}
		switch d.State {
		case StateBooked, StateActive, StateExpired, StateCancelled, StateRejected:
		default:
			return fmt.Errorf("server: restore: idempotency key %q has unknown state %q", key, sd.State)
		}
		if d.Accepted {
			if int(d.ID) >= snap.NextID || d.ID < 0 {
				return fmt.Errorf("server: restore: idempotency key %q for reservation %d not below next_id %d",
					key, sd.ID, snap.NextID)
			}
			if _, live := st.resv[d.ID]; !live && (d.State == StateBooked || d.State == StateActive) {
				return fmt.Errorf("server: restore: idempotency key %q claims live reservation %d absent from snapshot",
					key, sd.ID)
			}
		}
		e := &idemEntry{done: make(chan struct{}), d: d}
		close(e.done)
		st.remember(key, e, retention)
	}
	return nil
}
