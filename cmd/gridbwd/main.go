// Command gridbwd is the online admission-control daemon: the paper's
// bandwidth-sharing service behind an HTTP/JSON API.
//
// It serves the /v1 endpoints (requests, batch, status, metricsz,
// healthz, replication), expires grants against the wall clock, sheds
// submissions beyond its in-flight limit, and persists its control-plane
// state as a JSON snapshot of the ledger plus — with -wal — a segmented,
// CRC-framed write-ahead log of every admission decision. Boot is one
// restore and one fold: the snapshot (or an empty ledger when there is
// none, or it is unusable), then the WAL history the snapshot does not
// cover.
//
// With -follow the daemon boots as a warm standby instead: it rebuilds
// from its own WAL (on top of the re-seed snapshot a compacted primary
// once shipped it), then continuously pulls the primary's decision
// stream, refusing writes (403) until POST /v1/replication/promote turns
// it into the primary under a higher fencing epoch. Adding -watch runs the failover
// watchdog in-process: the standby probes the primary's health itself
// and, after enough consecutive misses, a replication-lag check and —
// with -peers — a majority vote across the group, promotes itself; no
// operator in the loop, and never against a group majority.
//
// -peers lists every other member of an N-node replication group. It
// sizes the synchronous-ack quorum (-repl-sync=quorum parks each
// admission until ⌊(N+1)/2⌋ follower cursors pass the decision's WAL
// frame, degrading to async past -repl-sync-timeout rather than failing)
// and feeds the in-process watchdog's vote set. -repl-id names this
// daemon in vote requests and follower-lag tables; it defaults to the
// listen address.
//
// Examples:
//
//	gridbwd -addr :8080 -ingress 1GB/s,1GB/s -egress 1GB/s,1GB/s -policy f=0.8
//	gridbwd -snapshot gridbwd.snap.json -snapshot-every 30s -wal waldir -wal-compact
//	gridbwd -addr :8081 -wal standby-wal -follow http://primary:8080
//	gridbwd -addr :8081 -wal standby-wal -follow http://primary:8080 -watch
//	gridbwd -addr :8080 -wal pwal -peers http://b:8081,http://c:8082 -repl-sync=quorum
//	gridbwd -addr :8081 -wal bwal -follow http://a:8080 -watch -peers http://a:8080,http://c:8082
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io/fs"
	"log"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"gridbw/internal/cluster"
	"gridbw/internal/faults"
	"gridbw/internal/server"
	"gridbw/internal/units"
	"gridbw/internal/wal"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "gridbwd:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fset := flag.NewFlagSet("gridbwd", flag.ContinueOnError)
	addr := fset.String("addr", ":8080", "listen address")
	ingress := fset.String("ingress", "1GB/s,1GB/s", "comma-separated ingress capacities")
	egress := fset.String("egress", "1GB/s,1GB/s", "comma-separated egress capacities")
	policy := fset.String("policy", "minbw", "bandwidth-assignment policy: minbw, minbw-strict, or f=<x>")
	snapshot := fset.String("snapshot", "", "snapshot file: restored at boot if present, written on shutdown")
	snapshotEvery := fset.Duration("snapshot-every", 0, "also write the snapshot periodically (0 = only on shutdown)")
	walDir := fset.String("wal", "", "write-ahead log directory: every decision is CRC-framed and segmented here; the primary recovery source and the replication stream")
	walFsync := fset.String("wal-fsync", "always", "WAL durability: always (fsync every append), interval, or never")
	walFsyncInterval := fset.Duration("wal-fsync-interval", 0, "fsync period under -wal-fsync=interval (0 = 100ms)")
	walSegmentBytes := fset.Int64("wal-segment-bytes", 0, "WAL segment rotation threshold (0 = 8 MiB)")
	walCompact := fset.Bool("wal-compact", false, "after each snapshot write, unlink WAL segments the snapshot wholly covers")
	chaosDisk := fset.String("chaos-disk", "", "inject seeded disk faults into the WAL (chaos testing only): seed=N,short=P,write=P,fsync=P,enospc=P,rename=P,dirsync=P")
	follow := fset.String("follow", "", "boot as a read-only warm standby pulling decisions from the primary at this base URL")
	replID := fset.String("repl-id", "", "replication identity presented on pulls and votes (default: the listen address)")
	replSync := fset.String("repl-sync", "", "synchronous-ack mode: off, one, or quorum — park each admission until that many follower cursors pass its WAL frame (default off)")
	replSyncTimeout := fset.Duration("repl-sync-timeout", 0, "sync-ack parking deadline before degrading to async (0 = 2s)")
	peers := fset.String("peers", "", "comma-separated base URLs of every other replication-group member; sizes the sync-ack quorum and the watchdog's vote set")
	watch := fset.Bool("watch", false, "run the failover watchdog in-process: probe the -follow primary and self-promote when it dies (majority-gated when -peers is set)")
	watchInterval := fset.Duration("watch-interval", 0, "watchdog probe period (0 = 2s, jittered ±25%)")
	watchMisses := fset.Int("watch-misses", 0, "consecutive probe misses before the primary is suspected (0 = 3)")
	watchMaxLag := fset.Int64("watch-max-lag", 0, "replication lag in bytes beyond which promotion is held (0 = 1 MiB, negative = unbounded)")
	drainTimeout := fset.Duration("drain-timeout", 10*time.Second, "graceful-shutdown drain window for in-flight requests")
	maxInFlight := fset.Int("max-inflight", 0, "concurrent submissions before shedding with 429 (0 = default 64, negative = unbounded)")
	retryAfter := fset.Duration("retry-after", 0, "Retry-After hint on shed responses (0 = default 1s)")
	maxBatch := fset.Int("max-batch", 0, "submissions accepted per POST /v1/batch call (0 = default 1024)")
	if err := fset.Parse(args); err != nil {
		return err
	}

	peerList := splitPeers(*peers)
	id := *replID
	if id == "" {
		id = *addr
	}
	bc := bootConfig{
		snapshotPath: *snapshot,
		policy:       *policy,
		follow:       *follow,
		base: server.Config{
			MaxInFlight: *maxInFlight,
			RetryAfter:  *retryAfter,
			MaxBatch:    *maxBatch,
			ReplID:      id,
			SyncMode:    *replSync,
			SyncTimeout: *replSyncTimeout,
			Peers:       peerList,
		},
	}
	if len(peerList) > 0 {
		// In a group of G = peers+1 members, replicated durability means a
		// majority holds the frame: the primary plus ⌊G/2⌋ follower acks.
		bc.base.SyncAcks = (len(peerList) + 1) / 2
	}
	var err error
	if bc.ingress, err = parseCaps(*ingress); err != nil {
		return fmt.Errorf("-ingress: %w", err)
	}
	if bc.egress, err = parseCaps(*egress); err != nil {
		return fmt.Errorf("-egress: %w", err)
	}
	if *walDir != "" {
		pol, err := wal.ParseSyncPolicy(*walFsync)
		if err != nil {
			return err
		}
		opt := wal.Options{
			SegmentBytes: *walSegmentBytes, Policy: pol, Interval: *walFsyncInterval,
		}
		if *chaosDisk != "" {
			dc, err := faults.ParseDiskConfig(*chaosDisk)
			if err != nil {
				return err
			}
			opt.FS = faults.NewDiskFS(nil, dc)
			log.Printf("chaos-disk armed on %s: %s", *walDir, *chaosDisk)
		}
		l, rec, err := wal.Open(*walDir, opt)
		if err != nil {
			return err
		}
		defer l.Close()
		log.Printf("wal %s: %s", *walDir, rec)
		bc.wal = l
		bc.base.WAL = l
	}

	srv, how, err := bootServer(bc)
	if err != nil {
		return err
	}
	log.Printf("boot: %s", how)
	defer srv.Close()

	httpSrv := &http.Server{Addr: *addr, Handler: srv.Handler()}
	errc := make(chan error, 1)
	go func() {
		log.Printf("gridbwd serving on %s (%s, policy %s, epoch %d)", *addr, srv.Network(), srv.PolicyName(), srv.Epoch())
		if err := httpSrv.ListenAndServe(); !errors.Is(err, http.ErrServerClosed) {
			errc <- err
		}
	}()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	if *watch {
		if *follow == "" {
			return errors.New("-watch requires -follow (only a standby can watch its primary)")
		}
		wd, err := newInProcessWatchdog(srv, *follow, cluster.Config{
			Interval: *watchInterval, Misses: *watchMisses, MaxLagBytes: *watchMaxLag,
			VotePeers: peerList, Candidate: id,
		})
		if err != nil {
			return err
		}
		go func() {
			if err := wd.Run(ctx); err == nil {
				log.Printf("watchdog: standby promoted itself (epoch %d)", wd.Status().Epoch)
			}
		}()
	}

	if *snapshot != "" && *snapshotEvery > 0 {
		go func() {
			ticker := time.NewTicker(*snapshotEvery)
			defer ticker.Stop()
			for {
				select {
				case <-ctx.Done():
					return
				case <-ticker.C:
					if err := persistSnapshot(srv, *snapshot, bc.wal, *walCompact); err != nil {
						log.Printf("periodic snapshot: %v", err)
					}
				}
			}
		}()
	}

	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}

	// Graceful shutdown: stop the listener and drain in-flight admissions
	// within the timeout, then stop the expiry loop and persist the final
	// ledger so a restart resumes without violating capacity constraints.
	log.Printf("shutting down: draining for up to %s", *drainTimeout)
	drainCtx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	if err := httpSrv.Shutdown(drainCtx); err != nil {
		log.Printf("drain: %v", err)
	}
	srv.Close()
	if *snapshot != "" {
		if err := persistSnapshot(srv, *snapshot, bc.wal, *walCompact); err != nil {
			return fmt.Errorf("final snapshot: %w", err)
		}
		log.Printf("wrote %s", *snapshot)
	}
	return nil
}

// newInProcessWatchdog builds the watchdog a watched standby runs inside
// its own process: the primary is probed over HTTP, but the standby-side
// seams call straight into the local server — its own replication status
// and its own Promote — instead of looping back through the listener. The
// watchdog's state is surfaced on the daemon's /v1/metricsz.
func newInProcessWatchdog(srv *server.Server, primary string, cfg cluster.Config) (*cluster.Watchdog, error) {
	cfg.Primary = primary
	cfg.StandbyStatus = func(ctx context.Context) (server.ReplicationStatus, error) {
		return srv.ReplicationStatus(), nil
	}
	cfg.Promote = func(ctx context.Context) (uint64, error) {
		epoch, err := srv.Promote()
		if errors.Is(err, server.ErrNotFollower) {
			// Someone else promoted this daemon first; that is success.
			return epoch, nil
		}
		return epoch, err
	}
	cfg.SelfVote = func(ctx context.Context, req server.VoteRequest) (server.VoteResponse, error) {
		// The candidate's own vote goes through its local vote-once path,
		// so an endorsement already given to a rival blocks self-promotion.
		return srv.HandleVote(req), nil
	}
	cfg.OnTransition = func(from, to cluster.State, in cluster.Input) {
		log.Printf("watchdog: %s -> %s on %s", from, to, in)
	}
	wd, err := cluster.New(cfg)
	if err != nil {
		return nil, err
	}
	srv.SetWatchdogState(wd.State)
	return wd, nil
}

// bootConfig gathers everything bootServer needs to bring a server up.
// base carries the runtime wiring (WAL, limits); the platform flags live
// beside it because snapshot restore forbids platform fields in its
// Config while a boot without a snapshot requires them.
type bootConfig struct {
	snapshotPath    string
	ingress, egress []units.Bandwidth
	policy          string
	follow          string
	wal             *wal.Log
	base            server.Config
}

// platformConfig returns base with the flag platform filled in.
func (bc bootConfig) platformConfig() server.Config {
	cfg := bc.base
	cfg.Ingress, cfg.Egress, cfg.Policy = bc.ingress, bc.egress, bc.policy
	return cfg
}

// bootServer brings up the control plane as one restore and one fold:
// the snapshot — for a follower, the reseed snapshot in its WAL
// directory — or an empty ledger on the flag platform when there is
// none, then the WAL history the snapshot does not cover. It reports
// which path was taken. A primary whose snapshot is unusable falls back
// to a full WAL replay rather than keep the control plane down over one
// bad file — unless -wal-compact has cut the WAL past its origin, which
// the fold refuses; a re-seeded follower never can, because its WAL no
// longer reaches back past the reseed snapshot. With -follow the pull loop then
// resumes against the primary from the persisted cursor.
func bootServer(bc bootConfig) (*server.Server, string, error) {
	cfg := bc.base
	cfg.Follow = bc.follow
	path, kind := bc.snapshotPath, "snapshot"
	if bc.follow != "" {
		path, kind = "", "reseed snapshot"
		if bc.wal != nil {
			path = filepath.Join(bc.wal.Dir(), server.ReseedSnapshotName)
		}
	}
	var records uint64
	if bc.wal != nil {
		records = bc.wal.Records()
	}

	var srv *server.Server
	var snap *server.Snapshot
	var snapErr error
	if path != "" {
		f, err := os.Open(path)
		if err == nil {
			snap, err = server.ReadSnapshot(f)
			f.Close()
			if err == nil {
				srv, err = server.NewFromSnapshot(snap, cfg)
			}
		} else if errors.Is(err, fs.ErrNotExist) {
			err = nil // no snapshot yet: boot from empty plus the WAL
		}
		if err != nil {
			snapErr = fmt.Errorf("%s %s unusable (%v)", kind, path, err)
		}
	}
	switch {
	case snapErr != nil && bc.follow != "":
		return nil, "", fmt.Errorf("follower: %w", snapErr)
	case snapErr != nil && records == 0:
		return nil, "", fmt.Errorf("%w; no WAL history to replay instead", snapErr)
	case snapErr != nil:
		log.Printf("%v; falling back to a full WAL replay", snapErr)
	}

	restored := srv != nil
	if !restored {
		cfg := bc.platformConfig()
		cfg.Follow = bc.follow
		var err error
		if srv, err = server.New(cfg); err != nil {
			if snapErr != nil {
				return nil, "", fmt.Errorf("%v; WAL replay: %w", snapErr, err)
			}
			return nil, "", err
		}
	}
	var how string
	switch {
	case restored:
		how = fmt.Sprintf("restored %s %s, clock at %s", kind, path, units.Time(snap.NowS))
		if bc.wal != nil {
			how += fmt.Sprintf(", then the WAL past %v", snap.WALPos())
		}
	case records > 0:
		how = fmt.Sprintf("replayed WAL %s (%d records)", bc.wal.Dir(), records)
	default:
		how = fmt.Sprintf("fresh server (%s, policy %s)", srv.Network(), srv.PolicyName())
	}
	how += fmt.Sprintf(": %d live reservations", len(srv.LiveReservations()))
	if bc.follow != "" {
		if err := srv.StartFollowing(); err != nil {
			srv.Close()
			return nil, "", err
		}
		how = fmt.Sprintf("following %s (epoch %d) from %s", bc.follow, srv.Epoch(), how)
	}
	return srv, how, nil
}

// splitPeers parses the -peers list into trimmed base URLs.
func splitPeers(list string) []string {
	var out []string
	for _, part := range strings.Split(list, ",") {
		if p := strings.TrimSpace(part); p != "" {
			out = append(out, strings.TrimRight(p, "/"))
		}
	}
	return out
}

func parseCaps(list string) ([]units.Bandwidth, error) {
	var out []units.Bandwidth
	for _, part := range strings.Split(list, ",") {
		b, err := units.ParseBandwidth(strings.TrimSpace(part))
		if err != nil {
			return nil, err
		}
		out = append(out, b)
	}
	return out, nil
}

// persistSnapshot writes the snapshot durably and, when asked, compacts
// the WAL segments the snapshot now wholly covers.
func persistSnapshot(srv *server.Server, path string, l *wal.Log, compact bool) error {
	snap := srv.Snapshot()
	if err := snap.WriteFile(path); err != nil {
		return err
	}
	if l != nil && compact {
		if n, err := l.CompactBefore(snap.WALPos()); err != nil {
			log.Printf("wal compaction: %v", err)
		} else if n > 0 {
			log.Printf("wal: compacted %d segment(s) before %v", n, snap.WALPos())
		}
	}
	return nil
}
