package main

import (
	"fmt"
	"sort"
	"time"

	"gridbw/internal/check"
	"gridbw/internal/server"
	"gridbw/internal/trace"
	"gridbw/internal/wal"
)

// capacityChunk is how many accepted intervals, by start time, one
// capacity sweep covers. check.Verify's sweep is quadratic in the grants
// per point, so long histories are checked window by window (see
// verifyHistory).
const capacityChunk = 2000

// quiesce waits until no node's WAL grows for a while: the router aborts
// refused cross-shard holds asynchronously, after the client's answer.
func (c *cluster) quiesce() {
	last, still := uint64(0), 0
	for deadline := time.Now().Add(5 * time.Second); time.Now().Before(deadline) && still < 5; {
		var n uint64
		for _, nd := range c.nodes {
			n += nd.log.Records()
		}
		if n == last {
			still++
		} else {
			last, still = n, 0
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// gate runs the correctness checks after the load stopped. It returns the
// violations found and every primary's WAL history, for util_ratio.
func (r *runner) gate() ([]string, [][]trace.Event) {
	var bad []string
	fail := func(format string, args ...any) { bad = append(bad, fmt.Sprintf(format, args...)) }
	c := r.cl
	c.quiesce()
	prim := c.primaries()

	serverAccepted := uint64(0)
	for _, n := range prim {
		st := n.srv.Status() // advances to the frozen clock: due expiries are logged
		serverAccepted += st.Stats.Accepted
		if c.wl.syncMode != "" && st.Stats.SyncDegraded > 0 {
			fail("%s: sync_degraded = %d", n.name, st.Stats.SyncDegraded)
		}
	}
	if f := c.follower(); f != nil {
		p := prim[0]
		deadline := time.Now().Add(10 * time.Second)
		for f.srv.ReplicationStatus().Cursor != p.log.End() && time.Now().Before(deadline) {
			time.Sleep(5 * time.Millisecond)
		}
		if cur := f.srv.ReplicationStatus().Cursor; cur != p.log.End() {
			fail("follower cursor %v did not reach the primary's frontier %v", cur, p.log.End())
		}
		if err := sameLive(p.srv.LiveReservations(), f.srv.LiveReservations()); err != "" {
			fail("follower diverged from primary: %s", err)
		}
	}
	for _, n := range c.nodes {
		if err := n.srv.VerifyInvariant(); err != nil {
			fail("%s: VerifyInvariant: %v", n.name, err)
		}
	}

	r.mu.Lock()
	if uint64(r.accepted) != serverAccepted {
		fail("client saw %d accepts, servers count %d in Stats.Accepted", r.accepted, serverAccepted)
	}
	if r.emptyWindow > 0 {
		fail("%d submissions rejected with an empty window", r.emptyWindow)
	}
	for _, e := range r.grantErrs {
		fail("grant outside its request: %s", e)
	}
	r.mu.Unlock()

	ops := r.ops()
	histories := make([][]trace.Event, len(prim))
	var shards []check.ShardFinal
	for i, n := range prim {
		events, _, err := server.ReadWALEvents(n.log, wal.Pos{})
		if err != nil {
			fail("%s: read WAL: %v", n.name, err)
			continue
		}
		histories[i] = events
		shards = append(shards, check.ShardFinal{Name: n.name, Final: final(events)})
	}
	var vs []check.Violation
	switch {
	case len(shards) != len(prim):
	case c.wl.topo == topoRouted:
		vs = check.VerifyShards(ops, shards)
	default:
		vs = verifyHistory(ops, histories[0])
		if f := c.follower(); f != nil {
			events, _, err := server.ReadWALEvents(f.log, wal.Pos{})
			if err != nil {
				fail("follower: read WAL: %v", err)
			}
			for _, v := range verifyHistory(ops, events) {
				v.Detail = "follower WAL: " + v.Detail
				vs = append(vs, v)
			}
		}
	}
	for i, v := range vs {
		if i == 20 {
			fail("... %d more violations", len(vs)-i)
			break
		}
		fail("check: %s", v)
	}
	return bad, histories
}

func final(events []trace.Event) check.Final {
	caps := make([]float64, numPoints)
	for i := range caps {
		caps[i] = pointBps
	}
	return check.Final{Events: events, IngressBps: caps, EgressBps: caps}
}

// verifyHistory is check.Verify over one node's whole history, split in
// two passes so it stays linear in the history's length:
//
//  1. every guarantee but capacity, over all ops and events, with the
//     accepts' point indices blanked (check's capacity sweep skips
//     negative points);
//  2. capacity, window by window: window w holds the capacityChunk
//     intervals starting in it plus every interval overlapping it. Each
//     instant the sweep evaluates is some interval's start, and in that
//     interval's own window every grant live at that instant is present,
//     so every oversubscription is still found; other windows only ever
//     see a subset and cannot report a false one.
func verifyHistory(ops []check.Op, events []trace.Event) []check.Violation {
	blind := make([]trace.Event, len(events))
	copy(blind, events)
	for i := range blind {
		if blind[i].Kind == trace.EventAccept {
			blind[i].Ingress, blind[i].Egress = -1, -1
		}
	}
	out := check.Verify(ops, final(blind))

	ends := make(map[int]trace.Event)
	for _, ev := range events {
		if ev.Kind == trace.EventCancel || ev.Kind == trace.EventExpire {
			if _, dup := ends[ev.Request]; !dup {
				ends[ev.Request] = ev
			}
		}
	}
	type grant struct {
		ev       trace.Event
		from, to float64
	}
	var gs []grant
	for _, ev := range events {
		if ev.Kind != trace.EventAccept || ev.RateBps <= 0 {
			continue
		}
		to := ev.TauS
		if end, ok := ends[ev.Request]; ok && end.At < to {
			to = end.At
		}
		gs = append(gs, grant{ev, ev.SigmaS, to})
	}
	sort.Slice(gs, func(i, j int) bool { return gs[i].from < gs[j].from })
	for lo := 0; lo < len(gs); lo += capacityChunk {
		a := gs[lo].from
		b := 0.0
		last := lo+capacityChunk >= len(gs)
		if !last {
			b = gs[lo+capacityChunk].from
		}
		var window []trace.Event
		for _, g := range gs {
			if g.to > a && (last || g.from < b) {
				window = append(window, g.ev)
				if end, ok := ends[g.ev.Request]; ok {
					window = append(window, end)
				}
			}
		}
		out = append(out, check.Verify(nil, final(window))...)
	}
	return out
}

// sameLive compares two nodes' live reservations: IDs, points, volume,
// MaxRate and the grant, exactly. The requested window is not compared:
// the WAL does not carry it, so a replica rebuilds it as [σ, τ].
func sameLive(a, b []server.Reservation) string {
	if len(a) != len(b) {
		return fmt.Sprintf("%d live reservations on the primary, %d on the follower", len(a), len(b))
	}
	for i := range a {
		ra, rb := a[i].Req, b[i].Req
		ra.Start, ra.Finish, rb.Start, rb.Finish = 0, 0, 0, 0
		if ra != rb || a[i].Grant != b[i].Grant {
			return fmt.Sprintf("reservation %d differs: %+v vs %+v", a[i].Req.ID, a[i], b[i])
		}
	}
	return ""
}

// utilRatio is the paper's RESOURCE-UTIL over the service-time interval
// [t0, t1]: bandwidth granted in the interval, integrated over it, over
// the interval times half the platform's total capacity. Grants come from
// the WAL: plain accepts (cut short by cancel or expiry) and, on a router
// tier, the ingress side of every confirmed cross-shard hold (cut short
// by an abort).
func utilRatio(histories [][]trace.Event, t0, t1 float64) float64 {
	if t1 <= t0 {
		return 0
	}
	var used float64
	add := func(rate, from, to float64) {
		from, to = max(from, t0), min(to, t1)
		if to > from {
			used += rate * (to - from)
		}
	}
	for _, events := range histories {
		ends := make(map[int]float64)
		holdEnd := make(map[string]float64)
		confirmed := make(map[string]bool)
		for _, ev := range events {
			switch ev.Kind {
			case trace.EventCancel, trace.EventExpire:
				if _, dup := ends[ev.Request]; !dup {
					ends[ev.Request] = ev.At
				}
			case trace.EventHoldAbort, trace.EventHoldExpire:
				if _, dup := holdEnd[ev.Hold]; !dup && ev.Side == trace.HoldSideIngress {
					holdEnd[ev.Hold] = ev.At
				}
			case trace.EventHoldConfirm:
				if ev.Side == trace.HoldSideIngress {
					confirmed[ev.Hold] = true
				}
			}
		}
		for _, ev := range events {
			switch {
			case ev.Kind == trace.EventAccept && ev.RateBps > 0:
				to := ev.TauS
				if end, ok := ends[ev.Request]; ok && end < to {
					to = end
				}
				add(ev.RateBps, ev.SigmaS, to)
			case ev.Kind == trace.EventHoldReserve && ev.Side == trace.HoldSideIngress && confirmed[ev.Hold]:
				to := ev.TauS
				if end, ok := holdEnd[ev.Hold]; ok && end < to {
					to = end
				}
				add(ev.RateBps, ev.SigmaS, to)
			}
		}
	}
	half := 0.5 * 2 * numPoints * pointBps
	return used / ((t1 - t0) * half)
}
