package server_test

import (
	"errors"
	"testing"
	"time"

	"gridbw/internal/server"
	"gridbw/internal/trace"
	"gridbw/internal/units"
	"gridbw/internal/wal"
)

// holdConfig is a 2-point platform where one full-capacity hold saturates
// a point: volume 1e10 over a 10s deadline at cap 1GB/s leaves zero
// slack, so double-booking is immediately visible as a refusal.
func holdConfig(clk *fakeClock, l *wal.Log) server.Config {
	return server.Config{
		Ingress: []units.Bandwidth{units.GBps, units.GBps},
		Egress:  []units.Bandwidth{units.GBps, units.GBps},
		Clock:   clk.now,
		WAL:     l,
	}
}

func fullReserve(hold string) server.HoldReserveJSON {
	return server.HoldReserveJSON{
		Hold: hold, Side: trace.HoldSideIngress,
		Point: 0, PeerPoint: 1, TTLS: 5,
		VolumeBytes: 1e10, MaxRateBps: 1e9, DeadlineS: 10,
	}
}

// fullReserveRel is fullReserve with the window expressed as an offset
// from the shard's current service clock — for probes issued after the
// test has advanced time past the absolute window of fullReserve.
func fullReserveRel(hold string) server.HoldReserveJSON {
	r := fullReserve(hold)
	r.RelTimes = true
	return r
}

// TestHoldReserveProposesAndBooks: an ingress-side RESERVE runs the
// one-sided admission search, proposes a concrete grant, and actually
// books it — a second saturating reserve is refused while the first is
// held, and refusals are remembered (tombstoned) for idempotent replay.
func TestHoldReserveProposesAndBooks(t *testing.T) {
	clk := &fakeClock{}
	s := newTestServer(t, holdConfig(clk, nil))

	r1, err := s.HoldReserve(fullReserve("h1"))
	if err != nil {
		t.Fatal(err)
	}
	if !r1.Held || r1.RateBps != 1e9 || r1.TauS-r1.SigmaS != 10 {
		t.Fatalf("reserve = %+v, want a held full-capacity 10s grant", r1)
	}
	if r1.ID < 0 {
		t.Fatalf("ingress reserve allocated no local ID: %+v", r1)
	}

	r2, err := s.HoldReserve(fullReserve("h2"))
	if err != nil {
		t.Fatal(err)
	}
	if r2.Held || r2.Reason == "" {
		t.Fatalf("saturating second reserve = %+v, want a reasoned refusal", r2)
	}
	// The refusal is remembered: a duplicate delivery answers identically.
	r2b, err := s.HoldReserve(fullReserve("h2"))
	if err != nil {
		t.Fatal(err)
	}
	if r2b.Held || r2b.Reason != r2.Reason {
		t.Fatalf("refusal replay = %+v, want %+v", r2b, r2)
	}

	// Duplicate of the held side answers the same grant without booking
	// twice.
	r1b, err := s.HoldReserve(fullReserve("h1"))
	if err != nil {
		t.Fatal(err)
	}
	if !r1b.Held || r1b.ID != r1.ID || r1b.RateBps != r1.RateBps {
		t.Fatalf("reserve replay = %+v, want %+v", r1b, r1)
	}
	if held, confirmed := s.HoldStats(); held != 1 || confirmed != 0 {
		t.Fatalf("holds = %d held / %d confirmed, want 1/0", held, confirmed)
	}
}

// TestHoldConfirmReleasesOnSchedule: a confirmed hold keeps its booking
// until τ and releases on time — not before, not never.
func TestHoldConfirmReleasesOnSchedule(t *testing.T) {
	clk := &fakeClock{}
	l := openTestWAL(t)
	s := newTestServer(t, holdConfig(clk, l))

	r, err := s.HoldReserve(fullReserve("h1"))
	if err != nil || !r.Held {
		t.Fatalf("reserve: %v %+v", err, r)
	}
	st, err := s.HoldConfirm("h1", 0)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != "confirmed" {
		t.Fatalf("confirm state = %q", st.State)
	}
	// Confirm is idempotent.
	if st2, err := s.HoldConfirm("h1", 0); err != nil || st2.State != "confirmed" {
		t.Fatalf("confirm replay: %v %+v", err, st2)
	}

	// Past the original TTL but before τ the booking must survive: a
	// saturating reserve still refuses.
	clk.advance(7 * time.Second)
	s.Now()
	if r2, err := s.HoldReserve(fullReserve("h2")); err != nil || r2.Held {
		t.Fatalf("reserve against confirmed hold: %v %+v, want refusal", err, r2)
	}

	clk.advance(4 * time.Second) // past τ=10
	s.Now()
	if held, confirmed := s.HoldStats(); held != 0 || confirmed != 0 {
		t.Fatalf("holds after τ = %d/%d, want released", held, confirmed)
	}
	if r3, err := s.HoldReserve(fullReserveRel("h3")); err != nil || !r3.Held {
		t.Fatalf("reserve after release: %v %+v, want capacity back", err, r3)
	}
	assertHoldEvent(t, l, trace.EventHoldRelease, "h1")
}

// TestHoldTTLExpiry: an unconfirmed hold rolls back when its TTL lapses,
// the expiry is WAL-visible, and the capacity is reusable.
func TestHoldTTLExpiry(t *testing.T) {
	clk := &fakeClock{}
	l := openTestWAL(t)
	s := newTestServer(t, holdConfig(clk, l))

	if r, err := s.HoldReserve(fullReserve("h1")); err != nil || !r.Held {
		t.Fatalf("reserve: %v %+v", err, r)
	}
	clk.advance(6 * time.Second) // past TTL 5
	s.Now()
	if held, confirmed := s.HoldStats(); held != 0 || confirmed != 0 {
		t.Fatalf("holds after TTL = %d/%d, want expired", held, confirmed)
	}
	assertHoldEvent(t, l, trace.EventHoldExpire, "h1")

	// A late CONFIRM of the lapsed hold is the conflict the router maps to
	// "abort the peer side".
	if _, err := s.HoldConfirm("h1", 0); !errors.Is(err, server.ErrHoldAborted) {
		t.Fatalf("confirm after expiry: %v, want ErrHoldAborted", err)
	}
	if r, err := s.HoldReserve(fullReserveRel("h2")); err != nil || !r.Held {
		t.Fatalf("reserve after expiry: %v %+v, want capacity back", err, r)
	}
}

// TestHoldAbortTombstone: aborting an unknown key leaves a refusal
// tombstone, so a delayed RESERVE retry cannot resurrect a pair the
// router already rolled back.
func TestHoldAbortTombstone(t *testing.T) {
	clk := &fakeClock{}
	s := newTestServer(t, holdConfig(clk, nil))

	st, err := s.HoldAbort("ghost")
	if err != nil {
		t.Fatal(err)
	}
	if st.Released {
		t.Fatalf("abort of unknown key released capacity: %+v", st)
	}
	r, err := s.HoldReserve(fullReserve("ghost"))
	if err != nil {
		t.Fatal(err)
	}
	if r.Held {
		t.Fatalf("reserve resurrected an aborted key: %+v", r)
	}
	// Abort stays idempotent on the tombstone.
	if _, err := s.HoldAbort("ghost"); err != nil {
		t.Fatal(err)
	}
}

// TestHoldConfirmFencing: a CONFIRM presenting a stale epoch is refused —
// the router must refresh against the promoted lineage, not commit blind.
func TestHoldConfirmFencing(t *testing.T) {
	clk := &fakeClock{}
	s := newTestServer(t, holdConfig(clk, nil))

	r, err := s.HoldReserve(fullReserve("h1"))
	if err != nil || !r.Held {
		t.Fatalf("reserve: %v %+v", err, r)
	}
	var fenced *server.FencedError
	if _, err := s.HoldConfirm("h1", r.Epoch+7); !errors.As(err, &fenced) {
		t.Fatalf("confirm with wrong epoch: %v, want FencedError", err)
	}
	// The hold survives the fenced attempt; the correct epoch commits.
	if st, err := s.HoldConfirm("h1", r.Epoch); err != nil || st.State != "confirmed" {
		t.Fatalf("confirm with reserve-time epoch: %v %+v", err, st)
	}
}

// TestHoldSnapshotRoundTrip: booked holds ride the snapshot — a restored
// server still refuses a saturating reserve and still releases at τ.
func TestHoldSnapshotRoundTrip(t *testing.T) {
	clk := &fakeClock{}
	s := newTestServer(t, holdConfig(clk, nil))

	r, err := s.HoldReserve(fullReserve("h1"))
	if err != nil || !r.Held {
		t.Fatalf("reserve: %v %+v", err, r)
	}
	if _, err := s.HoldConfirm("h1", 0); err != nil {
		t.Fatal(err)
	}
	snap := s.Snapshot()
	restored, err := server.NewFromSnapshot(snap, server.Config{Clock: clk.now})
	if err != nil {
		t.Fatal(err)
	}
	defer restored.Close()

	if held, confirmed := restored.HoldStats(); held != 0 || confirmed != 1 {
		t.Fatalf("restored holds = %d/%d, want 0 held / 1 confirmed", held, confirmed)
	}
	if r2, err := restored.HoldReserve(fullReserve("h2")); err != nil || r2.Held {
		t.Fatalf("restored reserve: %v %+v, want refusal while h1 is booked", err, r2)
	}
	clk.advance(11 * time.Second)
	restored.Now()
	if r3, err := restored.HoldReserve(fullReserveRel("h3")); err != nil || !r3.Held {
		t.Fatalf("restored reserve after τ: %v %+v, want capacity back", err, r3)
	}
}

// TestHoldEgressRelTimes: the egress side resolves a RelTimes window
// against its own clock and books it — the cross-clock conversion the
// router depends on.
func TestHoldEgressRelTimes(t *testing.T) {
	clk := &fakeClock{}
	s := newTestServer(t, holdConfig(clk, nil))
	clk.advance(100 * time.Second) // egress shard service clock well past 0
	s.Now()

	st, err := s.HoldReserve(server.HoldReserveJSON{
		Hold: "h1", Side: trace.HoldSideEgress,
		Point: 0, PeerPoint: 1, TTLS: 5, RelTimes: true,
		RateBps: 1e9, SigmaS: 0, TauS: 10,
		VolumeBytes: 1e10, MaxRateBps: 1e9,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !st.Held {
		t.Fatalf("egress reserve = %+v, want held", st)
	}
	if st.SigmaS < 100 || st.TauS-st.SigmaS != 10 {
		t.Fatalf("egress grant window = [%g, %g], want the 10s window on this shard's clock (≥100s)",
			st.SigmaS, st.TauS)
	}
	// The booking is authoritative: a second saturating egress check on
	// the same point must refuse while the first window is held.
	st2, err := s.HoldReserve(server.HoldReserveJSON{
		Hold: "h2", Side: trace.HoldSideEgress,
		Point: 0, PeerPoint: 1, TTLS: 5, RelTimes: true,
		RateBps: 1e9, SigmaS: 0, TauS: 10,
	})
	if err != nil {
		t.Fatal(err)
	}
	if st2.Held {
		t.Fatalf("second saturating egress reserve = %+v, want refusal", st2)
	}
}

// assertHoldEvent scans the WAL for a hold event of one kind.
func assertHoldEvent(t *testing.T, l *wal.Log, kind, hold string) {
	t.Helper()
	events, _, err := server.ReadWALEvents(l, wal.Pos{})
	if err != nil {
		t.Fatal(err)
	}
	for _, ev := range events {
		if ev.Kind == kind && ev.Hold == hold {
			return
		}
	}
	t.Fatalf("no %s event for hold %q in the WAL", kind, hold)
}
