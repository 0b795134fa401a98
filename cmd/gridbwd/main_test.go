package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"gridbw/internal/server"
	"gridbw/internal/trace"
	"gridbw/internal/units"
	"gridbw/internal/wal"
)

// testBootConfig is a one-point primary with a snapshot path and a WAL,
// both in a fresh directory.
func testBootConfig(t *testing.T) bootConfig {
	t.Helper()
	dir := t.TempDir()
	l, _, err := wal.Open(filepath.Join(dir, "wal"), wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	bc := bootConfig{
		snapshotPath: filepath.Join(dir, "gridbwd.snap.json"),
		ingress:      []units.Bandwidth{1 * units.GBps},
		egress:       []units.Bandwidth{1 * units.GBps},
		policy:       "minbw",
		wal:          l,
	}
	bc.base.WAL = l
	return bc
}

// seedState runs a short daemon lifetime, leaving a snapshot and a WAL
// on disk with one live reservation.
func seedState(t *testing.T, bc bootConfig) server.Decision {
	t.Helper()
	s, err := server.New(bc.platformConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	d, err := s.Submit(server.Submission{
		From: 0, To: 0, Volume: 100 * units.GB, Deadline: 4000, MaxRate: 500 * units.MBps,
	})
	if err != nil || !d.Accepted {
		t.Fatalf("seed submission: %v %+v", err, d)
	}
	if err := s.Snapshot().WriteFile(bc.snapshotPath); err != nil {
		t.Fatal(err)
	}
	return d
}

func TestBootFreshWhenNoSnapshot(t *testing.T) {
	bc := testBootConfig(t)
	srv, how, err := bootServer(bc)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	if !strings.Contains(how, "fresh") {
		t.Errorf("recovery path = %q, want fresh boot", how)
	}
}

func TestBootRestoresSnapshot(t *testing.T) {
	bc := testBootConfig(t)
	want := seedState(t, bc)
	srv, how, err := bootServer(bc)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	if !strings.Contains(how, "snapshot") {
		t.Errorf("recovery path = %q, want snapshot restore", how)
	}
	live := srv.LiveReservations()
	if len(live) != 1 || live[0].Req.ID != want.ID {
		t.Errorf("live after restore = %+v, want reservation %d", live, want.ID)
	}
}

// TestBootFallsBackToWALReplay: a corrupt snapshot does not refuse boot
// — a full WAL replay rebuilds the same ledger.
func TestBootFallsBackToWALReplay(t *testing.T) {
	bc := testBootConfig(t)
	want := seedState(t, bc)
	if err := os.WriteFile(bc.snapshotPath, []byte("{ not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	srv, how, err := bootServer(bc)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	if !strings.Contains(how, "WAL") {
		t.Errorf("recovery path = %q, want WAL replay", how)
	}
	live := srv.LiveReservations()
	if len(live) != 1 || live[0].Req.ID != want.ID || live[0].Grant.Bandwidth != want.Rate {
		t.Errorf("live after replay = %+v, want reservation %d at %v", live, want.ID, want.Rate)
	}
	if err := srv.VerifyInvariant(); err != nil {
		t.Error(err)
	}
}

// TestBootFailsWithoutAnyRecoveryPath: corrupt snapshot and no WAL is a
// hard error naming both problems.
func TestBootFailsWithoutAnyRecoveryPath(t *testing.T) {
	bc := testBootConfig(t)
	bc.wal, bc.base.WAL = nil, nil
	if err := os.WriteFile(bc.snapshotPath, []byte("{ not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	_, _, err := bootServer(bc)
	if err == nil {
		t.Fatal("boot succeeded with no usable state source")
	}
	if !strings.Contains(err.Error(), "unusable") || !strings.Contains(err.Error(), "WAL") {
		t.Errorf("error %q does not explain both failures", err)
	}
}

// TestBootFailsWhenWALReplayFails: a corrupt snapshot behind a WAL whose
// replay also fails — here a well-framed record that is not an event —
// is a hard error naming both problems.
func TestBootFailsWhenWALReplayFails(t *testing.T) {
	bc := testBootConfig(t)
	seedState(t, bc)
	if _, err := bc.wal.Append([]byte("{ not an event")); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(bc.snapshotPath, []byte("{ not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	srv, how, err := bootServer(bc)
	if err == nil {
		srv.Close()
		t.Fatalf("boot succeeded (%s) with an unusable snapshot and an unreadable WAL", how)
	}
	if !strings.Contains(err.Error(), "unusable") || !strings.Contains(err.Error(), "WAL replay") {
		t.Errorf("error %q does not explain both failures", err)
	}
}

// TestBootRefusesCompactedWALWithoutSnapshot: once -wal-compact has
// unlinked the segments a snapshot covered, that snapshot is the only
// record of their grants. With it corrupt or missing, folding the
// surviving segments would boot a ledger short of live reservations, so
// boot fails instead.
func TestBootRefusesCompactedWALWithoutSnapshot(t *testing.T) {
	const accepts = 8
	for _, damage := range []string{"corrupt", "missing"} {
		t.Run(damage, func(t *testing.T) {
			dir := t.TempDir()
			l, _, err := wal.Open(filepath.Join(dir, "wal"), wal.Options{SegmentBytes: 512})
			if err != nil {
				t.Fatal(err)
			}
			defer l.Close()
			bc := walBootConfig(l)
			bc.snapshotPath = filepath.Join(dir, "gridbwd.snap.json")
			s, err := server.New(bc.platformConfig())
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < accepts; i++ {
				d, err := s.Submit(server.Submission{
					From: i % 2, To: (i + 1) % 2,
					Volume: 5 * units.GB, Deadline: 40000, MaxRate: 50 * units.MBps,
				})
				if err != nil || !d.Accepted {
					t.Fatalf("seed submit %d: %v %+v", i, err, d)
				}
			}
			if err := persistSnapshot(s, bc.snapshotPath, l, true); err != nil {
				t.Fatal(err)
			}
			s.Close()
			if first := l.FirstPos(); first.Seg <= 1 {
				t.Fatalf("WAL still starts at %v: nothing was compacted", first)
			}

			// With the snapshot intact the boot restores every grant.
			srv, _, err := bootServer(bc)
			if err != nil {
				t.Fatal(err)
			}
			if n := len(srv.LiveReservations()); n != accepts {
				t.Errorf("snapshot boot: %d live reservations, want %d", n, accepts)
			}
			srv.Close()

			if damage == "corrupt" {
				err = os.WriteFile(bc.snapshotPath, []byte("{ not json"), 0o644)
			} else {
				err = os.Remove(bc.snapshotPath)
			}
			if err != nil {
				t.Fatal(err)
			}
			srv, how, err := bootServer(bc)
			if err == nil {
				n := len(srv.LiveReservations())
				srv.Close()
				t.Fatalf("booted (%s) from a compacted WAL alone with %d of %d live reservations", how, n, accepts)
			}
			if !strings.Contains(err.Error(), "compacted") {
				t.Errorf("error %q does not name the compacted WAL", err)
			}
			if damage == "corrupt" && !strings.Contains(err.Error(), "unusable") {
				t.Errorf("error %q does not name the unusable snapshot", err)
			}
		})
	}
}

// TestBootReplaysHoldsFromWAL: a shard whose WAL logged a cross-shard
// hold_reserve and hold_confirm boots from that WAL alone, with no
// snapshot, and the confirmed hold keeps its capacity booked.
func TestBootReplaysHoldsFromWAL(t *testing.T) {
	l, _, err := wal.Open(t.TempDir(), wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	bc := walBootConfig(l)
	s, err := server.New(bc.platformConfig())
	if err != nil {
		t.Fatal(err)
	}
	r, err := s.HoldReserve(server.HoldReserveJSON{
		Hold: "h1", Side: trace.HoldSideIngress, Point: 0, PeerPoint: 1, TTLS: 60,
		VolumeBytes: 1e10, MaxRateBps: 1e9, DeadlineS: 3600,
	})
	if err != nil || !r.Held {
		t.Fatalf("reserve: %v %+v", err, r)
	}
	if _, err := s.HoldConfirm("h1", 0); err != nil {
		t.Fatal(err)
	}
	s.Close()

	srv, how, err := bootServer(bc)
	if err != nil {
		t.Fatalf("WAL-only boot of a shard with a confirmed hold: %v", err)
	}
	defer srv.Close()
	if !strings.Contains(how, "WAL") {
		t.Errorf("recovery path = %q, want WAL replay", how)
	}
	if held, confirmed := srv.HoldStats(); held != 0 || confirmed != 1 {
		t.Errorf("holds after WAL boot = %d held / %d confirmed, want 0/1", held, confirmed)
	}
	if err := srv.VerifyInvariant(); err != nil {
		t.Error(err)
	}
}
