package server_test

import (
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"gridbw/internal/server"
)

// TestFollowerRediscoversPrimaryAfterFailover is the regression test for
// the post-election orphan: a three-node group loses its primary, one
// follower is promoted, and the *other* follower — still pointed at the
// dead endpoint — must rediscover the epoch-dominant primary from its
// configured peer list, re-point its pull cursor, and resume applying the
// new primary's decisions.
func TestFollowerRediscoversPrimaryAfterFailover(t *testing.T) {
	clk := &fakeClock{}

	// The follower servers need their own base URLs in every peer list
	// before they exist, so each httptest server delegates through a
	// late-bound pointer. No request arrives before the pointer is set.
	var srvP, srvA, srvB *server.Server
	tsP := newDelegatingServer(t, &srvP)
	tsA := newDelegatingServer(t, &srvA)
	tsB := newDelegatingServer(t, &srvB)
	peers := []string{tsP.URL, tsA.URL, tsB.URL}

	pcfg := uniformConfig(clk)
	pcfg.WAL = openTestWAL(t)
	pcfg.Peers = peers
	srvP = newTestServer(t, pcfg)

	newFollower := func(name string) *server.Server {
		cfg := uniformConfig(clk)
		cfg.WAL = openTestWAL(t)
		cfg.Follow = tsP.URL
		cfg.Peers = peers
		s := newTestServer(t, cfg)
		if err := s.StartFollowing(); err != nil {
			t.Fatalf("%s StartFollowing: %v", name, err)
		}
		return s
	}
	srvA = newFollower("A")
	srvB = newFollower("B")

	// Seed history so both followers share the primary's lineage.
	d, err := srvP.Submit(server.Submission{From: 0, To: 1, Volume: 10e9, Deadline: 400, MaxRate: 100e6})
	if err != nil || !d.Accepted {
		t.Fatalf("seed submit: %v %+v", err, d)
	}
	for name, s := range map[string]*server.Server{"A": srvA, "B": srvB} {
		s := s
		waitFor(t, name+" catch-up", func() bool {
			rs := s.ReplicationStatus()
			return rs.Applied >= 1 && rs.LagBytes == 0
		})
	}

	// Kill the primary: endpoint down, process gone.
	tsP.Close()
	srvP.Close()

	// Promote A directly (the watchdog path is exercised elsewhere).
	if _, err := srvA.Promote(); err != nil {
		t.Fatalf("promote A: %v", err)
	}

	// B must converge on A without any nudge: its pull loop sees repeated
	// transport failures against the dead endpoint, probes the peer list,
	// and re-points at the highest-epoch live primary.
	waitFor(t, "B re-pointing at A", func() bool {
		rs := srvB.ReplicationStatus()
		return rs.Role == "follower" && rs.Source == tsA.URL
	})

	// New decisions on A reach B through the re-pointed stream.
	d2, err := srvA.Submit(server.Submission{From: 1, To: 0, Volume: 5e9, Deadline: 400, MaxRate: 100e6})
	if err != nil || !d2.Accepted {
		t.Fatalf("post-failover submit on A: %v %+v", err, d2)
	}
	waitFor(t, "B applying A's decision", func() bool {
		rs := srvB.ReplicationStatus()
		if rs.Epoch < 2 {
			return false
		}
		_, err := srvB.Lookup(d2.ID)
		return err == nil
	})
	if st := srvB.Status(); st.Active != 2 {
		t.Fatalf("B active after failover = %d, want 2", st.Active)
	}
}

// TestFollowerRediscoversLateElection: the losing follower's first peer
// probes run before the election has a winner. It must keep probing as
// its pulls keep failing instead of pushing each new round out by
// several doubling backoffs, so it converges within seconds of the
// promotion.
func TestFollowerRediscoversLateElection(t *testing.T) {
	dead := httptest.NewServer(http.NotFoundHandler())
	deadURL := dead.URL
	dead.Close() // the primary is gone before the followers start

	var srvA, srvB *server.Server
	tsA := newDelegatingServer(t, &srvA)
	tsB := newDelegatingServer(t, &srvB)
	peers := []string{deadURL, tsA.URL, tsB.URL}
	newFollower := func() *server.Server {
		cfg := uniformConfig(nil)
		cfg.Follow = deadURL
		cfg.Peers = peers
		return newTestServer(t, cfg)
	}
	srvA = newFollower()
	srvB = newFollower()
	if err := srvB.StartFollowing(); err != nil {
		t.Fatal(err)
	}

	// The election outlasts B's first probes (after ~150ms and ~1.5s of
	// failed pulls), which find no primary.
	time.Sleep(1800 * time.Millisecond)
	if _, err := srvA.Promote(); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "B re-pointing at A", func() bool {
		return srvB.ReplicationStatus().Source == tsA.URL
	})
}

// newDelegatingServer starts an httptest server whose handler resolves the
// target *server.Server at request time, so the URL exists before the
// server it fronts.
func newDelegatingServer(t *testing.T, target **server.Server) *httptest.Server {
	t.Helper()
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		s := *target
		if s == nil {
			http.Error(w, "not up yet", http.StatusServiceUnavailable)
			return
		}
		s.Handler().ServeHTTP(w, r)
	}))
	t.Cleanup(ts.Close)
	return ts
}
