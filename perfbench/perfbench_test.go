package main

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"

	"gridbw/internal/trace"
)

func streamBytes(t *testing.T, wl *workload, seed uint64, n int) []byte {
	t.Helper()
	st := newStream(wl, seed)
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	for i := 0; i < n; i++ {
		if err := enc.Encode(st.next()); err != nil {
			t.Fatal(err)
		}
	}
	return buf.Bytes()
}

func TestStreamIsAFunctionOfTheSeed(t *testing.T) {
	for _, wl := range workloads {
		a, b := streamBytes(t, wl, 7, 300), streamBytes(t, wl, 7, 300)
		if !bytes.Equal(a, b) {
			t.Errorf("%s: seed 7 generated two different streams", wl.name)
		}
		if bytes.Equal(a, streamBytes(t, wl, 8, 300)) {
			t.Errorf("%s: seeds 7 and 8 generated the same stream", wl.name)
		}
	}
}

func TestServiceClockHoldsAtOldestUnanswered(t *testing.T) {
	var c serviceClock
	c.claim(1, 1)
	c.claim(2, 3) // a batch carrying instants 2..3
	if got := c.Seconds(); got != 1 {
		t.Fatalf("clock %v with request at 1 unanswered, want 1", got)
	}
	c.done(2)
	if got := c.Seconds(); got != 1 {
		t.Fatalf("clock %v after a younger answer, want 1", got)
	}
	c.done(1)
	if got := c.Seconds(); got != 3 {
		t.Fatalf("clock %v with nothing in flight, want the latest claimed instant 3", got)
	}
	if !c.Now().Equal(clockBase.Add(3e9)) {
		t.Fatalf("Now() = %v, want base + 3s", c.Now())
	}
}

// drive boots wl's topology and runs ops operations closed-loop on conns
// connections, then runs the gate.
func drive(t *testing.T, wl *workload, seed uint64, conns, ops int, naive bool) (*runner, *phase, []string) {
	t.Helper()
	clock := &serviceClock{naive: naive}
	cl, err := boot(wl, clock, nil, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cl.close)
	r := newRunner(wl, cl, clock, nil, seed, conns)
	p := r.run(plan{ops: ops})
	if p.failed > 0 {
		t.Fatalf("%d of %d ops failed", p.failed, p.ops)
	}
	bad, _ := r.gate()
	return r, p, bad
}

func TestOneConnectionRepeatsAcceptRatio(t *testing.T) {
	wl, _ := workloadByName("durable-json")
	r1, p1, bad := drive(t, wl, 3, 1, 1500, false)
	if len(bad) > 0 {
		t.Fatalf("gate: %v", bad)
	}
	r2, p2, _ := drive(t, wl, 3, 1, 1500, false)
	if p1.accepted != p2.accepted || p1.decided != p2.decided {
		t.Fatalf("one connection, same seed: %d/%d accepted, then %d/%d",
			p1.accepted, p1.decided, p2.accepted, p2.decided)
	}
	if p1.accepted == 0 || p1.accepted == p1.decided {
		t.Fatalf("degenerate stream: %d of %d accepted", p1.accepted, p1.decided)
	}
	// Not only the ratio: the same submissions get the same grants.
	for i := range r1.history {
		if r1.history[i] != r2.history[i] {
			t.Fatalf("accept %d differs between runs: %+v vs %+v", i, r1.history[i], r2.history[i])
		}
	}
}

func TestGuardedClockNeverEmptiesAWindow(t *testing.T) {
	wl, _ := workloadByName("durable-json")
	if _, _, bad := drive(t, wl, 5, 2, 3000, false); len(bad) > 0 {
		t.Fatalf("gate on the guarded clock at 2 connections: %v", bad)
	}
}

// A clock that jumps to each arrival as it is claimed lets one connection
// push service time past another's in-flight window; the gate must catch
// the resulting empty-window rejections.
func TestNaiveClockFailsTheEmptyWindowGate(t *testing.T) {
	wl, _ := workloadByName("durable-json")
	r, _, bad := drive(t, wl, 5, 2, 3000, true)
	if r.emptyWindow == 0 {
		t.Fatal("naive shared clock produced no empty-window rejection at 2 connections")
	}
	found := false
	for _, b := range bad {
		found = found || strings.Contains(b, "empty window")
	}
	if !found {
		t.Fatalf("gate did not report the %d empty windows: %v", r.emptyWindow, bad)
	}
}

func accept(id int, point int, from, to float64) trace.Event {
	return trace.Event{At: from, Kind: trace.EventAccept, Request: id, Ingress: point, Egress: point,
		RateBps: 0.6 * pointBps, SigmaS: from, TauS: to}
}

// The windowed capacity sweep must still find an oversubscription that
// sits in the last window of a long history, and report none on a clean
// one.
func TestVerifyHistoryFindsOversubscriptionAcrossWindows(t *testing.T) {
	var clean []trace.Event
	for i := 0; i < 2*capacityChunk+10; i++ {
		clean = append(clean, accept(i, i%numPoints, float64(i), float64(i)+0.5))
	}
	if vs := verifyHistory(nil, clean); len(vs) != 0 {
		t.Fatalf("clean history: %v", vs)
	}
	// A grant long enough to overlap the last window, on a point whose
	// later grant then exceeds capacity.
	long := accept(len(clean), 3, 0.25, 1e9)
	bad := append(append([]trace.Event(nil), clean...), long)
	vs := verifyHistory(nil, bad)
	if len(vs) == 0 {
		t.Fatal("oversubscription across windows went unreported")
	}
	for _, v := range vs {
		if v.Invariant != "capacity" {
			t.Fatalf("unexpected violation %v", v)
		}
	}
}

// BENCHMARK.json at the repository root must list exactly the metrics
// the benchmark reports, with the same units.
func TestBenchmarkJSONMatchesTheMetrics(t *testing.T) {
	blob, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(blob, &spec); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		listed []struct{ Name, Unit string }
		want   [][2]string
	}{{spec.EndToEnd, endToEnd}, {spec.PerLayer, perLayer}} {
		if len(c.listed) != len(c.want) {
			t.Fatalf("BENCHMARK.json lists %d metrics, the benchmark reports %d", len(c.listed), len(c.want))
		}
		for i, m := range c.listed {
			if m.Name != c.want[i][0] || m.Unit != c.want[i][1] {
				t.Errorf("metric %d: BENCHMARK.json has %s [%s], the benchmark %s [%s]",
					i, m.Name, m.Unit, c.want[i][0], c.want[i][1])
			}
		}
	}
}
