// Command perfbench is gridbw's end-to-end benchmark. One run boots the
// workload's topology in process — gridbwd servers, and where the workload
// needs them a gridbwrouter and a follower — over real loopback HTTP and
// real on-disk WALs, drives it from one seed-driven op stream on a shared
// service clock, checks every answer, and prints one JSON result line.
//
//	go run . --workload durable-json --seed 1 --seconds 10 --trace 0
//
// --trace 0 reports the end-to-end metrics; --trace 1 installs the tracing
// wrappers and reports the per-layer metrics instead. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"syscall"
	"time"
)

// bootsPerRound is how many spare topologies an untraced run boots and
// tears down before each of its rounds; setup_s is the median of these
// boots and the measured topology's own, spread over the run so that a
// burst of host noise reaches only some of them.
const bootsPerRound = 10

// openShare is the share of --seconds spent in the open-loop phase; the
// rest is the closed-loop phase. Untraced runs split both into rounds
// alternating segments.
const (
	openShare = 0.6
	rounds    = 8
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// endToEnd and perLayer list every metric the benchmark reports, with its
// unit: the end-to-end ones from untraced runs, the per-layer ones from
// traced runs.
var endToEnd = [][2]string{
	{"setup_s", "s"}, {"admissions_per_s", "1/s"},
	{"submit_p50_ms", "ms"}, {"read_p50_ms", "ms"}, {"healthz_p50_ms", "ms"},
	{"accept_ratio", "1"}, {"util_ratio", "1"}, {"success_ratio", "1"}, {"rss_peak_mb", "MiB"},
}

var perLayer = [][2]string{
	{"wal.writes_per_admission", "count"}, {"wal.fsyncs_per_admission", "count"},
	{"wal.bytes_per_admission", "B"}, {"wal.write_p50_us", "us"}, {"wal.fsync_p50_us", "us"},
	{"wal.fsync_p99_us", "us"}, {"wal.busy_share", "1"},
	{"server.submit_p50_us", "us"}, {"server.submit_p99_us", "us"},
	{"server.batch_p50_us", "us"}, {"server.batch_p99_us", "us"},
	{"server.get_p50_us", "us"}, {"server.get_p99_us", "us"},
	{"server.cancel_p50_us", "us"}, {"server.cancel_p99_us", "us"},
	{"server.healthz_p50_us", "us"}, {"server.healthz_p99_us", "us"},
	{"server.reserve_p50_us", "us"}, {"server.reserve_p99_us", "us"},
	{"server.confirm_p50_us", "us"}, {"server.confirm_p99_us", "us"},
	{"server.pull_p50_us", "us"}, {"server.pull_p99_us", "us"},
	{"server.self_us_per_admission", "us"}, {"server.decide_p50_us", "us"},
	{"server.decide_p99_us", "us"}, {"server.expiries_per_admission", "count"},
	{"alloc.locks_per_admission", "count"}, {"alloc.contended_ratio", "1"},
	{"alloc.live_reservations", "count"},
	{"client.self_us_per_call", "us"}, {"client.retries_per_call", "count"},
	{"net.roundtrip_p50_us", "us"}, {"net.req_bytes_per_admission", "B"},
	{"net.resp_bytes_per_admission", "B"},
	{"repl.pulls_per_admission", "count"}, {"repl.records_per_pull", "count"},
	{"repl.pull_p50_us", "us"}, {"repl.follower_fsync_p50_us", "us"},
	{"repl.ack_lag_p99_bytes", "B"}, {"repl.sync_degraded", "count"},
	{"router.self_us_per_admission", "us"}, {"router.hops_per_admission", "count"},
	{"router.cross_share", "1"}, {"router.cross_p50_ms", "ms"}, {"router.same_p50_ms", "ms"},
	{"router.aborts_per_1k", "count"},
	{"process.cpu_us_per_admission", "us"}, {"process.allocs_per_admission", "count"},
	{"process.gc_per_1k_admissions", "count"},
	{"tail.submit_p99_ms", "ms"}, {"tail.read_p99_ms", "ms"}, {"tail.healthz_p99_ms", "ms"},
	{"bench.gen_lag_p99_ms", "ms"}, {"bench.trace_overhead", "1"},
}

func unitOf(name string) string {
	for _, list := range [][][2]string{endToEnd, perLayer} {
		for _, m := range list {
			if m[0] == name {
				return m[1]
			}
		}
	}
	panic("perfbench: metric " + name + " has no unit")
}

type config struct {
	wl      *workload
	seed    uint64
	seconds float64
	trace   bool
	conns   int
	workDir string
	spanOut string // traced runs write their spans here
}

func main() {
	var (
		name    = flag.String("workload", "", "workload name")
		seed    = flag.Uint64("seed", 1, "workload seed")
		seconds = flag.Float64("seconds", 10, "measured seconds per run")
		traced  = flag.Int("trace", 0, "1: report per-layer metrics from a traced run")
		root    = flag.String("root", ".", "repository checkout; scratch files go under its .bench_build")
	)
	flag.Parse()
	wl, err := workloadByName(*name)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	build := filepath.Join(*root, ".bench_build")
	cfg := config{
		wl: wl, seed: *seed, seconds: *seconds, trace: *traced == 1,
		conns:   min(runtime.NumCPU(), 2),
		workDir: filepath.Join(build, "work", fmt.Sprintf("%s-%d-%d", wl.name, *seed, os.Getpid())),
		spanOut: filepath.Join(build, "spans-"+wl.name+".jsonl"),
	}
	fmt.Printf("# workload=%s why=%q seed=%d seconds=%g trace=%v nproc=%d gomaxprocs=%d connections=%d fsync=%s sync_mode=%q open_rate=%g/s healthz_probes=%g/s lookup_probes=%g/s\n",
		wl.name, wl.why, cfg.seed, cfg.seconds, cfg.trace, runtime.NumCPU(), runtime.GOMAXPROCS(0),
		cfg.conns, wl.fsync, wl.syncMode, wl.openRate, wl.probes/2, wl.probes/2)
	res, notes, err := bench(cfg)
	os.RemoveAll(cfg.workDir)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	for _, n := range notes {
		fmt.Println("#", n)
	}
	names := make([]string, 0, len(res.Metrics))
	for k := range res.Metrics {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Printf("%-36s %14.6g %s\n", k, res.Metrics[k].Value, res.Metrics[k].Unit)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

// bench runs one workload end to end: boot, warm up, measure, check.
// Notes are informational lines for the log.
func bench(cfg config) (result, []string, error) {
	wl := cfg.wl
	var tr *tracer
	if cfg.trace {
		tr = newTracer()
	}
	var setupS []float64
	boots := 0
	timedBoot := func(clock *serviceClock) (*cluster, error) {
		t0 := time.Now()
		c, err := boot(wl, clock, tr, filepath.Join(cfg.workDir, fmt.Sprint("setup", boots)))
		boots++
		if err != nil {
			return nil, fmt.Errorf("boot: %w", err)
		}
		setupS = append(setupS, time.Since(t0).Seconds())
		return c, nil
	}
	// spareBoots boots and tears down a fresh topology bootsPerRound
	// times, beside the measured one while its load is stopped.
	spareBoots := func() error {
		for i := 0; i < bootsPerRound; i++ {
			c, err := timedBoot(&serviceClock{})
			if err != nil {
				return err
			}
			c.close()
		}
		return nil
	}
	clock := &serviceClock{}
	cl, err := timedBoot(clock)
	if err != nil {
		return result{}, nil, err
	}
	defer cl.close()

	r := newRunner(wl, cl, clock, tr, cfg.seed, cfg.conns)
	warm := r.run(plan{ops: wl.warmOps})
	openSec := cfg.seconds * openShare
	closedDur := time.Duration((cfg.seconds - openSec) * float64(time.Second))
	openPlan := plan{open: true, rate: wl.openRate, probes: wl.probes, span: time.Duration(openSec * float64(time.Second))}

	var (
		open, closed, closedA *phase
		lag                   *lagSampler
		k0, k1, k2, k3        counters
	)
	if cfg.trace {
		if f := cl.follower(); f != nil {
			lag = startLagSampler(cl.primaries()[0], tr)
		}
		k0 = cl.counters()
		tr.on.Store(true)
		open = r.run(openPlan)
		tr.on.Store(false)
		k1 = cl.counters()
		// The same closed loop untraced, then traced: the gap is the
		// tracing overhead.
		closedA = r.run(plan{dur: closedDur / 2})
		k2 = cl.counters()
		tr.on.Store(true)
		closed = r.run(plan{dur: closedDur / 2})
		tr.on.Store(false)
		k3 = cl.counters()
	} else {
		// The measured part alternates open- and closed-loop segments, so
		// a burst of host noise lands in a few segments of each rather than
		// in all of one.
		open, closed = &phase{}, &phase{}
		for k := 0; k < rounds; k++ {
			if err := spareBoots(); err != nil {
				return result{}, nil, err
			}
			seg := openPlan
			seg.span /= rounds
			open.extend(r.run(seg))
			closed.extend(r.run(plan{dur: closedDur / rounds}))
		}
	}
	var ackLag []float64
	if lag != nil {
		ackLag = lag.finish()
	}
	// Peak RSS of the measured system, before the gate reads whole WAL
	// histories back into memory.
	rss := peakRSSMiB()

	bad, histories := r.gate()
	res := result{
		Correct:   len(bad) == 0,
		Attempted: warm.ops + open.ops + closed.ops,
		Failed:    warm.failed + open.failed + closed.failed,
		Metrics:   make(map[string]metric),
	}
	if closedA != nil {
		res.Attempted += closedA.ops
		res.Failed += closedA.failed
	}
	var notes []string
	for _, b := range bad {
		fmt.Fprintln(os.Stderr, "VIOLATION", b)
	}
	notes = append(notes, fmt.Sprintf("samples: open ops=%d submit=%d read=%d healthz=%d; closed ops=%d decided=%d ops/s=%.0f; violations=%d",
		open.ops, len(open.submitMs), len(open.readMs), len(open.healthMs), closed.ops, closed.decided,
		float64(closed.ops)/closed.wall.Seconds(), len(bad)))

	put := func(name string, v float64) { res.Metrics[name] = metric{Value: v, Unit: unitOf(name)} }
	if !cfg.trace {
		measured := []*phase{open, closed}
		var dec, acc, ops, failed int
		for _, p := range measured {
			dec += p.decided
			acc += p.accepted
			ops += p.ops
			failed += p.failed
		}
		put("setup_s", quantile(setupS, 0.5))
		put("admissions_per_s", closed.admissionsPerSec())
		put("submit_p50_ms", quantile(open.submitMs, 0.5))
		put("read_p50_ms", quantile(open.readMs, 0.5))
		put("healthz_p50_ms", quantile(open.healthMs, 0.5))
		put("accept_ratio", ratio(acc, dec))
		put("util_ratio", utilRatio(histories, open.firstAt, closed.lastAt))
		put("success_ratio", 1-ratio(failed, ops))
		put("rss_peak_mb", rss)
		return res, notes, nil
	}

	spans := tr.snapshot()
	par := parents(spans)
	in := layerInput{
		spans: spans, parents: par, follower: -1,
		nPrimaries: len(cl.primaries()),
		admissions: open.decided + closed.decided,
		crossDec:   open.crossDecided + closed.crossDecided,
		wall:       open.wall + closed.wall,
		delta:      k1.sub(k0).add(k3.sub(k2)),
		process:    k2.sub(k1),
		procAdm:    closedA.decided,
		cross:      r.cross,
		ackLag:     ackLag,
		genLagP99:  quantile(open.lagMs, 0.99),
		overhead:   1 - closed.admissionsPerSec()/closedA.admissionsPerSec(),
	}
	if f := cl.follower(); f != nil {
		in.follower = int8(len(cl.nodes) - 1)
	}
	for _, n := range cl.primaries() {
		st := n.srv.Status()
		s := st.Stats.AdmitLatencySummary()
		in.decideP50 += 1e3 * s.P50Ms / float64(in.nPrimaries)
		in.decideP99 += 1e3 * s.P99Ms / float64(in.nPrimaries)
		in.live += len(n.srv.LiveReservations())
	}
	for name, v := range layers(in) {
		put(name, v)
	}
	put("tail.submit_p99_ms", quantile(open.submitMs, 0.99))
	put("tail.read_p99_ms", quantile(open.readMs, 0.99))
	put("tail.healthz_p99_ms", quantile(open.healthMs, 0.99))
	if err := writeSpans(cfg.spanOut, spans, par, cl.nodeNames()); err != nil {
		return result{}, nil, err
	}
	notes = append(notes, fmt.Sprintf("spans: %d written to %s", len(spans), cfg.spanOut))
	return res, notes, nil
}

func ratio(a, b int) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// peakRSSMiB is the process's peak resident set size.
func peakRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}
