package main

import (
	"runtime"
	"sort"
	"syscall"
	"time"
)

// counters is a snapshot of the counts the program exposes at its public
// reads (Status, ShardStats, ReplicationStatus) and of the process.
type counters struct {
	expired, syncDegraded uint64
	locks, contended      uint64
	applied               uint64 // follower: records applied
	cpu                   time.Duration
	mallocs               uint64
	gcs                   uint32
}

func (c *cluster) counters() counters {
	var k counters
	for _, n := range c.primaries() {
		st := n.srv.Status()
		k.expired += st.Stats.Expired
		k.syncDegraded += st.Stats.SyncDegraded
		for _, s := range n.srv.ShardStats() {
			k.locks += s.Locks
			k.contended += s.Contended
		}
	}
	if f := c.follower(); f != nil {
		k.applied = f.srv.ReplicationStatus().Applied
	}
	var ru syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) == nil {
		k.cpu = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	k.mallocs, k.gcs = ms.Mallocs, ms.NumGC
	return k
}

func (k counters) sub(o counters) counters {
	return counters{
		expired: k.expired - o.expired, syncDegraded: k.syncDegraded - o.syncDegraded,
		locks: k.locks - o.locks, contended: k.contended - o.contended,
		applied: k.applied - o.applied, cpu: k.cpu - o.cpu,
		mallocs: k.mallocs - o.mallocs, gcs: k.gcs - o.gcs,
	}
}

func (k counters) add(o counters) counters {
	return counters{
		expired: k.expired + o.expired, syncDegraded: k.syncDegraded + o.syncDegraded,
		locks: k.locks + o.locks, contended: k.contended + o.contended,
		applied: k.applied + o.applied, cpu: k.cpu + o.cpu,
		mallocs: k.mallocs + o.mallocs, gcs: k.gcs + o.gcs,
	}
}

// lagSampler polls the primary's FollowerAcks() while tracing is on and
// records how many WAL bytes the follower's acknowledged cursor trails
// the frontier by.
type lagSampler struct {
	stop, done chan struct{}
	samples    []float64
}

func startLagSampler(p *node, tr *tracer) *lagSampler {
	s := &lagSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		tick := time.NewTicker(time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-s.stop:
				return
			case <-tick.C:
			}
			if !tr.on.Load() {
				continue
			}
			ack, ok := p.srv.FollowerAcks()[followerID]
			if !ok {
				continue
			}
			end := p.log.End()
			lag := int64(0)
			if ack.Pos.Less(end) {
				var err error
				if lag, err = p.log.SizeBetween(ack.Pos, end); err != nil {
					continue
				}
			}
			s.samples = append(s.samples, float64(lag))
		}
	}()
	return s
}

func (s *lagSampler) finish() []float64 {
	close(s.stop)
	<-s.done
	return s.samples
}

// quantile is the nearest-rank q-quantile of xs (sorted in place); 0 for
// no samples.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	i := int(q*float64(len(xs))+0.999999) - 1
	return xs[min(max(i, 0), len(xs)-1)]
}

// parents derives each span's parent index (-1 for roots). Spans of one
// request nest client → net → [router → hop →] server; WAL spans nest in
// the latest-started handler span of their node that encloses them.
func parents(spans []span) []int {
	out := make([]int, len(spans))
	byReq := make(map[uint64][]int)
	handlers := make(map[int8][]int)
	for i, s := range spans {
		out[i] = -1
		if s.req != 0 {
			byReq[s.req] = append(byReq[s.req], i)
		}
		if s.kind == spServer && s.route != rtPull {
			// A parked pull encloses whatever the node logs meanwhile
			// but causes none of it.
			handlers[s.node] = append(handlers[s.node], i)
		}
	}
	encloses := func(p, c span) bool { return p.start <= c.start && c.end <= p.end }
	find := func(c int, kinds ...spanKind) int {
		for _, k := range kinds {
			for _, j := range byReq[spans[c].req] {
				if spans[j].kind == k && j != c && encloses(spans[j], spans[c]) {
					return j
				}
			}
		}
		return -1
	}
	for i, s := range spans {
		switch s.kind {
		case spNet:
			out[i] = find(i, spClient)
		case spRouter:
			out[i] = find(i, spNet)
		case spHop:
			out[i] = find(i, spRouter)
		case spServer:
			out[i] = find(i, spHop, spNet)
		}
	}
	for node, hs := range handlers {
		sort.Slice(hs, func(a, b int) bool { return spans[hs[a]].start < spans[hs[b]].start })
		for i, s := range spans {
			if (s.kind != spWALWrite && s.kind != spWALSync) || s.node != node {
				continue
			}
			j := sort.Search(len(hs), func(k int) bool { return spans[hs[k]].start > s.start }) - 1
			for ; j >= 0 && s.start-spans[hs[j]].start < int64(10*time.Second); j-- {
				if encloses(spans[hs[j]], s) {
					out[i] = hs[j]
					break
				}
			}
		}
	}
	return out
}

// layerInput is everything the traced run measured.
type layerInput struct {
	spans      []span
	parents    []int
	follower   int8 // node index of the follower, -1 when none
	nPrimaries int
	admissions int           // decided submissions in the traced phases
	crossDec   int           // of which cross-shard
	wall       time.Duration // wall time of the traced phases
	delta      counters      // program counters over the traced phases
	process    counters      // process counters over the untraced closed phase
	procAdm    int           // decided submissions in that phase
	cross      map[uint64]bool
	ackLag     []float64
	decideP50  float64 // µs, mean over primaries of Stats.AdmitLatency
	decideP99  float64
	live       int
	genLagP99  float64
	overhead   float64
}

// layers computes every per-layer metric. Metrics of a layer the
// workload does not run through are 0.
func layers(in layerInput) map[string]float64 {
	us := func(ns int64) float64 { return float64(ns) / 1e3 }
	per := func(x float64) float64 {
		if in.admissions == 0 {
			return 0
		}
		return x / float64(in.admissions)
	}
	self := make([]int64, len(in.spans))
	for i, s := range in.spans {
		self[i] += s.dur()
		if p := in.parents[i]; p >= 0 {
			self[p] -= s.dur()
		}
	}
	var (
		routeDur     [numRoutes][]float64
		walWrite     []float64
		walSync      []float64
		followerSync []float64
		netRT        []float64
		crossMs      []float64
		sameMs       []float64
		walN         [2]int
		walBytes     int64
		walBusy      int64
		serverSelf   int64
		routerSelf   int64
		clientSelf   int64
		attempts     = make(map[int]int)
		clients      int
		hops         int
		reqBytes     int64
		respBytes    int64
	)
	for i, s := range in.spans {
		switch s.kind {
		case spClient:
			clients++
			clientSelf += max(self[i], 0)
		case spNet:
			netRT = append(netRT, us(s.dur()))
			reqBytes += s.bytes
			respBytes += s.respBytes
			if p := in.parents[i]; p >= 0 {
				attempts[p]++
			}
		case spRouter:
			if s.route == rtSubmit || s.route == rtBatch {
				routerSelf += max(self[i], 0)
				if s.route == rtSubmit {
					if in.cross[s.req] {
						crossMs = append(crossMs, float64(s.dur())/1e6)
					} else {
						sameMs = append(sameMs, float64(s.dur())/1e6)
					}
				}
			}
		case spHop:
			hops++
		case spServer:
			routeDur[s.route] = append(routeDur[s.route], us(s.dur()))
			switch s.route {
			case rtSubmit, rtBatch, rtReserve, rtConfirm:
				serverSelf += max(self[i], 0)
			}
		case spWALWrite, spWALSync:
			if s.node == in.follower {
				if s.kind == spWALSync {
					followerSync = append(followerSync, us(s.dur()))
				}
				continue
			}
			walBusy += s.dur()
			if s.kind == spWALWrite {
				walN[0]++
				walBytes += s.bytes
				walWrite = append(walWrite, us(s.dur()))
			} else {
				walN[1]++
				walSync = append(walSync, us(s.dur()))
			}
		}
	}
	retries := 0
	for _, n := range attempts {
		retries += n - 1
	}
	m := map[string]float64{
		"wal.writes_per_admission": per(float64(walN[0])),
		"wal.fsyncs_per_admission": per(float64(walN[1])),
		"wal.bytes_per_admission":  per(float64(walBytes)),
		"wal.write_p50_us":         quantile(walWrite, 0.5),
		"wal.fsync_p50_us":         quantile(walSync, 0.5),
		"wal.fsync_p99_us":         quantile(walSync, 0.99),
		"wal.busy_share":           float64(walBusy) / (float64(in.wall) * float64(in.nPrimaries)),

		"server.self_us_per_admission":  per(us(serverSelf)),
		"server.decide_p50_us":          in.decideP50,
		"server.decide_p99_us":          in.decideP99,
		"server.expiries_per_admission": per(float64(in.delta.expired)),

		"alloc.locks_per_admission": per(float64(in.delta.locks)),
		"alloc.contended_ratio":     0,
		"alloc.live_reservations":   float64(in.live),

		"client.self_us_per_call":      0,
		"client.retries_per_call":      0,
		"net.roundtrip_p50_us":         quantile(netRT, 0.5),
		"net.req_bytes_per_admission":  per(float64(reqBytes)),
		"net.resp_bytes_per_admission": per(float64(respBytes)),

		"repl.pulls_per_admission":     per(float64(len(routeDur[rtPull]))),
		"repl.records_per_pull":        0,
		"repl.pull_p50_us":             quantile(routeDur[rtPull], 0.5),
		"repl.follower_fsync_p50_us":   quantile(followerSync, 0.5),
		"repl.ack_lag_p99_bytes":       quantile(in.ackLag, 0.99),
		"repl.sync_degraded":           float64(in.delta.syncDegraded),
		"router.self_us_per_admission": per(us(routerSelf)),
		"router.hops_per_admission":    per(float64(hops)),
		"router.cross_share":           0,
		"router.cross_p50_ms":          quantile(crossMs, 0.5),
		"router.same_p50_ms":           quantile(sameMs, 0.5),
		"router.aborts_per_1k":         1000 * per(float64(len(routeDur[rtAbort]))),

		"process.cpu_us_per_admission": 0,
		"process.allocs_per_admission": 0,
		"process.gc_per_1k_admissions": 0,
		"bench.gen_lag_p99_ms":         in.genLagP99,
		"bench.trace_overhead":         in.overhead,
	}
	for r := rtSubmit; r < numRoutes; r++ {
		if r == rtAbort {
			continue
		}
		m["server."+routeNames[r]+"_p50_us"] = quantile(routeDur[r], 0.5)
		m["server."+routeNames[r]+"_p99_us"] = quantile(routeDur[r], 0.99)
	}
	if in.delta.locks > 0 {
		m["alloc.contended_ratio"] = float64(in.delta.contended) / float64(in.delta.locks)
	}
	if clients > 0 {
		m["client.self_us_per_call"] = us(clientSelf) / float64(clients)
		m["client.retries_per_call"] = float64(retries) / float64(clients)
	}
	if n := len(routeDur[rtPull]); n > 0 {
		m["repl.records_per_pull"] = float64(in.delta.applied) / float64(n)
	}
	m["router.cross_share"] = per(float64(in.crossDec))
	if in.procAdm > 0 {
		a := float64(in.procAdm)
		m["process.cpu_us_per_admission"] = float64(in.process.cpu) / 1e3 / a
		m["process.allocs_per_admission"] = float64(in.process.mallocs) / a
		m["process.gc_per_1k_admissions"] = 1000 * float64(in.process.gcs) / a
	}
	return m
}
