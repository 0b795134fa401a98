package main

import (
	"fmt"
	"hash/fnv"
	"math/rand/v2"

	"gridbw/internal/server"
	"gridbw/internal/wal"
	paper "gridbw/internal/workload"
)

// Platform of every workload: the paper's 10×10 grid at 1 GB/s per point.
const (
	numPoints = 10
	pointBps  = 1e9
	rateMin   = 10e6 // MaxRate is uniform in [10 MB/s, 1 GB/s] (paper §5.3)
	rateMax   = 1e9
	slackMin  = 1.5 // flexible windows are slack × vol/MaxRate
	slackMax  = 4.0
	// maxLead bounds how far ahead a book-ahead request may start: twice
	// the 4096 × 1 s bucket cache of alloc.NewSharded, so about half the
	// requests land beyond it and take the raw breakpoint scan.
	maxLead = 8192.0
)

type topo int

const (
	topoSingle     topo = iota // one primary
	topoRouted                 // router over two shard servers
	topoReplicated             // primary plus one pulling follower
)

type reqKind int

const (
	// flexible: NotBefore = arrival, window = slack × vol/MaxRate.
	flexible reqKind = iota
	// bookahead: rigid (window = vol/MaxRate exactly) and starting up to
	// maxLead seconds after its arrival.
	bookahead
)

// Percentages of each op kind in every workload's stream: about 10%
// lookups and 5% cancels, the rest submissions. Healthz probes
// are not part of the stream; the open loop sends them at a fixed rate
// (see workload.probes).
const (
	getPct    = 10
	cancelPct = 5
)

// workload is one frozen traffic mix. Nothing in it is derived at run
// time: the open-loop rate in particular is a constant, a tenth to a
// quarter of what the parent code sustained closed-loop on a 2-vCPU VM,
// low enough to stay below capacity through spells of slow disk there.
type workload struct {
	name string
	why  string

	topo     topo
	fsync    wal.SyncPolicy
	syncMode string // server.Config.SyncMode
	batch    int    // 0: JSON single submits; else binary batches of this size
	kind     reqKind
	volScale float64 // factor on the paper volume ladder
	hot      int     // ingress and egress points 0..hot-1 carry all load
	load     float64 // offered load: demanded bandwidth / (½ · capacity of the hot points)

	openRate float64 // open-loop stream ops per wall second
	probes   float64 // open-loop probes per wall second, healthz and lookup in turn
	warmOps  int     // untimed closed-loop ops before measuring
}

var workloads = []*workload{
	{
		name:     "durable-json",
		why:      "deployment default: WAL fsync=always inside the global lock, JSON single submits, cancels, lookups, healthz",
		topo:     topoSingle,
		fsync:    wal.SyncAlways,
		kind:     flexible,
		volScale: 1e-3,
		hot:      numPoints,
		load:     1.0,
		openRate: 300,
		probes:   100,
		warmOps:  5000,
	},
	{
		name:     "bookahead-batch",
		why:      "binary batches of 64 rigid book-ahead requests past the bucket cache on 3 hot points at load 1.5, no fsync",
		topo:     topoSingle,
		fsync:    wal.SyncNever,
		batch:    64,
		kind:     bookahead,
		volScale: 1,
		hot:      3,
		load:     1.5,
		openRate: 80,
		probes:   160,
		warmOps:  200,
	},
	{
		name:     "routed-cross",
		why:      "router over 2 shards, about half the pairs cross-shard: two-phase holds and router hops, no fsync",
		topo:     topoRouted,
		fsync:    wal.SyncNever,
		kind:     flexible,
		volScale: 1e-3,
		hot:      numPoints,
		load:     1.0,
		openRate: 600,
		probes:   100,
		warmOps:  3000,
	},
	{
		name:     "replicated-syncack",
		why:      "primary and pulling follower, both fsync=always, every ack waits for the follower (sync mode one)",
		topo:     topoReplicated,
		fsync:    wal.SyncAlways,
		syncMode: "one",
		kind:     flexible,
		volScale: 1e-3,
		hot:      numPoints,
		load:     1.0,
		openRate: 60,
		probes:   40,
		warmOps:  2000,
	},
}

func workloadByName(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// meanGap is the mean service-time gap between submissions that offers
// the workload's load: λ·E[vol] = load · ½ · (hot ingress + hot egress
// capacity).
func (w *workload) meanGap() float64 {
	meanVol := float64(paper.MeanVolume(paper.PaperVolumes())) * w.volScale
	half := 0.5 * float64(2*w.hot) * pointBps
	return meanVol / (w.load * half)
}

type opKind uint8

const (
	opSubmit opKind = iota // one JSON submit, or one binary batch
	opGet
	opCancel
	opHealth
)

// op is one generated operation. Everything in it is a function of
// (workload, seed, Seq); which reservation a get or cancel targets is
// resolved when the op is claimed, from Pick and the answers seen so far.
type op struct {
	Seq   int64                  `json:"seq"`
	Kind  opKind                 `json:"kind"`
	At    float64                `json:"at"`   // service instant (first submission of a batch)
	Last  float64                `json:"last"` // latest service instant the op carries
	Subs  []server.SubmitRequest `json:"subs,omitempty"`
	First int64                  `json:"first,omitempty"` // stream index of Subs[0]
	Pick  uint64                 `json:"pick,omitempty"`
}

// stream generates a workload's ops in order. Not safe for concurrent use.
type stream struct {
	wl   *workload
	seed uint64
	rng  *rand.Rand
	gap  float64
	t    float64 // service instant of the latest submission
	seq  int64
	subs int64
}

func newStream(wl *workload, seed uint64) *stream {
	h := fnv.New64a()
	h.Write([]byte(wl.name))
	return &stream{
		wl:   wl,
		seed: seed,
		rng:  rand.New(rand.NewPCG(seed, h.Sum64())),
		gap:  wl.meanGap(),
		t:    1,
	}
}

func (s *stream) next() op {
	o := op{Seq: s.seq}
	s.seq++
	switch d := s.rng.IntN(100); {
	case d < getPct:
		o.Kind = opGet
	case d < getPct+cancelPct:
		o.Kind = opCancel
	default:
		o.Kind = opSubmit
	}
	if o.Kind != opSubmit {
		o.At, o.Last = s.t, s.t
		o.Pick = s.rng.Uint64()
		return o
	}
	n := max(s.wl.batch, 1)
	o.First = s.subs
	o.Subs = make([]server.SubmitRequest, n)
	for i := range o.Subs {
		s.t += s.rng.ExpFloat64() * s.gap
		o.Subs[i] = s.submission()
		if i == 0 {
			o.At = s.t
		}
	}
	o.Last = s.t
	return o
}

// keyOf is the idempotency key of the stream's idx-th submission.
func keyOf(wl *workload, seed uint64, idx int64) string {
	return fmt.Sprintf("%s/%d/%d", wl.name, seed, idx)
}

// submission draws one request arriving at the current instant s.t.
func (s *stream) submission() server.SubmitRequest {
	ladder := paper.PaperVolumes()
	vol := float64(ladder[s.rng.IntN(len(ladder))]) * s.wl.volScale
	maxRate := rateMin + s.rng.Float64()*(rateMax-rateMin)
	from, to := s.rng.IntN(s.wl.hot), s.rng.IntN(s.wl.hot)
	dur := vol / maxRate
	req := server.SubmitRequest{
		From: from, To: to,
		VolumeBytes: vol, MaxRateBps: maxRate,
		IdempotencyKey: keyOf(s.wl, s.seed, s.subs),
	}
	s.subs++
	switch s.wl.kind {
	case flexible:
		req.NotBeforeS = s.t
		req.DeadlineS = s.t + dur*(slackMin+s.rng.Float64()*(slackMax-slackMin))
	case bookahead:
		req.NotBeforeS = s.t + s.rng.Float64()*maxLead
		req.DeadlineS = req.NotBeforeS + dur
	}
	return req
}
