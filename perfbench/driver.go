package main

import (
	"context"
	"fmt"
	"math"
	"net/http"
	"strings"
	"sync"
	"time"

	"gridbw/internal/check"
	"gridbw/internal/server"
	"gridbw/internal/server/client"
)

// recentIDs bounds the accepted reservations a get or cancel may target.
const recentIDs = 64

// probeID marks the trace request IDs of probes, which are not stream
// ops and so have no stream sequence number.
const probeID = 1 << 62

// runner drives one cluster with one workload's op stream on conns
// connections, recording what the client saw for the correctness gate.
type runner struct {
	wl    *workload
	cl    *cluster
	clock *serviceClock
	c     *client.Client
	conns int
	tr    *tracer // nil: no tracing wrappers installed
	label string  // check.Op node label
	seed  uint64

	mu     sync.Mutex
	st     *stream
	recent []int  // ring of accepted IDs a get or cancel may target
	next   int    // ring write position
	probes uint64 // open-loop probes sent so far

	// Correctness observations, guarded by mu.
	emptyWindow int
	grantErrs   []string
	accepted    int             // accepts the servers count in Stats.Accepted
	cross       map[uint64]bool // traced runs: request ID → answered cross_shard
	history     []seen          // accepted submissions, for the gate's check.Op history
}

// seen is one accepted submission, kept compact while the load runs.
// Accepted submissions are the only client ops check's invariants read
// (idempotency, durable-ack survival, cross-shard ack survival), so they
// are the only ones kept; see ops for their check.Op form.
type seen struct {
	sub               int64 // stream index of the submission (its idempotency key)
	id                int
	rate              float64
	replicated, cross bool
}

// ops is the recorded history as check.Ops, in observation order.
func (r *runner) ops() []check.Op {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]check.Op, len(r.history))
	for i, x := range r.history {
		op := check.Op{
			Node: r.label, Kind: check.OpSubmit, Key: keyOf(r.wl, r.seed, x.sub),
			ID: x.id, Accepted: true, RateBps: x.rate,
		}
		if x.replicated {
			op.Durability = server.DurabilityReplicated
		}
		if x.cross {
			op.Routed = server.RoutedCrossShard
		}
		out[i] = op
	}
	return out
}

func newRunner(wl *workload, cl *cluster, clock *serviceClock, tr *tracer, seed uint64, conns int) *runner {
	var rt http.RoundTripper = &http.Transport{
		MaxConnsPerHost:     conns,
		MaxIdleConnsPerHost: conns,
		IdleConnTimeout:     90 * time.Second,
	}
	if tr != nil {
		rt = &transport{base: rt, t: tr, kind: spNet}
	}
	label := "primary"
	if wl.topo == topoRouted {
		label = "router"
	}
	return &runner{
		wl: wl, cl: cl, clock: clock, conns: conns, tr: tr,
		c:     client.NewWithOptions(cl.target, &http.Client{Transport: rt, Timeout: 30 * time.Second}, client.Options{}),
		label: label,
		seed:  seed,
		st:    newStream(wl, seed),
		cross: make(map[uint64]bool),
	}
}

// plan is one load phase. Closed-loop phases stop claiming ops after dur
// (when non-zero) or ops (when non-zero). Open-loop phases last span:
// stream op j is due at start + j/rate and, between them, probe i at
// start + (i+½)/probes. Probes are not stream ops; they alternate between
// a healthz and a lookup of a recent ID.
type plan struct {
	open   bool
	rate   float64
	probes float64
	span   time.Duration
	ops    int
	dur    time.Duration
}

// phase accumulates what one load phase measured.
type phase struct {
	ops, failed       int
	decided, accepted int
	crossDecided      int
	submitMs, readMs  []float64 // open loop: latency from due time
	healthMs, lagMs   []float64
	span              time.Duration // open loop: how long ops were due
	wall              time.Duration
	firstAt, lastAt   float64 // service instants of the phase's submissions
	haveAt            bool
}

func (p *phase) merge(q *phase) {
	p.ops += q.ops
	p.failed += q.failed
	p.decided += q.decided
	p.accepted += q.accepted
	p.crossDecided += q.crossDecided
	p.submitMs = append(p.submitMs, q.submitMs...)
	p.readMs = append(p.readMs, q.readMs...)
	p.healthMs = append(p.healthMs, q.healthMs...)
	p.lagMs = append(p.lagMs, q.lagMs...)
}

// extend appends a later segment of the same kind of phase, as if the
// two had run back to back.
func (p *phase) extend(q *phase) {
	p.merge(q)
	p.span += q.span
	p.wall += q.wall
	if !p.haveAt {
		p.firstAt, p.haveAt = q.firstAt, q.haveAt
	}
	p.lastAt = math.Max(p.lastAt, q.lastAt)
}

// admissionsPerSec is decided submissions per wall second over the whole
// phase, from its start to its last answer.
func (p *phase) admissionsPerSec() float64 {
	return float64(p.decided) / p.wall.Seconds()
}

type opResult struct {
	failed            bool
	decided, accepted int
	cross             int
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func (r *runner) run(p plan) *phase {
	var (
		wg      sync.WaitGroup
		claimed int
		probes  int // open loop: probes claimed
		total   phase
		tmu     sync.Mutex
	)
	start := time.Now()
	for w := 0; w < r.conns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var mine phase
			for {
				r.mu.Lock()
				var at float64 // open loop: due time, seconds after start
				probe := false
				if p.open {
					at = float64(claimed-probes) / p.rate
					if pt := (float64(probes) + 0.5) / p.probes; pt < at {
						at, probe = pt, true
					}
					if at >= p.span.Seconds() {
						r.mu.Unlock()
						break
					}
				} else if (p.ops > 0 && claimed >= p.ops) || (p.dur > 0 && time.Since(start) >= p.dur) {
					r.mu.Unlock()
					break
				}
				claimed++
				o, target := op{Kind: opHealth}, -1
				var id uint64
				if probe {
					probes++
					r.probes++
					id = probeID | r.probes
					if r.probes%2 == 0 && len(r.recent) > 0 {
						o.Kind, target = opGet, r.recent[int(r.probes/2)%len(r.recent)]
					}
				} else {
					o, target = r.claimLocked()
					id = uint64(o.Seq + 1)
				}
				if o.Kind == opSubmit {
					if !total.haveAt {
						total.firstAt, total.haveAt = o.At, true
					}
					total.lastAt = math.Max(total.lastAt, o.Last)
				}
				r.mu.Unlock()

				var due time.Time
				if p.open {
					due = start.Add(time.Duration(at * float64(time.Second)))
					time.Sleep(time.Until(due))
				}
				ctx := context.Background()
				traced := r.tr != nil && r.tr.on.Load()
				var ts int64
				if traced {
					ctx = withReqID(ctx, id)
					ts = r.tr.now()
				}
				sent := time.Now()
				res := r.exec(ctx, o, target, id, traced)
				end := time.Now()
				if !probe {
					r.clock.done(o.At)
				}
				if traced {
					r.tr.add(span{kind: spClient, node: -1, req: id, route: clientRoute(o), start: ts, end: r.tr.now()})
				}

				mine.ops++
				if res.failed {
					mine.failed++
				}
				mine.decided += res.decided
				mine.accepted += res.accepted
				mine.crossDecided += res.cross
				if p.open {
					lat := ms(end.Sub(due))
					mine.lagMs = append(mine.lagMs, math.Max(0, ms(sent.Sub(due))))
					switch o.Kind {
					case opSubmit:
						mine.submitMs = append(mine.submitMs, lat)
					case opGet:
						mine.readMs = append(mine.readMs, lat)
					case opHealth:
						mine.healthMs = append(mine.healthMs, lat)
					}
				}
			}
			tmu.Lock()
			total.merge(&mine)
			tmu.Unlock()
		}()
	}
	wg.Wait()
	total.wall = time.Since(start)
	total.span = p.span
	return &total
}

func clientRoute(o op) uint8 {
	switch o.Kind {
	case opSubmit:
		if len(o.Subs) > 1 {
			return rtBatch
		}
		return rtSubmit
	case opGet:
		return rtGet
	case opCancel:
		return rtCancel
	}
	return rtHealth
}

// claimLocked takes the stream's next op, resolves its target and claims
// its arrival on the service clock. Ops are claimed in stream order.
func (r *runner) claimLocked() (op, int) {
	o := r.st.next()
	target := -1
	if o.Kind == opGet || o.Kind == opCancel {
		if len(r.recent) == 0 {
			o.Kind = opHealth // nothing accepted yet to look at
		} else {
			target = r.recent[o.Pick%uint64(len(r.recent))]
		}
	}
	r.clock.claim(o.At, o.Last)
	return o, target
}

func (r *runner) exec(ctx context.Context, o op, target int, id uint64, traced bool) opResult {
	switch o.Kind {
	case opSubmit:
		if len(o.Subs) == 1 {
			rj, err := r.c.Submit(ctx, o.Subs[0])
			if err != nil {
				return opResult{failed: true}
			}
			res := r.observe(o.First, o.Subs[0], rj)
			if traced && rj.Routed == server.RoutedCrossShard {
				r.mu.Lock()
				r.cross[id] = true
				r.mu.Unlock()
			}
			return res
		}
		items, err := r.c.SubmitBatchBinary(ctx, o.Subs)
		if err != nil {
			return opResult{failed: true}
		}
		var res opResult
		for i, it := range items {
			if it.Reservation == nil {
				res.failed = true
				continue
			}
			one := r.observe(o.First+int64(i), o.Subs[i], *it.Reservation)
			res.decided += one.decided
			res.accepted += one.accepted
		}
		return res
	case opGet:
		if _, err := r.c.Get(ctx, target); err != nil {
			return opResult{failed: true}
		}
	case opCancel:
		_, err := r.c.Cancel(ctx, target)
		if err != nil && !client.IsNotFound(err) && !client.IsConflict(err) {
			// 404 and 409 answer a cancel of an already expired or
			// cancelled reservation: an outcome, not a failure.
			return opResult{failed: true}
		}
	case opHealth:
		if _, err := r.c.Health(ctx); err != nil {
			return opResult{failed: true}
		}
	}
	return opResult{}
}

// observe records one decided submission, the idx-th of the stream, for
// the gate.
func (r *runner) observe(idx int64, sub server.SubmitRequest, rj server.ReservationJSON) opResult {
	res := opResult{decided: 1}
	cross := rj.Routed == server.RoutedCrossShard
	if cross {
		res.cross = 1
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if !rj.Accepted {
		if strings.Contains(rj.Reason, "empty window") {
			r.emptyWindow++
		}
		return res
	}
	res.accepted = 1
	r.history = append(r.history, seen{
		sub: idx, id: rj.ID, rate: rj.RateBps, cross: cross,
		replicated: rj.Durability == server.DurabilityReplicated,
	})
	if msg := grantError(sub, rj); msg != "" && len(r.grantErrs) < 10 {
		r.grantErrs = append(r.grantErrs, fmt.Sprintf("reservation %d: %s", rj.ID, msg))
	}
	if !cross {
		// Cross-shard grants live in hold tables: GET answers 404 for them
		// by design, and Stats.Accepted does not count them.
		r.accepted++
		if len(r.recent) < recentIDs {
			r.recent = append(r.recent, rj.ID)
		} else {
			r.recent[r.next] = rj.ID
			r.next = (r.next + 1) % recentIDs
		}
	}
	return res
}

// grantError checks an accepted grant against its request:
// MinRate ≤ bw ≤ MaxRate, σ ≥ not_before, τ ≤ deadline, bw·(τ−σ) = vol.
func grantError(sub server.SubmitRequest, rj server.ReservationJSON) string {
	const rel = 1e-9
	le := func(a, b float64) bool { return a <= b+rel*math.Max(1, math.Max(math.Abs(a), math.Abs(b))) }
	minRate := sub.VolumeBytes / (sub.DeadlineS - sub.NotBeforeS)
	switch {
	case !le(minRate, rj.RateBps):
		return fmt.Sprintf("rate %g below MinRate %g", rj.RateBps, minRate)
	case !le(rj.RateBps, sub.MaxRateBps):
		return fmt.Sprintf("rate %g above MaxRate %g", rj.RateBps, sub.MaxRateBps)
	case !le(sub.NotBeforeS, rj.SigmaS):
		return fmt.Sprintf("sigma %g before not_before %g", rj.SigmaS, sub.NotBeforeS)
	case !le(rj.TauS, sub.DeadlineS):
		return fmt.Sprintf("tau %g after deadline %g", rj.TauS, sub.DeadlineS)
	case math.Abs(rj.RateBps*(rj.TauS-rj.SigmaS)-sub.VolumeBytes) > 1e-6*sub.VolumeBytes:
		return fmt.Sprintf("grant moves %g bytes, request asked %g", rj.RateBps*(rj.TauS-rj.SigmaS), sub.VolumeBytes)
	}
	return ""
}
