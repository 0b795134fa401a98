package main

import (
	"math"
	"sync"
	"sync/atomic"
	"time"
)

// clockBase is the wall instant every server in a run takes as service
// time 0. It is a constant, so service time is a pure function of the
// request stream and never of how fast the machine runs.
var clockBase = time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)

// serviceClock is the Config.Clock shared by every server of one run
// (shards and follower included). It advances only as the generator
// claims requests, never with wall time.
//
// The guard: the clock never passes the arrival instant of a request
// that has been claimed but not answered. A server clamps a NotBefore in
// its past to its own now, so a clock that ran ahead of an in-flight
// request would shrink that request's window, or empty it, depending on
// which connection the scheduler happened to run first. Holding the clock
// at the oldest unanswered arrival makes every decision see its request's
// window exactly as generated.
//
// naive drops the guard and jumps the clock to each arrival as it is
// claimed; it exists so a test can show the guard is needed.
type serviceClock struct {
	naive bool

	mu       sync.Mutex
	inflight []float64 // arrival instants claimed and not yet answered
	last     float64   // latest instant claimed so far

	now atomic.Uint64 // math.Float64bits of the current service time
}

// Now is the Config.Clock function.
func (c *serviceClock) Now() time.Time {
	s := math.Float64frombits(c.now.Load())
	return clockBase.Add(time.Duration(s * float64(time.Second)))
}

// Seconds reports the current service time.
func (c *serviceClock) Seconds() float64 { return math.Float64frombits(c.now.Load()) }

// claim registers a request arriving at instant at whose answer is still
// to come; through is the latest instant the request carries (the last
// item of a batch). Claims must come in stream order.
func (c *serviceClock) claim(at, through float64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if through > c.last {
		c.last = through
	}
	if c.naive {
		if at > c.Seconds() {
			c.now.Store(math.Float64bits(at))
		}
		return
	}
	c.inflight = append(c.inflight, at)
	c.publishLocked()
}

// done releases a claim once its answer arrived.
func (c *serviceClock) done(at float64) {
	if c.naive {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	for i, t := range c.inflight {
		if t == at {
			c.inflight = append(c.inflight[:i], c.inflight[i+1:]...)
			break
		}
	}
	c.publishLocked()
}

// publishLocked sets the clock to the oldest unanswered arrival, or to the
// latest claimed instant when nothing is in flight. Both only grow, since
// claims arrive in stream order.
func (c *serviceClock) publishLocked() {
	t := c.last
	for _, a := range c.inflight {
		if a < t {
			t = a
		}
	}
	if t > c.Seconds() {
		c.now.Store(math.Float64bits(t))
	}
}
