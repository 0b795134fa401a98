package main

import (
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"sync/atomic"
	"time"

	"gridbw/internal/router"
	"gridbw/internal/server"
	"gridbw/internal/units"
	"gridbw/internal/wal"
)

const followerID = "f1"

// node is one in-process gridbwd: its server, WAL and loopback listener.
type node struct {
	name     string
	srv      *server.Server
	log      *wal.Log
	hs       *http.Server
	url      string
	follower bool
}

// cluster is everything one workload runs against, over real loopback
// HTTP and real on-disk WALs.
type cluster struct {
	wl     *workload
	dir    string
	nodes  []*node // primary or shards first, in ring order; the follower last
	rt     *router.Router
	rtHS   *http.Server
	target string // base URL the benchmark's client talks to
}

func (c *cluster) primaries() []*node {
	var out []*node
	for _, n := range c.nodes {
		if !n.follower {
			out = append(out, n)
		}
	}
	return out
}

func (c *cluster) follower() *node {
	for _, n := range c.nodes {
		if n.follower {
			return n
		}
	}
	return nil
}

func (c *cluster) nodeNames() []string {
	out := make([]string, len(c.nodes))
	for i, n := range c.nodes {
		out[i] = n.name
	}
	return out
}

func platform() []units.Bandwidth {
	caps := make([]units.Bandwidth, numPoints)
	for i := range caps {
		caps[i] = pointBps
	}
	return caps
}

// serve starts an HTTP server for h on a fresh loopback port.
func serve(h http.Handler) (*http.Server, string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, "", fmt.Errorf("listen: %w", err)
	}
	hs := &http.Server{Handler: h, ReadHeaderTimeout: 10 * time.Second}
	go hs.Serve(ln)
	return hs, "http://" + ln.Addr().String(), nil
}

// boot brings the workload's topology up under dir and returns once it is
// ready to send: servers listening, router configured, follower parked on
// a pull at the primary's frontier. tr may be nil (no tracing wrappers).
func boot(wl *workload, clock *serviceClock, tr *tracer, dir string) (c *cluster, err error) {
	c = &cluster{wl: wl, dir: dir}
	defer func() {
		if err != nil {
			c.close()
			c = nil
		}
	}()
	shards := 1
	if wl.topo == topoRouted {
		shards = 2
	}
	var ready chan struct{}
	for i := 0; i < shards; i++ {
		name := "primary"
		if wl.topo == topoRouted {
			name = "s" + strconv.Itoa(i)
		}
		n, err := bootNode(name, int8(i), wl, clock, tr, dir, "")
		if err != nil {
			return c, err
		}
		c.nodes = append(c.nodes, n)
		var h http.Handler = n.srv.Handler()
		if tr != nil {
			h = tr.handler(spServer, int8(i), h)
		}
		if wl.topo == topoReplicated {
			ready = make(chan struct{})
			h = caughtUp(n, ready, h)
		}
		if n.hs, n.url, err = serve(h); err != nil {
			return c, err
		}
	}
	switch wl.topo {
	case topoSingle, topoReplicated:
		c.target = c.nodes[0].url
	case topoRouted:
		if err := c.bootRouter(tr); err != nil {
			return c, err
		}
	}
	if wl.topo == topoReplicated {
		f, err := bootNode("follower", int8(len(c.nodes)), wl, clock, tr, dir, c.nodes[0].url)
		if err != nil {
			return c, err
		}
		c.nodes = append(c.nodes, f)
		if err := f.srv.StartFollowing(); err != nil {
			return c, fmt.Errorf("follower: %w", err)
		}
		select {
		case <-ready:
		case <-time.After(10 * time.Second):
			return c, errors.New("follower did not catch up within 10s")
		}
	}
	return c, nil
}

func bootNode(name string, idx int8, wl *workload, clock *serviceClock, tr *tracer, dir, follow string) (*node, error) {
	opt := wal.Options{Policy: wl.fsync}
	if tr != nil {
		opt.FS = timedFS{FS: wal.OSFS{}, t: tr, node: idx}
	}
	log, _, err := wal.Open(filepath.Join(dir, name), opt)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	cfg := server.Config{
		Ingress: platform(), Egress: platform(),
		Clock: clock.Now, WAL: log, SyncMode: wl.syncMode,
	}
	if follow != "" {
		cfg.Follow, cfg.ReplID = follow, followerID
	}
	srv, err := server.New(cfg)
	if err != nil {
		log.Close()
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	return &node{name: name, srv: srv, log: log, follower: follow != ""}, nil
}

// caughtUp signals ready once the follower parks a pull whose cursor is
// the primary's WAL frontier — it has applied everything there is.
func caughtUp(primary *node, ready chan struct{}, next http.Handler) http.Handler {
	var fired atomic.Bool
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !fired.Load() && r.URL.Path == "/v1/replication/pull" {
			q := r.URL.Query()
			seg, _ := strconv.ParseUint(q.Get("seg"), 10, 64)
			off, _ := strconv.ParseInt(q.Get("off"), 10, 64)
			cur := wal.Pos{Seg: seg, Off: off}
			atFrontier := cur == primary.log.End() || (cur.IsZero() && primary.log.Records() == 0)
			if atFrontier && q.Get("id") == followerID && fired.CompareAndSwap(false, true) {
				close(ready)
			}
		}
		next.ServeHTTP(w, r)
	})
}

func (c *cluster) bootRouter(tr *tracer) error {
	// The router's own default transport, wrapped when tracing.
	var rtTransport http.RoundTripper = &http.Transport{
		MaxIdleConns:        1024,
		MaxIdleConnsPerHost: 256,
		IdleConnTimeout:     90 * time.Second,
	}
	if tr != nil {
		rtTransport = &transport{base: rtTransport, t: tr, kind: spHop}
	}
	var shards []router.ShardConfig
	for _, n := range c.nodes {
		shards = append(shards, router.ShardConfig{Name: n.name, Endpoints: []string{n.url}})
	}
	rt, err := router.New(router.Config{
		Shards: shards, Seed: 1,
		HTTPClient: &http.Client{Transport: rtTransport},
	})
	if err != nil {
		return err
	}
	c.rt = rt
	var h http.Handler = rt.Handler()
	if tr != nil {
		h = tr.handler(spRouter, -1, h)
	}
	c.rtHS, c.target, err = serve(h)
	return err
}

// close stops everything in dependency order: the follower's pull loop
// before the primary's listener (so no long-poll is left parked), then
// listeners, servers and logs, and removes the run directory.
func (c *cluster) close() {
	if c.rtHS != nil {
		c.rtHS.Close()
	}
	if f := c.follower(); f != nil {
		f.srv.Close()
	}
	for _, n := range c.nodes {
		if n.hs != nil {
			n.hs.Close()
		}
		n.srv.Close()
		n.log.Close()
	}
	os.RemoveAll(c.dir)
}
