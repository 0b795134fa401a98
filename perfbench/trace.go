package main

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"net/http"
	"os"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"gridbw/internal/wal"
)

// Tracing from outside the program. Spans are recorded only at public
// seams, by this package's own wrappers:
//
//	client   around each call into internal/server/client
//	net      the client's http.RoundTripper (request sent → body closed)
//	router   middleware around Router.Handler()
//	hop      the router's Config.HTTPClient transport (router → shard)
//	server   middleware around Server.Handler(), one per node
//	wal      the wal.FS of each node's log: every Write and Sync
//
// A request ID travels in reqHeader, set by the benchmark's transports
// from the request context; the router middleware puts it back into the
// context so the router's shard calls carry it on. WAL spans carry no ID
// (the log has no request context): they are parented by time
// containment inside a handler span of the same node.
//
// Spans stay in memory while the run lasts and are written out at the end.

const reqHeader = "X-Bench-Req"

type spanKind uint8

const (
	spClient spanKind = iota
	spNet
	spRouter
	spHop
	spServer
	spWALWrite
	spWALSync
)

var spanNames = [...]string{"client", "net", "router", "hop", "server", "wal.write", "wal.fsync"}

// Routes a handler span can carry.
const (
	rtOther uint8 = iota
	rtSubmit
	rtBatch
	rtGet
	rtCancel
	rtHealth
	rtReserve
	rtConfirm
	rtAbort
	rtPull
	numRoutes
)

var routeNames = [numRoutes]string{"other", "submit", "batch", "get", "cancel", "healthz", "reserve", "confirm", "abort", "pull"}

func classify(r *http.Request) uint8 {
	p := r.URL.Path
	switch {
	case p == "/v1/requests" && r.Method == http.MethodPost:
		return rtSubmit
	case p == "/v1/batch":
		return rtBatch
	case strings.HasPrefix(p, "/v1/requests/") && r.Method == http.MethodGet:
		return rtGet
	case strings.HasPrefix(p, "/v1/requests/") && r.Method == http.MethodDelete:
		return rtCancel
	case p == "/v1/healthz":
		return rtHealth
	case p == "/v1/reserve":
		return rtReserve
	case p == "/v1/confirm":
		return rtConfirm
	case p == "/v1/abort":
		return rtAbort
	case p == "/v1/replication/pull":
		return rtPull
	}
	return rtOther
}

type span struct {
	start, end int64 // ns since the tracer's epoch
	req        uint64
	bytes      int64 // wal: bytes written; net: request body bytes
	respBytes  int64 // net: response body bytes
	kind       spanKind
	route      uint8
	node       int8 // -1 for spans outside any node
}

func (s span) dur() int64 { return s.end - s.start }

type tracer struct {
	on atomic.Bool
	t0 time.Time

	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) now() int64 { return int64(time.Since(t.t0)) }

func (t *tracer) add(s span) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

type reqIDKey struct{}

func withReqID(ctx context.Context, id uint64) context.Context {
	return context.WithValue(ctx, reqIDKey{}, id)
}

func reqIDFrom(ctx context.Context) uint64 {
	id, _ := ctx.Value(reqIDKey{}).(uint64)
	return id
}

// handler wraps a node's or the router's HTTP handler with a span per
// request. kind is spServer or spRouter.
func (t *tracer) handler(kind spanKind, node int8, next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !t.on.Load() {
			next.ServeHTTP(w, r)
			return
		}
		id, _ := strconv.ParseUint(r.Header.Get(reqHeader), 10, 64)
		if kind == spRouter && id != 0 {
			r = r.WithContext(withReqID(r.Context(), id))
		}
		s := span{kind: kind, node: node, req: id, route: classify(r), start: t.now()}
		next.ServeHTTP(w, r)
		s.end = t.now()
		t.add(s)
	})
}

// transport wraps a RoundTripper: it stamps the context's request ID on
// the outgoing request and records a span from send to body close. kind
// is spNet (benchmark client) or spHop (router to shard).
type transport struct {
	base http.RoundTripper
	t    *tracer
	kind spanKind
}

func (tr *transport) RoundTrip(req *http.Request) (*http.Response, error) {
	if !tr.t.on.Load() {
		return tr.base.RoundTrip(req)
	}
	id := reqIDFrom(req.Context())
	if id != 0 {
		req = req.Clone(req.Context())
		req.Header.Set(reqHeader, strconv.FormatUint(id, 10))
	}
	s := span{kind: tr.kind, node: -1, req: id, route: classify(req), start: tr.t.now()}
	if req.ContentLength > 0 {
		s.bytes = req.ContentLength
	}
	resp, err := tr.base.RoundTrip(req)
	if err != nil {
		s.end = tr.t.now()
		tr.t.add(s)
		return nil, err
	}
	resp.Body = &spanBody{ReadCloser: resp.Body, t: tr.t, s: s}
	return resp, nil
}

// spanBody ends its span when the caller closes the response body.
type spanBody struct {
	io.ReadCloser
	t    *tracer
	s    span
	once sync.Once
}

func (b *spanBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	b.s.respBytes += int64(n)
	return n, err
}

func (b *spanBody) Close() error {
	err := b.ReadCloser.Close()
	b.once.Do(func() {
		b.s.end = b.t.now()
		b.t.add(b.s)
	})
	return err
}

// timedFS is the wal.FS seam: it times every Write and Sync of the files
// the log opens for appending.
type timedFS struct {
	wal.FS
	t    *tracer
	node int8
}

func (f timedFS) OpenFile(name string, flag int, perm os.FileMode) (wal.File, error) {
	fl, err := f.FS.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return &timedFile{File: fl, t: f.t, node: f.node}, nil
}

func (f timedFS) Create(name string) (wal.File, error) {
	fl, err := f.FS.Create(name)
	if err != nil {
		return nil, err
	}
	return &timedFile{File: fl, t: f.t, node: f.node}, nil
}

type timedFile struct {
	wal.File
	t    *tracer
	node int8
}

func (f *timedFile) Write(p []byte) (int, error) {
	if !f.t.on.Load() {
		return f.File.Write(p)
	}
	s := span{kind: spWALWrite, node: f.node, start: f.t.now()}
	n, err := f.File.Write(p)
	s.end, s.bytes = f.t.now(), int64(n)
	f.t.add(s)
	return n, err
}

func (f *timedFile) Sync() error {
	if !f.t.on.Load() {
		return f.File.Sync()
	}
	s := span{kind: spWALSync, node: f.node, start: f.t.now()}
	err := f.File.Sync()
	s.end = f.t.now()
	f.t.add(s)
	return err
}

// writeSpans writes spans as JSON Lines with their derived parents: the
// index (line number, from 0) of the enclosing span, or -1.
func writeSpans(path string, spans []span, parents []int, nodeNames []string) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	w := bufio.NewWriter(f)
	for i, s := range spans {
		node := ""
		if s.node >= 0 && int(s.node) < len(nodeNames) {
			node = nodeNames[s.node]
		}
		name := spanNames[s.kind]
		if s.kind == spServer || s.kind == spRouter || s.kind == spNet || s.kind == spHop {
			name += "." + routeNames[s.route]
		}
		fmt.Fprintf(w, `{"i":%d,"name":%q,"node":%q,"req":%d,"parent":%d,"start_ns":%d,"end_ns":%d,"bytes":%d,"resp_bytes":%d}`+"\n",
			i, name, node, s.req, parents[i], s.start, s.end, s.bytes, s.respBytes)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("write spans: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	return nil
}
