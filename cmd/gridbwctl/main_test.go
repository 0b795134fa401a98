package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"time"

	"gridbw/internal/server"
	"gridbw/internal/trace"
	"gridbw/internal/units"
	"gridbw/internal/wal"
)

func testConfig() server.Config {
	return server.Config{
		Ingress: []units.Bandwidth{1 * units.GBps, 1 * units.GBps},
		Egress:  []units.Bandwidth{1 * units.GBps, 1 * units.GBps},
	}
}

func TestCtlUsageErrors(t *testing.T) {
	ctx := context.Background()
	for _, args := range [][]string{
		nil,
		{"frobnicate"},
		{"status"},
		{"promote"},
		{"promote", "http://a", "http://b"},
		{"watch"},
		{"watch", "-primary", "http://a"},
		{"wal-dump"},
		{"wal-dump", "-wal", "/nonexistent-wal-dir"},
	} {
		if err := run(ctx, args, &bytes.Buffer{}); err == nil {
			t.Errorf("run(%v) accepted, want usage error", args)
		}
	}
}

func TestCtlStatus(t *testing.T) {
	cfg := testConfig()
	s, err := server.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	dead := httptest.NewServer(nil)
	dead.Close()

	var out bytes.Buffer
	if err := run(context.Background(), []string{"status", ts.URL, dead.URL}, &out); err != nil {
		t.Fatal(err)
	}
	got := out.String()
	if !strings.Contains(got, ts.URL+"\tprimary\tepoch=1") {
		t.Errorf("status output missing the primary line:\n%s", got)
	}
	if !strings.Contains(got, dead.URL+"\tunreachable") {
		t.Errorf("status output missing the unreachable line:\n%s", got)
	}
}

func TestCtlPromote(t *testing.T) {
	cfg := testConfig()
	cfg.Follow = "http://127.0.0.1:0" // standby shape; never started
	s, err := server.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	var out bytes.Buffer
	if err := run(context.Background(), []string{"promote", ts.URL}, &out); err != nil {
		t.Fatal(err)
	}
	if got := out.String(); !strings.Contains(got, "primary\tepoch=2") {
		t.Errorf("promote output = %q, want role primary at epoch 2", got)
	}
	if s.Following() {
		t.Fatal("still a follower after gridbwctl promote")
	}
}

// TestCtlWatch runs the external watchdog against a real primary/standby
// pair, kills the primary, and expects watch to promote the standby,
// narrate the transitions, and exit cleanly.
func TestCtlWatch(t *testing.T) {
	primary, err := server.New(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer primary.Close()
	pts := httptest.NewServer(primary.Handler())
	defer pts.Close()

	scfg := testConfig()
	scfg.Follow = pts.URL
	standby, err := server.New(scfg)
	if err != nil {
		t.Fatal(err)
	}
	defer standby.Close()
	if err := standby.StartFollowing(); err != nil {
		t.Fatal(err)
	}
	sts := httptest.NewServer(standby.Handler())
	defer sts.Close()

	var out bytes.Buffer
	done := make(chan error, 1)
	go func() {
		done <- run(context.Background(), []string{
			"watch", "-primary", pts.URL, "-standby", sts.URL,
			"-interval", "10ms", "-misses", "2",
		}, &out)
	}()
	time.Sleep(50 * time.Millisecond) // a few healthy probes first
	pts.Close()
	primary.Close()

	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("watch returned %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("watch never promoted the standby")
	}
	if standby.Epoch() != 2 || standby.Following() {
		t.Fatalf("standby after watch: epoch %d following %v, want promoted at 2", standby.Epoch(), standby.Following())
	}
	got := out.String()
	for _, want := range []string{
		"watchdog follower -> suspect",
		"watchdog promoting -> primary",
		"is primary (epoch 2)",
	} {
		if !strings.Contains(got, want) {
			t.Errorf("watch output missing %q:\n%s", want, got)
		}
	}
}

// TestWALDumpRoundTrip: the dump of a stopped daemon's WAL parses back,
// line by line, into exactly the events the WAL holds.
func TestWALDumpRoundTrip(t *testing.T) {
	dir := t.TempDir()
	l, _, err := wal.Open(dir, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	cfg := testConfig()
	cfg.WAL = l
	s, err := server.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		d, err := s.Submit(server.Submission{From: i % 2, To: 1, Volume: 10 * units.GB, Deadline: 3600, MaxRate: 1 * units.GBps})
		if err != nil {
			t.Fatal(err)
		}
		if i == 1 {
			if _, err := s.Cancel(d.ID); err != nil {
				t.Fatal(err)
			}
		}
	}
	s.Close()
	want, _, err := server.ReadWALEvents(l, wal.Pos{})
	l.Close()
	if err != nil {
		t.Fatal(err)
	}
	if len(want) != 4 {
		t.Fatalf("WAL holds %d events, want 3 accepts and a cancel", len(want))
	}

	var out bytes.Buffer
	if err := run(context.Background(), []string{"wal-dump", "-wal", dir}, &out); err != nil {
		t.Fatal(err)
	}
	var got []trace.Event
	sc := bufio.NewScanner(&out)
	for sc.Scan() {
		var ev trace.Event
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("dump line %q: %v", sc.Text(), err)
		}
		got = append(got, ev)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("dump = %+v, want %+v", got, want)
	}
}
