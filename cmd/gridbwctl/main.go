// Command gridbwctl is the failover operations tool for a gridbwd
// replication group. It is the out-of-process counterpart of the
// daemon's -watch flag: the same cluster.Watchdog, run from an operator
// box (or a third machine, where it doubles as an external arbiter).
//
//	gridbwctl status  http://a:8080 http://b:8081     replication view of each endpoint
//	gridbwctl promote http://b:8081                   promote a standby by hand
//	gridbwctl watch -primary http://a:8080 -standby http://b:8081
//	                                                  probe the primary, auto-promote the standby
//	gridbwctl watch -primary http://a:8080 -standby http://b:8081 \
//	    -peers http://a:8080,http://c:8082            majority-gated: promote only with peer votes
//	gridbwctl watch -resume -endpoints http://a:8080,http://b:8081,http://c:8082
//	                                                  guard the group across successive failovers
//	gridbwctl wal-dump -wal waldir                    print a stopped daemon's WAL as JSON lines
//
// Without -resume, watch exits 0 once the standby is primary — whether
// this watchdog promoted it or found it already promoted — so it can
// anchor a supervise-and-restart loop. With -resume it re-arms against
// the rediscovered group after each failover and only stops on a signal.
//
// wal-dump is the audit trail: every decision event in a WAL directory,
// one JSON object per line. Opening a WAL repairs a torn tail in place,
// so point it only at a stopped daemon's directory, as with gridbwcheck.
// A running daemon's audit stream is GET /v1/replication/pull without an
// id parameter, which reads the log without recording a follower ack.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"sort"
	"strings"
	"syscall"
	"time"

	"gridbw/internal/cluster"
	"gridbw/internal/server"
	"gridbw/internal/server/client"
	"gridbw/internal/wal"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "gridbwctl:", err)
		os.Exit(1)
	}
}

func run(ctx context.Context, args []string, out io.Writer) error {
	if len(args) == 0 {
		return errors.New("usage: gridbwctl <status|promote|watch|wal-dump> ...")
	}
	switch args[0] {
	case "status":
		return runStatus(ctx, args[1:], out)
	case "promote":
		return runPromote(ctx, args[1:], out)
	case "watch":
		return runWatch(ctx, args[1:], out)
	case "wal-dump":
		return runWALDump(args[1:], out)
	default:
		return fmt.Errorf("unknown command %q (want status, promote, watch or wal-dump)", args[0])
	}
}

// runWALDump prints every decision event in a stopped daemon's WAL
// directory as JSON lines.
func runWALDump(args []string, out io.Writer) error {
	fset := flag.NewFlagSet("wal-dump", flag.ContinueOnError)
	dir := fset.String("wal", "", "WAL directory of a stopped gridbwd")
	if err := fset.Parse(args); err != nil {
		return err
	}
	if *dir == "" || fset.NArg() != 0 {
		return errors.New("usage: gridbwctl wal-dump -wal DIR")
	}
	// wal.Open creates a missing directory; a typo must not dump an empty
	// log as if it were the audit trail.
	if _, err := os.Stat(*dir); err != nil {
		return err
	}
	l, _, err := wal.Open(*dir, wal.Options{})
	if err != nil {
		return err
	}
	defer l.Close()
	events, _, err := server.ReadWALEvents(l, wal.Pos{})
	if err != nil {
		return err
	}
	enc := json.NewEncoder(out)
	for _, ev := range events {
		if err := enc.Encode(ev); err != nil {
			return err
		}
	}
	return nil
}

// runStatus prints one line per endpoint: role, epoch, cursor and lag.
// Unreachable endpoints are reported, not fatal — during a failover that
// is exactly the interesting case.
func runStatus(ctx context.Context, args []string, out io.Writer) error {
	if len(args) == 0 {
		return errors.New("usage: gridbwctl status <url>...")
	}
	for _, base := range args {
		c := client.NewWithOptions(base, nil, client.Options{MaxRetries: -1})
		rs, err := c.Replication(ctx)
		if err != nil {
			fmt.Fprintf(out, "%s\tunreachable\t%v\n", base, err)
			continue
		}
		line := fmt.Sprintf("%s\t%s\tepoch=%d\tcursor=%d/%d\tapplied=%d\tlag=%dB",
			base, rs.Role, rs.Epoch, rs.Cursor.Seg, rs.Cursor.Off, rs.Applied, rs.LagBytes)
		if rs.ID != "" {
			line += "\tid=" + rs.ID
		}
		if rs.SyncMode != "" && rs.SyncMode != "off" {
			line += fmt.Sprintf("\tsync=%s/%d", rs.SyncMode, rs.SyncAcks)
		}
		if rs.VotedEpoch != 0 {
			line += fmt.Sprintf("\tvoted=%s@%d", rs.VotedFor, rs.VotedEpoch)
		}
		if rs.LastError != "" {
			line += "\terr=" + rs.LastError
		}
		fmt.Fprintln(out, line)
		// A primary also carries its follower ack table: one indented line
		// per pulling follower, the live view of the replication quorum.
		ids := make([]string, 0, len(rs.Followers))
		for id := range rs.Followers {
			ids = append(ids, id)
		}
		sort.Strings(ids)
		for _, id := range ids {
			f := rs.Followers[id]
			fmt.Fprintf(out, "  follower %s\tcursor=%d/%d\tlag=%dB\tage=%.1fs\n",
				id, f.Cursor.Seg, f.Cursor.Off, f.LagBytes, f.AgeS)
		}
	}
	return nil
}

// runPromote promotes one standby and prints the resulting role/epoch.
// Idempotent by the daemon's contract: promoting a primary answers its
// current epoch.
func runPromote(ctx context.Context, args []string, out io.Writer) error {
	if len(args) != 1 {
		return errors.New("usage: gridbwctl promote <url>")
	}
	c := client.New(args[0], nil)
	pr, err := c.Promote(ctx)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "%s\t%s\tepoch=%d\n", args[0], pr.Role, pr.Epoch)
	return nil
}

// runWatch runs the failover watchdog over HTTP until the standby is
// primary or ctx is cancelled — or, with -resume, until ctx alone: after
// each completed failover the watchdog re-arms against the rediscovered
// group and keeps guarding it.
func runWatch(ctx context.Context, args []string, out io.Writer) error {
	fset := flag.NewFlagSet("gridbwctl watch", flag.ContinueOnError)
	primary := fset.String("primary", "", "base URL of the primary to probe (optional with -resume: discovered from -endpoints)")
	standby := fset.String("standby", "", "base URL of the standby to promote (optional with -resume: discovered from -endpoints)")
	interval := fset.Duration("interval", 0, "probe period (0 = 2s, jittered ±25%)")
	misses := fset.Int("misses", 0, "consecutive probe misses before suspecting the primary (0 = 3)")
	maxLag := fset.Int64("max-lag", 0, "replication lag in bytes beyond which promotion is held (0 = 1 MiB, negative = unbounded)")
	peers := fset.String("peers", "", "comma-separated base URLs of the group members that vote on promotion (every member but the standby); empty = legacy single-arbiter")
	candidate := fset.String("candidate", "", "replication id presented in vote requests when the standby reports none")
	resume := fset.Bool("resume", false, "re-arm against the rediscovered group after each failover instead of exiting; requires -endpoints")
	endpoints := fset.String("endpoints", "", "comma-separated base URLs of every group member, for -resume role rediscovery")
	if err := fset.Parse(args); err != nil {
		return err
	}
	eps := splitList(*endpoints)
	if *resume && len(eps) < 2 {
		return errors.New("watch -resume needs -endpoints with at least two group members")
	}
	if *primary == "" || *standby == "" {
		if !*resume {
			return errors.New("watch needs -primary and -standby (or -resume with -endpoints)")
		}
		p, s, err := discoverRoles(ctx, eps)
		if err != nil {
			return err
		}
		if *primary == "" {
			*primary = p
		}
		if *standby == "" {
			*standby = s
		}
		fmt.Fprintf(out, "discovered primary %s, standby %s\n", *primary, *standby)
	}
	votePeers := splitList(*peers)
	if *resume && len(votePeers) == 0 {
		// In resume mode the group is known: everyone but the candidate votes.
		for _, ep := range eps {
			if ep != *standby {
				votePeers = append(votePeers, ep)
			}
		}
	}
	wd, err := cluster.New(cluster.Config{
		Primary: *primary, Standby: *standby,
		Interval: *interval, Misses: *misses, MaxLagBytes: *maxLag,
		VotePeers: votePeers, Candidate: *candidate,
		Resume: *resume, Endpoints: eps,
		OnTransition: func(from, to cluster.State, in cluster.Input) {
			fmt.Fprintf(out, "%s\twatchdog %s -> %s on %s\n", time.Now().Format(time.RFC3339), from, to, in)
		},
	})
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "watching %s (standby %s, %d vote peers)\n", *primary, *standby, len(votePeers))
	if err := wd.Run(ctx); err != nil {
		return err
	}
	fmt.Fprintf(out, "standby %s is primary (epoch %d)\n", *standby, wd.Status().Epoch)
	return nil
}

// discoverRoles finds the group's current primary (highest epoch wins)
// and most caught-up follower over the endpoint list.
func discoverRoles(ctx context.Context, eps []string) (primary, standby string, err error) {
	var primaryEpoch uint64
	var standbyCursor wal.Pos
	reachable := 0
	for _, ep := range eps {
		c := client.NewWithOptions(ep, nil, client.Options{MaxRetries: -1})
		rs, rerr := c.Replication(ctx)
		if rerr != nil {
			continue
		}
		reachable++
		switch rs.Role {
		case "primary":
			if primary == "" || rs.Epoch > primaryEpoch {
				primary, primaryEpoch = ep, rs.Epoch
			}
		case "follower":
			if standby == "" || standbyCursor.Less(rs.Cursor) {
				standby, standbyCursor = ep, rs.Cursor
			}
		}
	}
	if primary == "" {
		return "", "", fmt.Errorf("no primary among %d reachable of %d endpoints", reachable, len(eps))
	}
	if standby == "" {
		return "", "", fmt.Errorf("no follower to guard among %d reachable endpoints", reachable)
	}
	return primary, standby, nil
}

// splitList parses a comma-separated URL list into trimmed entries.
func splitList(list string) []string {
	var out []string
	for _, part := range strings.Split(list, ",") {
		if p := strings.TrimSpace(part); p != "" {
			out = append(out, strings.TrimRight(p, "/"))
		}
	}
	return out
}
