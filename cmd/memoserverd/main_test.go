package main

import (
	"flag"
	"io"
	"reflect"
	"testing"
	"time"

	"repro/internal/durable"
)

// TestFlagSurface pins memoserverd's flag names and defaults as a literal
// list, so register cannot add, drop or re-default one silently.
func TestFlagSurface(t *testing.T) {
	want := []string{
		"data-dir=", "debug-addr=", "fsync=batch", "heartbeat-interval=5s", "host=",
		"link-retries=2", "listen=:7440", "peer=", "ready-file=", "redial-backoff=50ms",
		"slow-request-threshold=0s", "snapshot-every=0", "trace-sample=0",
	}
	fs := flag.NewFlagSet("memoserverd", flag.ContinueOnError)
	register(fs)
	var got []string
	fs.VisitAll(func(f *flag.Flag) { got = append(got, f.Name+"="+f.DefValue) })
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("flags\n got %q\nwant %q", got, want)
	}
}

// TestFlagsBindOntoConfigs: parsed values land on the rpc and durable config
// fields themselves, and a bad -fsync (the removed "always" included) is a
// parse error.
func TestFlagsBindOntoConfigs(t *testing.T) {
	fs := flag.NewFlagSet("d", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	c := register(fs)
	n := &c.node
	if n.Durable.Sync != durable.SyncBatch {
		t.Fatalf("defaults: %+v", c)
	}
	err := fs.Parse([]string{"-fsync", "never", "-snapshot-every", "-1", "-link-retries", "5",
		"-heartbeat-interval", "1s"})
	if err != nil {
		t.Fatal(err)
	}
	if n.Durable.Sync != durable.SyncNever || n.Durable.SnapshotEvery != -1 ||
		n.Resilience.Retries != 5 || n.Resilience.Heartbeat != time.Second {
		t.Fatalf("parsed: %+v", c)
	}
	for _, bad := range []string{"sometimes", "always"} {
		if err := fs.Parse([]string{"-fsync", bad}); err == nil {
			t.Fatalf("-fsync %s accepted", bad)
		}
	}
}

// TestIdleTimeoutFollowsHeartbeat: the read deadline is three probe
// intervals of the slower prober — the daemon or a client at
// rpc.DefaultHeartbeat — and off with heartbeats off.
func TestIdleTimeoutFollowsHeartbeat(t *testing.T) {
	for _, tc := range []struct{ hb, want time.Duration }{
		{0, 0},
		{250 * time.Millisecond, 15 * time.Second},
		{5 * time.Second, 15 * time.Second},
		{10 * time.Second, 30 * time.Second},
	} {
		if got := idleTimeout(tc.hb); got != tc.want {
			t.Errorf("idleTimeout(%v) = %v, want %v", tc.hb, got, tc.want)
		}
	}
}
