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
		"batch-bytes=0", "batch-max=0", "data-dir=", "debug-addr=", "fsync=batch",
		"heartbeat-interval=5s", "host=", "idle-timeout=15s", "link-retries=2", "listen=:7440",
		"no-thread-cache=false", "peer=", "ready-file=", "redial-backoff=50ms",
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

// TestFlagsBindOntoConfigs: parsed values land on the rpc, durable and
// thread-cache config fields themselves, and a bad -fsync is a parse error.
func TestFlagsBindOntoConfigs(t *testing.T) {
	fs := flag.NewFlagSet("d", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	c := register(fs)
	n := &c.node
	if n.Durable.Sync != durable.SyncBatch || c.idleTimeout != 15*time.Second {
		t.Fatalf("defaults: %+v", c)
	}
	err := fs.Parse([]string{"-fsync", "never", "-snapshot-every", "-1", "-batch-max", "3",
		"-no-thread-cache", "-idle-timeout", "0", "-link-retries", "5"})
	if err != nil {
		t.Fatal(err)
	}
	if n.Durable.Sync != durable.SyncNever || n.Durable.SnapshotEvery != -1 || n.Batch.MaxCount != 3 ||
		!n.Cache.Disable || c.idleTimeout != 0 || n.Resilience.Retries != 5 {
		t.Fatalf("parsed: %+v", c)
	}
	if err := fs.Parse([]string{"-fsync", "sometimes"}); err == nil {
		t.Fatal("-fsync sometimes accepted")
	}
}
