package main

import (
	"flag"
	"reflect"
	"testing"
)

// TestFlagSurface pins memoserverd's flag names and defaults as a literal
// list, so the shared registration in cmd/internal/daemon cannot add, drop
// or re-default one silently.
func TestFlagSurface(t *testing.T) {
	want := []string{
		"batch-bytes=0", "batch-max=0", "data-dir=", "debug-addr=", "fsync=batch",
		"heartbeat-interval=5s", "host=", "idle-timeout=15s", "link-retries=2", "listen=:7440",
		"no-thread-cache=false", "peer=", "ready-file=", "redial-backoff=50ms",
		"slow-request-threshold=0s", "snapshot-every=0", "trace-ring=0", "trace-sample=0",
	}
	fs := flag.NewFlagSet("memoserverd", flag.ContinueOnError)
	register(fs)
	var got []string
	fs.VisitAll(func(f *flag.Flag) { got = append(got, f.Name+"="+f.DefValue) })
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("flags\n got %q\nwant %q", got, want)
	}
}
