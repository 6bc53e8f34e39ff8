package main

import (
	"flag"
	"reflect"
	"testing"
)

// TestFlagSurface pins folderserverd's flag names and defaults as a literal
// list, so the shared registration in cmd/internal/daemon cannot add, drop
// or re-default one silently.
func TestFlagSurface(t *testing.T) {
	want := []string{
		"batch-bytes=0", "batch-max=0", "data-dir=", "debug-addr=", "fsync=batch",
		"host=", "id=0", "idle-timeout=15s", "listen=:7441", "no-thread-cache=false", "ready-file=",
		"shards=0", "slow-request-threshold=0s", "snapshot-every=0", "trace-ring=0", "trace-sample=0",
	}
	fs := flag.NewFlagSet("folderserverd", flag.ContinueOnError)
	register(fs)
	var got []string
	fs.VisitAll(func(f *flag.Flag) { got = append(got, f.Name+"="+f.DefValue) })
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("flags\n got %q\nwant %q", got, want)
	}
}
