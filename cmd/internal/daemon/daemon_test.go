package daemon

import (
	"flag"
	"io"
	"testing"
	"time"

	"repro/internal/durable"
)

// TestFlagsBindOntoConfigs: parsed values land on the rpc, durable and
// thread-cache config fields themselves, and a bad -fsync is a parse error.
func TestFlagsBindOntoConfigs(t *testing.T) {
	fs := flag.NewFlagSet("d", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	f := Register(fs, "d")
	if f.Durable.Sync != durable.SyncBatch || f.IdleTimeout != 15*time.Second {
		t.Fatalf("defaults: %+v", f)
	}
	err := fs.Parse([]string{"-fsync", "never", "-snapshot-every", "-1", "-batch-max", "3",
		"-no-thread-cache", "-idle-timeout", "0"})
	if err != nil {
		t.Fatal(err)
	}
	if f.Durable.Sync != durable.SyncNever || f.Durable.SnapshotEvery != -1 || f.Batch.MaxCount != 3 ||
		!f.Cache.Disable || f.IdleTimeout != 0 {
		t.Fatalf("parsed: %+v", f)
	}
	if err := fs.Parse([]string{"-fsync", "sometimes"}); err == nil {
		t.Fatal("-fsync sometimes accepted")
	}
}
