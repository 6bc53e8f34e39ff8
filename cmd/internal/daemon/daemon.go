// Package daemon is what memoserverd and folderserverd have in common: the
// flags both accept, each defined once and bound straight onto the config
// struct that consumes it, and the boot and shutdown steps around their
// serving loops.
package daemon

import (
	"context"
	"flag"
	"log"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/durable"
	"repro/internal/obs"
	"repro/internal/rpc"
	"repro/internal/threadcache"
)

// Flags holds the shared command line.
type Flags struct {
	Cache         threadcache.Config // -no-thread-cache
	Batch         rpc.Policy         // -batch-max, -batch-bytes
	IdleTimeout   time.Duration
	DataDir       string
	Durable       durable.Config // -fsync, -snapshot-every
	SlowThreshold time.Duration
	TraceSample   float64
	TraceRing     int
	debugAddr     string
	readyFile     string

	debug *obs.DebugServer
}

// syncFlag parses -fsync straight into a durable.SyncMode.
type syncFlag struct{ mode *durable.SyncMode }

func (f syncFlag) String() string {
	if f.mode == nil {
		return ""
	}
	return f.mode.String()
}

func (f syncFlag) Set(s string) (err error) {
	*f.mode, err = durable.ParseSyncMode(s)
	return err
}

// Register defines the shared flags on fs and makes name (the binary's) the
// prefix of every log line.
func Register(fs *flag.FlagSet, name string) *Flags {
	log.SetPrefix(name + ": ")
	log.SetFlags(log.LstdFlags | log.Lmsgprefix)
	f := &Flags{}
	fs.BoolVar(&f.Cache.Disable, "no-thread-cache", false, "disable thread caching (E1 ablation)")
	fs.IntVar(&f.Batch.MaxCount, "batch-max", 0, "max requests coalesced per rpc batch frame (0 = default 64; 1 disables batching)")
	fs.IntVar(&f.Batch.MaxBytes, "batch-bytes", 0, "max encoded bytes per rpc batch frame (0 = default 64KiB)")
	fs.DurationVar(&f.IdleTimeout, "idle-timeout", 15*time.Second, "close connections silent for this long (0 = never); rpc clients heartbeat when their receive side goes quiet, so a healthy blocking wait does not trip it")
	fs.StringVar(&f.DataDir, "data-dir", "", "directory for folder-server durability (per-shard WAL + snapshots); empty keeps folders in memory only")
	fs.Var(syncFlag{&f.Durable.Sync}, "fsync", "WAL sync `mode`: batch (group commit), always (fsync per record), never (trust the OS cache)")
	fs.IntVar(&f.Durable.SnapshotEvery, "snapshot-every", 0, "minimum records between WAL snapshot+truncate cycles (0 = default, negative = never)")
	fs.StringVar(&f.debugAddr, "debug-addr", "", "serve the debug endpoints (/metrics, /statusz, /slowz, /tracez, /debug/pprof/) on this address (e.g. localhost:6060); empty disables them")
	fs.DurationVar(&f.SlowThreshold, "slow-request-threshold", 0, "record requests that take at least this long in the slow-request log (/slowz); 0 disables span timing")
	fs.Float64Var(&f.TraceSample, "trace-sample", 0, "span-sample this fraction of entry requests (1 = all, 0.01 = every 100th, 0 = none) into /tracez; requests another node sampled are always traced through")
	fs.IntVar(&f.TraceRing, "trace-ring", 0, "sampled traces kept in the /tracez ring (0 = default 256)")
	fs.StringVar(&f.readyFile, "ready-file", "", "after the listener is bound, atomically write the actual TCP address here (supports -listen :0; harnesses poll this file for readiness). With -debug-addr a second line `debug <addr>` names the debug endpoint")
	return f
}

// MirrorSlow copies each slow span into the daemon log besides the /slowz
// ring, so operators see them without polling. No-op on a nil log.
func (f *Flags) MirrorSlow(sl *obs.SlowLog) {
	sl.SetEmit(func(e obs.SlowEntry) {
		log.Printf("slow request trace=%x hop=%d op=%s folder=%d at=%s took=%v",
			e.Trace, e.Hop, e.Op, e.Folder, e.Where, e.Dur)
	})
}

// Ready publishes that the daemon is serving on addr. With -debug-addr it
// first starts the debug server — /metrics, /statusz, /slowz, /tracez and
// pprof on one listener; off by default, and when enabled, bind a loopback
// address unless you mean to expose the profiler. With -ready-file it then
// writes addr (and a `debug <addr>` line) to a temp file and renames it, so
// a polling harness never reads a torn write.
func (f *Flags) Ready(addr string, slow *obs.SlowLog, opts ...obs.DebugOption) {
	ready := addr + "\n"
	if f.debugAddr != "" {
		f.debug = obs.NewDebugServer(f.debugAddr, []*obs.Registry{obs.Default}, slow, opts...)
		if err := f.debug.Start(); err != nil {
			log.Fatalf("debug server: %v", err)
		}
		log.Printf("debug endpoints on %s", f.debug.Addr())
		ready += "debug " + f.debug.Addr() + "\n"
	}
	if f.readyFile == "" {
		return
	}
	tmp := f.readyFile + ".tmp"
	if err := os.WriteFile(tmp, []byte(ready), 0o644); err != nil {
		log.Fatalf("ready file: %v", err)
	}
	if err := os.Rename(tmp, f.readyFile); err != nil {
		log.Fatalf("ready file: %v", err)
	}
}

// AwaitShutdown blocks until SIGINT or SIGTERM — or a value on failed, which
// is fatal — then stops the debug server. The caller closes its server next,
// which flushes every write-ahead log: a durable deployment relies on that
// order to make a routine restart lose nothing.
func (f *Flags) AwaitShutdown(failed <-chan error) {
	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	select {
	case sig := <-sigc:
		log.Printf("%v: shutting down", sig)
	case err := <-failed:
		log.Fatal(err)
	}
	if f.debug != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		if err := f.debug.Shutdown(ctx); err != nil {
			log.Printf("debug server: %v", err)
		}
		cancel()
	}
}
