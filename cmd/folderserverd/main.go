// Command folderserverd runs one standalone folder server over TCP: a
// directory of unordered queues speaking the wire protocol directly.
// Normally folder servers live inside each host's memo server (Fig. 1); a
// standalone daemon is useful for dedicating a machine to folder storage or
// for debugging the protocol with raw clients.
//
//	folderserverd -id 3 -host bonnie -listen :7441
//
// With -data-dir the directory is durable: every mutation is write-ahead
// logged (group-committed per -fsync), snapshots truncate the log, and a
// restart — clean or after a crash — recovers every acknowledged memo,
// including still-hidden put_delayed values and applied dedup tokens.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/durable"
	"repro/internal/folder"
	"repro/internal/obs"
	"repro/internal/rpc"
	"repro/internal/threadcache"
	"repro/internal/transport"
)

func main() {
	id := flag.Int("id", 0, "folder server id (from the ADF FOLDERS section)")
	host := flag.String("host", "", "logical host name")
	listen := flag.String("listen", ":7441", "TCP listen address")
	noCache := flag.Bool("no-thread-cache", false, "disable thread caching (E1 ablation)")
	shards := flag.Int("shards", 0, "store lock-stripe count, rounded up to a power of two (0 = default)")
	batchMax := flag.Int("batch-max", 0, "max requests coalesced per rpc batch frame (0 = default 64; 1 disables batching)")
	batchBytes := flag.Int("batch-bytes", 0, "max encoded bytes per rpc batch frame (0 = default 64KiB)")
	batchLinger := flag.Duration("batch-linger", 0, "upper bound a queued response waits for batch companions (0 = default 100µs)")
	idleTimeout := flag.Duration("idle-timeout", 15*time.Second, "close connections silent for this long (0 = never; rpc clients heartbeat when their receive side goes quiet, so only legacy raw-wire clients with long blocking waits need this off)")
	dataDir := flag.String("data-dir", "", "directory for durability (per-shard WAL + snapshots); empty keeps folders in memory only")
	fsync := flag.String("fsync", "batch", "WAL sync policy: batch (group commit), always (fsync per record), never (trust the OS cache)")
	snapshotEvery := flag.Int("snapshot-every", 0, "minimum records between WAL snapshot+truncate cycles (0 = default, negative = never)")
	debugAddr := flag.String("debug-addr", "", "serve the debug endpoints (/metrics, /statusz, /slowz, /debug/pprof/) on this address (e.g. localhost:6060); empty disables them")
	slowThreshold := flag.Duration("slow-request-threshold", 0, "record requests whose handling takes at least this long in the slow-request log (/slowz); 0 disables span timing")
	traceSample := flag.Float64("trace-sample", 0, "span-sample this fraction of entry requests into /tracez (1 = all, 0 = none); requests a memo server already sampled are always traced through")
	traceRing := flag.Int("trace-ring", 0, "sampled traces kept in the /tracez ring (0 = default 256)")
	readyFile := flag.String("ready-file", "", "after the listener is bound, atomically write the actual TCP address here (supports -listen :0; harnesses poll this file for readiness). With -debug-addr a second line `debug <addr>` names the debug endpoint")
	flag.Parse()

	if *host == "" {
		fmt.Fprintln(os.Stderr, "folderserverd: -host is required")
		os.Exit(2)
	}
	var opts []folder.Option
	if *shards > 0 {
		opts = append(opts, folder.WithShards(*shards))
	}
	pol := rpc.Policy{MaxCount: *batchMax, MaxBytes: *batchBytes, Linger: *batchLinger}
	cache := threadcache.Config{Disable: *noCache}
	var slow *obs.SlowLog
	if *slowThreshold > 0 {
		slow = obs.NewSlowLog(*slowThreshold, 0)
		slow.SetEmit(func(e obs.SlowEntry) {
			log.Printf("folderserverd: slow request trace=%x hop=%d op=%s folder=%d at=%s took=%v",
				e.Trace, e.Hop, e.Op, e.Folder, e.Where, e.Dur)
		})
	}
	// The tracer exists even at -trace-sample 0: a request some memo server
	// sampled upstream still collects spans here (relay-only mode).
	tracer := obs.NewTracer(fmt.Sprintf("folder-%d@%s", *id, *host), *traceSample, *traceRing)
	srvOpts := []folder.ServerOption{folder.WithBatchPolicy(pol), folder.WithSlowLog(slow), folder.WithTracer(tracer)}

	var srv *folder.Server
	if *dataDir != "" {
		syncMode, err := durable.ParseSyncMode(*fsync)
		if err != nil {
			log.Fatalf("folderserverd: %v", err)
		}
		dcfg := durable.Config{Sync: syncMode, SnapshotEvery: *snapshotEvery}
		srv, err = folder.OpenServer(*id, *host, *dataDir, dcfg, cache, opts, srvOpts...)
		if err != nil {
			log.Fatalf("folderserverd: %v", err)
		}
		st := srv.Store()
		log.Printf("folderserverd: recovered %d memos, %d hidden delayed values, %d folders from %s",
			st.MemoCount(), st.DelayedCount(), st.FolderCount(), *dataDir)
	} else {
		srv = folder.NewServer(*id, *host, folder.NewStore(opts...), cache, srvOpts...)
	}
	srv.RegisterMetrics(obs.Default)

	tcp := transport.NewTCP()
	tcp.IdleTimeout = *idleTimeout
	l, err := tcp.Listen(*listen)
	if err != nil {
		log.Fatalf("folderserverd: %v", err)
	}
	log.Printf("folderserverd: folder server %d on %s listening at %s", *id, *host, l.Addr())

	// The debug server unifies /metrics, /statusz, /slowz, /tracez, and pprof
	// on one listener: off by default, and when enabled, bind a loopback
	// address unless you mean to expose the profiler. Started before the
	// ready file is published so the file can carry the debug address too.
	var debug *obs.DebugServer
	if *debugAddr != "" {
		debug = obs.NewDebugServer(*debugAddr, []*obs.Registry{obs.Default}, slow,
			obs.WithTraceRing(tracer.Ring()))
		if err := debug.Start(); err != nil {
			log.Fatalf("folderserverd: debug server: %v", err)
		}
		log.Printf("folderserverd: debug endpoints on %s", debug.Addr())
	}
	if *readyFile != "" {
		// Publish the readiness info atomically (temp file + rename) so a
		// polling harness never reads a torn write: bound address first,
		// then `debug <addr>` when the debug server is up.
		ready := l.Addr() + "\n"
		if debug != nil {
			ready += "debug " + debug.Addr() + "\n"
		}
		tmp := *readyFile + ".tmp"
		if err := os.WriteFile(tmp, []byte(ready), 0o644); err != nil {
			log.Fatalf("folderserverd: ready file: %v", err)
		}
		if err := os.Rename(tmp, *readyFile); err != nil {
			log.Fatalf("folderserverd: ready file: %v", err)
		}
	}

	// Serve until SIGINT/SIGTERM: stop accepting, then flush and close the
	// WAL before exiting, so a routine restart loses nothing.
	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	done := make(chan error, 1)
	go func() { done <- srv.Serve(l) }()
	select {
	case sig := <-sigc:
		log.Printf("folderserverd: %v: shutting down", sig)
		l.Close()
	case err := <-done:
		log.Fatalf("folderserverd: %v", err)
	}
	if debug != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		if err := debug.Shutdown(ctx); err != nil {
			log.Printf("folderserverd: debug server: %v", err)
		}
		cancel()
	}
	srv.Close()
	log.Printf("folderserverd: folder state flushed; bye")
}
