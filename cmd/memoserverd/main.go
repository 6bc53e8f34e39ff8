// Command memoserverd runs a standalone memo server over real TCP — the
// per-machine system service of §4.1/§4.4. Application launchers register
// ADFs with it over the wire protocol (wire.OpRegister); folder requests
// are served locally or forwarded to peer memo servers.
//
// In the paper the inetd daemon started memo servers on demand; here an
// operator (or a process manager) starts one per machine:
//
//	memoserverd -host glen-ellyn -listen :7440
//
// The -host name must match the HOSTS entry that applications' ADFs use for
// this machine, and -peer maps remote host names to their TCP addresses
// (the simulation uses logical names; TCP needs real addresses).
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/durable"
	"repro/internal/memoserver"
	"repro/internal/obs"
	"repro/internal/rpc"
	"repro/internal/threadcache"
	"repro/internal/transport"
)

// flagSet reports whether the named flag was given on the command line.
func flagSet(name string) bool {
	set := false
	flag.Visit(func(f *flag.Flag) {
		if f.Name == name {
			set = true
		}
	})
	return set
}

// peerMap resolves logical host names to TCP addresses.
type peerMap map[string]string

func (p peerMap) String() string {
	parts := make([]string, 0, len(p))
	for k, v := range p {
		parts = append(parts, k+"="+v)
	}
	return strings.Join(parts, ",")
}

func (p peerMap) Set(s string) error {
	k, v, ok := strings.Cut(s, "=")
	if !ok {
		return fmt.Errorf("want host=addr, got %q", s)
	}
	p[k] = v
	return nil
}

func main() {
	host := flag.String("host", "", "this machine's logical host name (as in ADFs)")
	listen := flag.String("listen", ":7440", "TCP listen address")
	peers := peerMap{}
	flag.Var(peers, "peer", "logical-host=tcp-addr mapping (repeatable)")
	noCache := flag.Bool("no-thread-cache", false, "disable thread caching (E1 ablation)")
	batchMax := flag.Int("batch-max", 0, "max requests coalesced per rpc batch frame (0 = default 64; 1 disables batching)")
	batchBytes := flag.Int("batch-bytes", 0, "max encoded bytes per rpc batch frame (0 = default 64KiB)")
	batchLinger := flag.Duration("batch-linger", 0, "upper bound a queued request waits for batch companions (0 = default 100µs)")
	heartbeat := flag.Duration("heartbeat-interval", 5*time.Second, "probe receive-quiet links this often; a peer silent for 2x this is declared dead (0 disables heartbeats)")
	idleTimeout := flag.Duration("idle-timeout", 15*time.Second, "close connections silent for this long (0 = never; defaults off when heartbeats are disabled, since blocking waits legitimately silence a connection)")
	redialMin := flag.Duration("redial-backoff", 50*time.Millisecond, "first re-dial delay after a peer link dies; doubles per failure up to the transport cap, with jitter")
	retries := flag.Int("link-retries", 2, "transparent retries of safely-retriable forwarded calls after a link failure")
	dataDir := flag.String("data-dir", "", "directory for folder-server durability (per-shard WAL + snapshots); empty keeps folders in memory only")
	fsync := flag.String("fsync", "batch", "WAL sync policy: batch (group commit), always (fsync per record), never (trust the OS cache)")
	snapshotEvery := flag.Int("snapshot-every", 0, "minimum records between WAL snapshot+truncate cycles (0 = default, negative = never)")
	debugAddr := flag.String("debug-addr", "", "serve the debug endpoints (/metrics, /statusz, /slowz, /debug/pprof/) on this address (e.g. localhost:6060); empty disables them")
	slowThreshold := flag.Duration("slow-request-threshold", 0, "record requests whose dispatch takes at least this long in the slow-request log (/slowz); 0 disables span timing")
	traceSample := flag.Float64("trace-sample", 0, "span-sample this fraction of entry requests (1 = all, 0.01 = every 100th, 0 = none); sampled requests collect per-layer spans at every hop into /tracez. Requests another node sampled are always traced through")
	traceRing := flag.Int("trace-ring", 0, "sampled traces kept in the /tracez ring (0 = default 256)")
	readyFile := flag.String("ready-file", "", "after the listener is bound, atomically write the actual TCP address here (supports -listen :0; harnesses poll this file for readiness). With -debug-addr a second line `debug <addr>` names the debug endpoint")
	flag.Parse()

	if *host == "" {
		fmt.Fprintln(os.Stderr, "memoserverd: -host is required")
		os.Exit(2)
	}
	if !flagSet("idle-timeout") {
		// Keep the read deadline consistent with the probe rate: without
		// heartbeats a blocked folder wait keeps a healthy connection
		// silent (so no deadline at all), and with a long heartbeat
		// interval the deadline must stretch with it or it fires before
		// the first probe.
		if *heartbeat <= 0 {
			*idleTimeout = 0
		} else if 3**heartbeat > *idleTimeout {
			*idleTimeout = 3 * *heartbeat
		}
	} else if *heartbeat > 0 && *idleTimeout > 0 && *idleTimeout < 2**heartbeat {
		log.Printf("memoserverd: warning: -idle-timeout %v < 2x -heartbeat-interval %v; healthy silent connections may be killed before their first probe", *idleTimeout, *heartbeat)
	}

	syncMode, err := durable.ParseSyncMode(*fsync)
	if err != nil {
		log.Fatalf("memoserverd: %v", err)
	}

	tcp := transport.NewTCP()
	tcp.IdleTimeout = *idleTimeout
	mt := &mappedTransport{inner: tcp, listen: *listen, peers: peers}
	node := memoserver.NewWithDialer(*host, mt,
		memoserver.Config{
			Cache:       threadcache.Config{Disable: *noCache},
			FolderCache: threadcache.Config{Disable: *noCache},
			Batch:       rpc.Policy{MaxCount: *batchMax, MaxBytes: *batchBytes, Linger: *batchLinger},
			Resilience: rpc.Resilience{
				Heartbeat: *heartbeat,
				Redial:    transport.Backoff{Min: *redialMin},
				Retries:   *retries,
			},
			DataDir:              *dataDir,
			Durable:              durable.Config{Sync: syncMode, SnapshotEvery: *snapshotEvery},
			SlowRequestThreshold: *slowThreshold,
			TraceSample:          *traceSample,
			TraceRingSize:        *traceRing,
		})
	node.RegisterMetrics(obs.Default)
	if sl := node.SlowLog(); sl != nil {
		// Besides the /slowz ring, mirror each slow span into the daemon log
		// so operators see them without polling.
		sl.SetEmit(func(e obs.SlowEntry) {
			log.Printf("memoserverd: slow request trace=%x hop=%d op=%s folder=%d at=%s took=%v",
				e.Trace, e.Hop, e.Op, e.Folder, e.Where, e.Dur)
		})
	}
	if err := node.Start(); err != nil {
		log.Fatalf("memoserverd: %v", err)
	}
	log.Printf("memoserverd: host %s listening on %s", *host, mt.boundAddr)

	// The debug server unifies /metrics, /statusz, /slowz, /tracez, and pprof
	// on one listener: off by default, and when enabled, bind a loopback
	// address unless you mean to expose the profiler. Started before the
	// ready file is published so the file can carry the debug address too
	// (`memo top` and the e2e forensics scraper read it from there).
	var debug *obs.DebugServer
	if *debugAddr != "" {
		debug = obs.NewDebugServer(*debugAddr, []*obs.Registry{obs.Default}, node.SlowLog(),
			obs.WithTraceRing(node.Tracer().Ring()),
			obs.WithLinkStatus(func() any { return node.LinkStats() }))
		if err := debug.Start(); err != nil {
			log.Fatalf("memoserverd: debug server: %v", err)
		}
		log.Printf("memoserverd: debug endpoints on %s", debug.Addr())
	}
	if *readyFile != "" {
		ready := mt.boundAddr + "\n"
		if debug != nil {
			ready += "debug " + debug.Addr() + "\n"
		}
		if err := writeReadyFile(*readyFile, ready); err != nil {
			log.Fatalf("memoserverd: %v", err)
		}
	}

	// Serve until SIGINT/SIGTERM, then shut down in order: stop accepting,
	// drain links, flush and close every folder server's WAL. A durable
	// deployment relies on this to make a routine restart lose nothing.
	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	sig := <-sigc
	log.Printf("memoserverd: %v: shutting down", sig)
	if debug != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		if err := debug.Shutdown(ctx); err != nil {
			log.Printf("memoserverd: debug server: %v", err)
		}
		cancel()
	}
	node.Close()
	log.Printf("memoserverd: folder state flushed; bye")
}

// writeReadyFile publishes the daemon's readiness info atomically: write to
// a temp file, then rename, so a polling harness never reads a torn write.
// The first line is the bound TCP address; optional further lines carry
// `key value` extras (currently `debug <addr>`).
func writeReadyFile(path, content string) error {
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, []byte(content), 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}

// mappedTransport lets the memo server use logical addresses ("host/memo")
// over TCP by mapping the host part through the peer table.
type mappedTransport struct {
	inner  *transport.TCP
	listen string
	peers  peerMap

	// boundAddr is the actual TCP address after Listen — with "-listen :0"
	// this is the only place the chosen port is visible.
	boundAddr string
}

func (t *mappedTransport) Listen(addr string) (transport.Listener, error) {
	// The node asks to listen on "host/memo"; bind the configured TCP port.
	l, err := t.inner.Listen(t.listen)
	if err != nil {
		return nil, err
	}
	t.boundAddr = l.Addr()
	return l, nil
}

func (t *mappedTransport) Dial(addr string) (transport.Conn, error) {
	host := transport.HostOf(addr)
	real, ok := t.peers[host]
	if !ok {
		return nil, fmt.Errorf("memoserverd: no -peer mapping for host %q", host)
	}
	return t.inner.Dial(real)
}

func (t *mappedTransport) Name() string { return "tcp-mapped" }
