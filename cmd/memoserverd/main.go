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
	"repro/internal/transport"
	"repro/internal/wire"
)

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

// config is memoserverd's command line: each flag is defined once and bound
// straight onto the field of the memoserver.Config that consumes it.
type config struct {
	node         memoserver.Config
	host, listen string
	peers        peerMap
	debugAddr    string
	readyFile    string
}

func register(fs *flag.FlagSet) *config {
	c := &config{peers: peerMap{}}
	n := &c.node
	fs.StringVar(&c.host, "host", "", "this machine's logical host name (as in ADFs)")
	fs.StringVar(&c.listen, "listen", ":7440", "TCP listen address")
	fs.Var(c.peers, "peer", "logical-host=tcp-addr mapping (repeatable)")
	fs.DurationVar(&n.Resilience.Heartbeat, "heartbeat-interval", 5*time.Second, "probe receive-quiet links this often; a peer silent for 2x this is declared dead; connections silent for 3x this (at least 15s) are closed (0 disables heartbeats and the idle timeout, since blocking waits legitimately silence a connection)")
	fs.DurationVar(&n.Resilience.Redial.Min, "redial-backoff", 50*time.Millisecond, "first re-dial delay after a peer link dies; doubles per failure up to the transport cap, with jitter")
	fs.IntVar(&n.Resilience.Retries, "link-retries", 2, "transparent retries of safely-retriable forwarded calls after a link failure")
	fs.StringVar(&n.DataDir, "data-dir", "", "directory for folder-server durability (one WAL + snapshots per store); empty keeps folders in memory only")
	fs.Var(syncFlag{&n.Durable.Sync}, "fsync", "WAL sync `mode`: batch (group commit: an ack waits for the fsync covering its record) or never (trust the OS cache)")
	fs.IntVar(&n.Durable.SnapshotEvery, "snapshot-every", 0, "minimum records between WAL snapshot+truncate cycles (0 = default, negative = never)")
	fs.StringVar(&c.debugAddr, "debug-addr", "", "serve the debug endpoints (/metrics, /tracez, /debug/pprof/) on this address (e.g. localhost:6060); empty disables them")
	fs.DurationVar(&n.SlowRequestThreshold, "slow-request-threshold", 0, "record requests that take at least this long as slow (the slow section of /tracez, and a log line each), naming untraced ones with a trace ID; 0 times no request on this account")
	fs.Float64Var(&n.TraceSample, "trace-sample", 0, "span-sample this fraction of entry requests (1 = all, 0.01 = every 100th, 0 = none) into /tracez; requests another node sampled are always traced through")
	fs.StringVar(&c.readyFile, "ready-file", "", "after the listener is bound, atomically write the actual TCP address here (supports -listen :0; harnesses poll this file for readiness). With -debug-addr a second line `debug <addr>` names the debug endpoint")
	return c
}

func main() {
	log.SetPrefix("memoserverd: ")
	log.SetFlags(log.LstdFlags | log.Lmsgprefix)
	c := register(flag.CommandLine)
	flag.Parse()

	if c.host == "" {
		fmt.Fprintln(os.Stderr, "memoserverd: -host is required")
		os.Exit(2)
	}
	tcp := &transport.TCP{IdleTimeout: idleTimeout(c.node.Resilience.Heartbeat)}
	mt := &mappedTransport{inner: tcp, listen: c.listen, peers: c.peers}
	node := memoserver.NewWithDialer(c.host, mt, c.node)
	node.RegisterMetrics(obs.Default)
	obs.RegisterRuntime(obs.Default)
	// Each slow request goes to the daemon log besides the /tracez ring, so
	// operators see them without polling.
	node.Tracer().OnSlow(func(trace uint64, sp wire.Span) {
		log.Printf("slow request trace=%#x hop=%d op=%s folder=%d at=%s took=%v",
			trace, sp.Hop, sp.Op, sp.Folder, sp.Node, time.Duration(sp.Dur))
	})
	if err := node.Start(); err != nil {
		log.Fatal(err)
	}
	log.Printf("host %s listening on %s", c.host, mt.boundAddr)
	debug := c.ready(mt.boundAddr, node)

	// Serve until SIGINT/SIGTERM, then shut down in order: the debug server,
	// then the node — stop accepting, drain links, flush and close every
	// folder server's WAL. A durable deployment relies on that last step to
	// make a routine restart lose nothing.
	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	log.Printf("%v: shutting down", <-sigc)
	if debug != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		if err := debug.Shutdown(ctx); err != nil {
			log.Printf("debug server: %v", err)
		}
		cancel()
	}
	node.Close()
	log.Printf("folder state flushed; bye")
}

// idleTimeout is the TCP read deadline for heartbeat interval hb: three
// probe intervals of the slower of this daemon and its clients (which dial
// with rpc.DefaultHeartbeat), so a healthy quiet link is never cut before
// its probes arrive. Without heartbeats a blocked folder wait keeps a
// healthy connection silent, so there is no deadline at all.
func idleTimeout(hb time.Duration) time.Duration {
	if hb <= 0 {
		return 0
	}
	return 3 * max(hb, rpc.DefaultHeartbeat)
}

// ready publishes that the daemon is serving on addr. With -debug-addr it
// first starts the debug server — /metrics, /tracez and pprof on one
// listener; off by default, and when enabled, bind a loopback
// address unless you mean to expose the profiler. With -ready-file it then
// writes addr and a `debug <addr>` line (`memo top` and the e2e forensics
// scraper read the debug address from there) to a temp file and renames it,
// so a polling harness never reads a torn write.
func (c *config) ready(addr string, node *memoserver.Node) *obs.DebugServer {
	ready := addr + "\n"
	var debug *obs.DebugServer
	if c.debugAddr != "" {
		debug = obs.NewDebugServer(c.debugAddr, []*obs.Registry{obs.Default}, node.Tracer())
		if err := debug.Start(); err != nil {
			log.Fatalf("debug server: %v", err)
		}
		log.Printf("debug endpoints on %s", debug.Addr())
		ready += "debug " + debug.Addr() + "\n"
	}
	if c.readyFile == "" {
		return debug
	}
	tmp := c.readyFile + ".tmp"
	if err := os.WriteFile(tmp, []byte(ready), 0o644); err != nil {
		log.Fatalf("ready file: %v", err)
	}
	if err := os.Rename(tmp, c.readyFile); err != nil {
		log.Fatalf("ready file: %v", err)
	}
	return debug
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
