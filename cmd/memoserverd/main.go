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
	"flag"
	"fmt"
	"log"
	"os"
	"strings"
	"time"

	"repro/cmd/internal/daemon"
	"repro/internal/memoserver"
	"repro/internal/obs"
	"repro/internal/rpc"
	"repro/internal/transport"
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

// config is memoserverd's command line: the shared daemon flags plus its own.
type config struct {
	*daemon.Flags
	host, listen string
	peers        peerMap
	res          rpc.Resilience
}

func register(fs *flag.FlagSet) *config {
	c := &config{Flags: daemon.Register(fs, "memoserverd"), peers: peerMap{}}
	fs.StringVar(&c.host, "host", "", "this machine's logical host name (as in ADFs)")
	fs.StringVar(&c.listen, "listen", ":7440", "TCP listen address")
	fs.Var(c.peers, "peer", "logical-host=tcp-addr mapping (repeatable)")
	fs.DurationVar(&c.res.Heartbeat, "heartbeat-interval", 5*time.Second, "probe receive-quiet links this often; a peer silent for 2x this is declared dead (0 disables heartbeats; -idle-timeout then defaults off, since blocking waits legitimately silence a connection)")
	fs.DurationVar(&c.res.Redial.Min, "redial-backoff", 50*time.Millisecond, "first re-dial delay after a peer link dies; doubles per failure up to the transport cap, with jitter")
	fs.IntVar(&c.res.Retries, "link-retries", 2, "transparent retries of safely-retriable forwarded calls after a link failure")
	return c
}

func main() {
	c := register(flag.CommandLine)
	flag.Parse()

	if c.host == "" {
		fmt.Fprintln(os.Stderr, "memoserverd: -host is required")
		os.Exit(2)
	}
	idleSet := false
	flag.Visit(func(f *flag.Flag) { idleSet = idleSet || f.Name == "idle-timeout" })
	heartbeat := c.res.Heartbeat
	if !idleSet {
		// Keep the read deadline consistent with the probe rate: without
		// heartbeats a blocked folder wait keeps a healthy connection
		// silent (so no deadline at all), and with a long heartbeat
		// interval the deadline must stretch with it or it fires before
		// the first probe.
		if heartbeat <= 0 {
			c.IdleTimeout = 0
		} else if 3*heartbeat > c.IdleTimeout {
			c.IdleTimeout = 3 * heartbeat
		}
	} else if heartbeat > 0 && c.IdleTimeout > 0 && c.IdleTimeout < 2*heartbeat {
		log.Printf("warning: -idle-timeout %v < 2x -heartbeat-interval %v; healthy silent connections may be killed before their first probe", c.IdleTimeout, heartbeat)
	}

	tcp := transport.NewTCP()
	tcp.IdleTimeout = c.IdleTimeout
	mt := &mappedTransport{inner: tcp, listen: c.listen, peers: c.peers}
	node := memoserver.NewWithDialer(c.host, mt,
		memoserver.Config{
			Cache:                c.Cache,
			Batch:                c.Batch,
			Resilience:           c.res,
			DataDir:              c.DataDir,
			Durable:              c.Durable,
			SlowRequestThreshold: c.SlowThreshold,
			TraceSample:          c.TraceSample,
			TraceRingSize:        c.TraceRing,
		})
	node.RegisterMetrics(obs.Default)
	c.MirrorSlow(node.SlowLog())
	if err := node.Start(); err != nil {
		log.Fatal(err)
	}
	log.Printf("host %s listening on %s", c.host, mt.boundAddr)
	// The ready file carries the debug address too: `memo top` and the e2e
	// forensics scraper read it from there.
	c.Ready(mt.boundAddr, node.SlowLog(),
		obs.WithTraceRing(node.Tracer().Ring()),
		obs.WithLinkStatus(func() any { return node.LinkStats() }))

	// Serve until SIGINT/SIGTERM, then shut down in order: stop accepting,
	// drain links, flush and close every folder server's WAL.
	c.AwaitShutdown(nil)
	node.Close()
	log.Printf("folder state flushed; bye")
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
