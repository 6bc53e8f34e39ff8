// Package cluster boots a complete simulated D-Memo network from an
// Application Description File: one simulated host per HOSTS line, a memo
// server on each, folder servers placed per the FOLDERS section, and link
// latencies derived from the PPC costs.
//
// This package is the substitute for the paper's 1994 testbed (Sun SPARCs,
// an Encore Multimax, an i486 SVR4 host, an IBM SP-1): the behaviours under
// test — cost-weighted memo distribution, topology-restricted routing,
// thread caching, lossy domain mappings — depend on the declared ratios and
// topology, which the ADF carries, not on the physical silicon. See
// DESIGN.md §3 for the substitution argument.
package cluster

import (
	"bytes"
	"fmt"
	"sync"
	"time"

	"repro/internal/adf"
	"repro/internal/core"
	"repro/internal/durable"
	"repro/internal/memoserver"
	"repro/internal/obs"
	"repro/internal/placement"
	"repro/internal/routing"
	"repro/internal/rpc"
	"repro/internal/threadcache"
	"repro/internal/transport"
)

// Options tune a cluster boot.
type Options struct {
	// BaseLatency is the one-way delay of a cost-1 link (0 = no delay).
	BaseLatency time.Duration
	// Cache configures memo-server thread caches.
	Cache threadcache.Config
	// Lambda is the placement topology attenuation (§5, experiment E5).
	Lambda float64
	// Resilience arms the link-resilience layer on every connection:
	// heartbeats, reconnect-with-backoff on dead peer links, and bounded
	// transparent retries of safely-retriable forwarded calls (zero =
	// disabled; see rpc.Resilience).
	Resilience rpc.Resilience
	// DataDir, when non-empty, makes every folder server in the cluster
	// durable: per-host subdirectories of DataDir hold each store's one
	// write-ahead log and its snapshots, and a crashed host's memo server can
	// be restarted (RestartNode) recovering every acknowledged memo.
	DataDir string
	// Durable tunes the write-ahead logs when DataDir is set (zero =
	// durable defaults).
	Durable durable.Config
}

// Cluster is a running simulated network.
type Cluster struct {
	File *adf.File
	// Sim is the cluster's network: every memo server listens on it and
	// every connection crosses it, so tests read its traffic counters and
	// cut links with Sim.Sever.
	Sim   *transport.Sim
	Table *routing.Table
	Place *placement.Map

	opts Options

	mu    sync.Mutex
	nodes map[string]*memoserver.Node
	memos []*core.Memo
}

// Boot validates the ADF, builds the network model, starts a memo server on
// every host, and registers the application everywhere (§4.4's registration
// step, performed by the launcher).
func Boot(f *adf.File, opts Options) (*Cluster, error) {
	if err := adf.Validate(f); err != nil {
		return nil, err
	}
	g, err := f.Graph()
	if err != nil {
		return nil, err
	}
	tbl := routing.Build(g)
	place, err := placement.New(f, tbl, placement.Options{Lambda: opts.Lambda})
	if err != nil {
		return nil, err
	}

	model := transport.NewNetModel(opts.BaseLatency)
	for _, l := range f.Links {
		model.SetLink(l.From, l.To, l.Cost)
		if l.Duplex {
			model.SetLink(l.To, l.From, l.Cost)
		}
	}

	c := &Cluster{
		File:  f,
		Sim:   transport.NewSim(model),
		Table: tbl,
		Place: place,
		opts:  opts,
		nodes: make(map[string]*memoserver.Node),
	}
	for _, h := range f.Hosts {
		if _, err := c.startNode(h.Name); err != nil {
			c.Shutdown()
			return nil, err
		}
	}
	return c, nil
}

// startNode builds, starts, and registers the memo server for one host,
// installing it in the node table. Used by Boot and RestartNode.
func (c *Cluster) startNode(host string) (*memoserver.Node, error) {
	cfg := memoserver.Config{
		Cache:      c.opts.Cache,
		Lambda:     c.opts.Lambda,
		Resilience: c.opts.Resilience,
		Durable:    c.opts.Durable,
	}
	if c.opts.DataDir != "" {
		cfg.DataDir = fmt.Sprintf("%s/%s", c.opts.DataDir, host)
	}
	n := memoserver.NewWithNetwork(host, c.Sim, cfg)
	if err := n.Start(); err != nil {
		return nil, err
	}
	if err := n.RegisterApp(c.File); err != nil {
		n.Close()
		return nil, err
	}
	c.mu.Lock()
	c.nodes[host] = n
	c.mu.Unlock()
	return n, nil
}

// CrashNode hard-stops a host's memo server as SIGKILL would: every link
// and listener dies at once and durable folder stores abandon unacknowledged
// records (see memoserver.Node.Crash). The node stays in the table so its
// peers keep re-dialing its address; RestartNode brings the host back.
func (c *Cluster) CrashNode(host string) error {
	n, ok := c.Node(host)
	if !ok {
		return fmt.Errorf("cluster: unknown host %s", host)
	}
	n.Crash()
	return nil
}

// RestartNode boots a fresh memo server for a crashed (or closed) host —
// same address, same configuration, same data directory, so durable folder
// servers recover their committed state and peers' redialers reconnect.
func (c *Cluster) RestartNode(host string) (*memoserver.Node, error) {
	if _, ok := c.File.HostByName(host); !ok {
		return nil, fmt.Errorf("cluster: unknown host %s", host)
	}
	return c.startNode(host)
}

// BootADF parses and boots in one step.
func BootADF(adfText string, opts Options) (*Cluster, error) {
	f, err := adf.Parse(adfText)
	if err != nil {
		return nil, err
	}
	return Boot(f, opts)
}

// Node returns the memo server on a host.
func (c *Cluster) Node(host string) (*memoserver.Node, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	n, ok := c.nodes[host]
	return n, ok
}

// NewMemo opens an API handle for a process on the given host (Fig. 1: the
// process connects to its host's memo server).
func (c *Cluster) NewMemo(host string) (*core.Memo, error) {
	client, err := memoserver.DialClientResilient(c.Sim.DialFrom, host, c.File.App, rpc.Policy{}, c.opts.Resilience)
	if err != nil {
		return nil, err
	}
	m, err := core.Open(c.File, host, c.Place, client)
	if err != nil {
		return nil, err
	}
	c.mu.Lock()
	c.memos = append(c.memos, m)
	c.mu.Unlock()
	return m, nil
}

// ProcFunc is the body of one application process. The paper's launcher
// runs the executable built from each PROCESSES directory; here the caller
// supplies one Go function per directory name ("boss", "worker1", ...).
type ProcFunc func(p adf.Process, m *core.Memo) error

// Run launches every ADF process as a goroutine on its assigned host, using
// bodies[dir] as the program for source directory dir, and waits for all to
// finish. The first error aborts the wait result (other processes still run
// to completion).
func (c *Cluster) Run(bodies map[string]ProcFunc) error {
	var wg sync.WaitGroup
	errc := make(chan error, len(c.File.Processes))
	for _, p := range c.File.Processes {
		body, ok := bodies[p.Dir]
		if !ok {
			return fmt.Errorf("cluster: no program supplied for directory %q (process %d)", p.Dir, p.ID)
		}
		m, err := c.NewMemo(p.Host)
		if err != nil {
			return fmt.Errorf("cluster: process %d on %s: %w", p.ID, p.Host, err)
		}
		wg.Add(1)
		go func(p adf.Process, body ProcFunc, m *core.Memo) {
			defer wg.Done()
			if err := body(p, m); err != nil {
				errc <- fmt.Errorf("process %d (%s on %s): %w", p.ID, p.Dir, p.Host, err)
			}
		}(p, body, m)
	}
	wg.Wait()
	select {
	case err := <-errc:
		return err
	default:
		return nil
	}
}

// Samples reads host's node series — the node_*, folder_*, threadcache_*
// and tracer series its /metrics serves — back through obs.ParseText.
func (c *Cluster) Samples(host string) ([]obs.Sample, error) {
	n, ok := c.Node(host)
	if !ok {
		return nil, fmt.Errorf("cluster: unknown host %s", host)
	}
	reg := obs.NewRegistry()
	n.RegisterMetrics(reg)
	var b bytes.Buffer
	_ = reg.WriteProm(&b) // writing into a buffer cannot fail
	return obs.ParseText(&b)
}

// HostPutShares reports the observed fraction of puts landing on each host:
// each host's folder_puts_total over the cluster's.
func (c *Cluster) HostPutShares() map[string]float64 {
	var total float64
	perHost := make(map[string]float64)
	for _, h := range c.File.Hosts {
		samples, _ := c.Samples(h.Name) // none once Shutdown has emptied the node table
		for _, smp := range samples {
			if smp.Name == "folder_puts_total" {
				perHost[h.Name] += smp.Value
				total += smp.Value
			}
		}
	}
	if total == 0 {
		return map[string]float64{}
	}
	for h := range perHost {
		perHost[h] /= total
	}
	return perHost
}

// Shutdown stops every memo server and closes all handles.
func (c *Cluster) Shutdown() {
	c.mu.Lock()
	memos := c.memos
	c.memos = nil
	nodes := c.nodes
	c.nodes = map[string]*memoserver.Node{}
	c.mu.Unlock()
	for _, m := range memos {
		m.Close()
	}
	for _, n := range nodes {
		n.Close()
	}
}
