package memoserver

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"testing"
	"time"

	"repro/internal/adf"
	"repro/internal/folder"
	"repro/internal/obs"
	"repro/internal/symbol"
	"repro/internal/threadcache"
	"repro/internal/transport"
	"repro/internal/wire"
)

// exposition renders regs as a daemon's /metrics serves them and reads the
// samples back.
func exposition(regs ...*obs.Registry) []obs.Sample {
	var b bytes.Buffer
	for _, r := range regs {
		if err := r.WriteProm(&b); err != nil {
			panic(err)
		}
	}
	samples, err := obs.ParseText(&b)
	if err != nil {
		panic(err)
	}
	return samples
}

// folderSeries is fs's value of one folder_* series, read back from fs's
// own exposition (the samples labeled with its folder_server id).
func folderSeries(fs *folder.Server, series string) int {
	reg := obs.NewRegistry()
	reg.RegisterCollector(fs.Collect)
	return int(obs.Sum(exposition(reg), series))
}

// poolRuns is the number of tasks p has run — its threadcache_spawned_total
// plus threadcache_reused_total — read back from p's own exposition.
func poolRuns(p *threadcache.Pool) int64 {
	reg := obs.NewRegistry()
	reg.RegisterCollector(p.Collect)
	samples := exposition(reg)
	return int64(obs.Sum(samples, "threadcache_spawned_total") + obs.Sum(samples, "threadcache_reused_total"))
}

// nodeExposition is n's own series — the node_*, folder_*, threadcache_*
// and tracer series memoserverd serves beside obs.Default — read back.
func nodeExposition(n *Node) []obs.Sample {
	reg := obs.NewRegistry()
	n.RegisterMetrics(reg)
	return exposition(reg)
}

// bootTCPPair starts the twoHostADF cluster over real TCP sockets with the
// given config and returns the nodes (a, b order) plus a wire client per
// host, all registered.
func bootTCPPair(t *testing.T, cfg Config) ([]*Node, []*Client) {
	t.Helper()
	net := newTCPMapped()
	f, err := adf.Parse(twoHostADF)
	if err != nil {
		t.Fatal(err)
	}
	var nodes []*Node
	for _, h := range f.Hosts {
		n := NewWithDialer(h.Name, net, cfg)
		if err := n.Start(); err != nil {
			t.Fatal(err)
		}
		nodes = append(nodes, n)
	}
	t.Cleanup(func() {
		for _, n := range nodes {
			n.Close()
		}
	})
	dial := func(_, addr string) (transport.Conn, error) { return net.Dial(addr) }
	clients := make([]*Client, len(f.Hosts))
	for i, h := range f.Hosts {
		c, err := dialClient(dial, h.Name, f.App)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { c.Close() })
		if err := c.Register(adf.Format(f)); err != nil {
			t.Fatalf("register on %s: %v", h.Name, err)
		}
		clients[i] = c
	}
	return nodes, clients
}

// slowSample returns the node's slow sample whose own span (the one this
// node's dispatch stamped) is op, failing the test unless there is exactly
// one.
func slowSample(t *testing.T, n *Node, op wire.Op) obs.TraceSample {
	t.Helper()
	var found []obs.TraceSample
	for _, ts := range n.Tracer().Slow.Get(0) {
		for _, sp := range ts.Spans {
			if sp.Node == "memo@"+n.Host && sp.Layer == "memo" && sp.Op == op.String() {
				found = append(found, ts)
			}
		}
	}
	if len(found) != 1 {
		t.Fatalf("host %s holds %d slow %s samples, want 1: %+v", n.Host, len(found), op, n.Tracer().Slow.Get(0))
	}
	return found[0]
}

// TestTracePropagation puts from host b into a folder on host a — a
// two-hop path (client → memo b → memo a → folder 0) — with a threshold low
// enough to record everything. A plain client's request is named by its
// entry node and the name rides the forward; a client that names its own
// request (EnableSampling) keeps its name on both hosts. Either way the hop
// counter advances across the forward.
func TestTracePropagation(t *testing.T) {
	nodes, clients := bootTCPPair(t, Config{SlowRequestThreshold: time.Nanosecond})

	q := req(wire.OpPut, 0, symbol.K(3, 1), []byte("traced"))
	if resp, err := clients[1].Do(q, nil); err != nil || resp.Status != wire.StatusOK {
		t.Fatalf("put: %+v %v", resp, err)
	}
	if q.TraceID != 0 {
		t.Fatal("a client that enabled nothing stamped a trace ID")
	}
	// Host b dispatched at hop 0 and named the request; host a dispatched
	// the forwarded request at hop 1 under the same name.
	entry, owner := slowSample(t, nodes[1], wire.OpPut), slowSample(t, nodes[0], wire.OpPut)
	if entry.Trace == 0 || owner.Trace != entry.Trace {
		t.Fatalf("entry node named the put %#x, owner recorded it as %#x", entry.Trace, owner.Trace)
	}
	if len(entry.Spans) != 1 || entry.Spans[0].Hop != 0 || len(owner.Spans) != 1 || owner.Spans[0].Hop != 1 {
		t.Fatalf("want one memo span per host, hop 0 then hop 1: entry %+v owner %+v", entry.Spans, owner.Spans)
	}

	clients[1].EnableSampling()
	q = req(wire.OpGet, 0, symbol.K(3, 1), nil)
	if resp, err := clients[1].Do(q, nil); err != nil || resp.Status != wire.StatusOK {
		t.Fatalf("get: %+v %v", resp, err)
	}
	if q.TraceID == 0 {
		t.Fatal("EnableSampling did not stamp a trace ID")
	}
	for _, n := range nodes {
		if got := slowSample(t, n, wire.OpGet); got.Trace != q.TraceID {
			t.Fatalf("host %s recorded the client-named get as %#x, want %#x", n.Host, got.Trace, q.TraceID)
		}
	}
	// Sampled, so the owner's slow sample is its whole local tree: its
	// folder server's span rode along, at the forwarded hop.
	var sawFolder bool
	for _, sp := range slowSample(t, nodes[0], wire.OpGet).Spans {
		if sp.Node == "folder-0@a" {
			sawFolder = sp.Op == wire.OpGet.String() && sp.Hop == 1
		}
	}
	if !sawFolder {
		t.Fatalf("owner's sampled slow sample lacks its folder span at hop 1: %+v", slowSample(t, nodes[0], wire.OpGet))
	}
}

// TestSlowRequestIsJoinableWithoutClientHelp: the records two hosts keep of
// one slow request can be joined by an operator who has nothing but the
// daemons' debug endpoints — the client enabled nothing. Both nodes hold a
// slow sample under one non-zero trace ID, the owner's at hop 1, and the
// lookup `memo trace` performs (/tracez?trace=<id> on every node) returns
// both.
func TestSlowRequestIsJoinableWithoutClientHelp(t *testing.T) {
	nodes, clients := bootTCPPair(t, Config{SlowRequestThreshold: time.Nanosecond})
	if resp, err := clients[1].Do(req(wire.OpPut, 0, symbol.K(5, 1), []byte("plain")), nil); err != nil || resp.Status != wire.StatusOK {
		t.Fatalf("put: %+v %v", resp, err)
	}
	id := slowSample(t, nodes[1], wire.OpPut).Trace
	if id == 0 {
		t.Fatal("entry node recorded the slow put under trace 0")
	}
	hops := map[string]int{}
	for _, n := range nodes {
		debug := obs.NewDebugServer("127.0.0.1:0", nil, n.Tracer())
		if err := debug.Start(); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = debug.Shutdown(context.Background()) })
		resp, err := http.Get(fmt.Sprintf("http://%s/tracez?trace=%#x", debug.Addr(), id))
		if err != nil {
			t.Fatal(err)
		}
		var body obs.TracezBody
		err = json.NewDecoder(resp.Body).Decode(&body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if len(body.Recent) != 0 || len(body.Slow) != 1 || len(body.Slow[0].Spans) != 1 {
			t.Fatalf("host %s /tracez?trace=%#x = %+v, want one single-span slow sample", n.Host, id, body)
		}
		hops[body.Slow[0].Spans[0].Node] = body.Slow[0].Spans[0].Hop
	}
	if len(hops) != 2 || hops["memo@b"] != 0 || hops["memo@a"] != 1 {
		t.Fatalf("merged lookup = %v, want memo@b at hop 0 and memo@a at hop 1", hops)
	}

	// A node whose threshold is off names nothing: the request leaves as it
	// came, and the batch entry the rpc layer builds from it carries no
	// extension.
	plain := NewWithDialer("a", newTCPMapped(), Config{})
	q := &wire.Request{Op: wire.OpPing}
	if resp := plain.Dispatch(q, nil); resp.Status != wire.StatusOK {
		t.Fatalf("ping: %+v", resp)
	}
	entry := wire.BatchEntry{ID: 1, Token: q.Token, Trace: q.TraceID, Sampled: q.Sampled}
	if q.TraceID != 0 || !bytes.Equal(wire.EncodeBatch(wire.BatchRequest, []wire.BatchEntry{entry}),
		wire.EncodeBatch(wire.BatchRequest, []wire.BatchEntry{{ID: 1}})) {
		t.Fatalf("threshold-off node put an extension on the request: %+v", q)
	}
}

// metricCatalog is every series name a durable memoserverd exposes at
// /metrics once an application is registered — DESIGN §10's catalog as a
// literal. A series added, dropped or renamed fails TestMetricCatalog until
// this list (and whatever dashboard reads the name) follows.
var metricCatalog = []string{
	"durable_appends_total", "durable_commit_batch", "durable_dir_syncs_total", "durable_fsync_ns",
	"durable_snapshot_bytes", "durable_snapshot_ns", "durable_snapshot_records_total",
	"durable_snapshots_total", "durable_wal_bytes",
	"folder_alt_scans_total", "folder_claims_inflight", "folder_copies_total", "folder_delayed_hidden",
	"folder_delayed_total", "folder_dup_puts_total", "folder_dup_takes_total", "folder_folders",
	"folder_memos", "folder_puts_total", "folder_released_total", "folder_shard_memos",
	"folder_shard_waiters", "folder_take_cache_bytes", "folder_takes_total",
	"folder_token_evictions_total", "folder_tokens", "folder_waiters",
	"go_alloc_bytes_total", "go_alloc_objects_total", "go_gc_cpu_seconds_total", "go_gc_cycles_total",
	"go_goroutines", "go_heap_live_bytes",
	"node_apps_registered_total", "node_forwards_total", "node_link_dials_total", "node_link_error",
	"node_link_failed_dials_total", "node_link_faults_total", "node_local_ops_total",
	"node_peer_links", "node_retried_total",
	"pool_gets_total", "pool_misses_total", "pool_oversize_total", "pool_puts_total",
	"rpc_batch_entries", "rpc_call_ns", "rpc_calls_inflight", "rpc_calls_total", "rpc_cancels_total",
	"rpc_frames_total", "rpc_heartbeat_echoes_total", "rpc_link_down_total", "rpc_probes_total",
	"rpc_server_inflight", "rpc_server_requests_total",
	"slow_requests_total", "trace_samples_total",
	"threadcache_idle_workers", "threadcache_retired_total", "threadcache_reused_total",
	"threadcache_spawned_total",
	"transport_tcp_reads_total", "transport_tcp_writes_total",
}

// TestMetricCatalog boots the TCP cluster durable, drives a forwarded put
// and a local get, and compares the series names of the exposition
// memoserverd serves — the process-wide registry, the node's own series and
// the Go runtime's — with metricCatalog, both directions. It reads b, the
// node that forwarded the put: the per-peer node_link_* series have a
// sample only on a node that holds a peer link.
func TestMetricCatalog(t *testing.T) {
	nodes, clients := bootTCPPair(t, Config{DataDir: t.TempDir()})
	k := symbol.K(7, 1)
	if resp, err := clients[1].Do(req(wire.OpPut, 0, k, []byte("x")), nil); err != nil || resp.Status != wire.StatusOK {
		t.Fatalf("put: %+v %v", resp, err)
	}
	if resp, err := clients[0].Do(req(wire.OpGet, 0, k, nil), nil); err != nil || resp.Status != wire.StatusOK {
		t.Fatalf("get: %+v %v", resp, err)
	}

	// The daemon registers the node and the runtime into obs.Default; a
	// test must not, so serve a private registry beside it.
	reg := obs.NewRegistry()
	nodes[1].RegisterMetrics(reg)
	obs.RegisterRuntime(reg)
	var body bytes.Buffer
	for _, r := range []*obs.Registry{obs.Default, reg} {
		if err := r.WriteProm(&body); err != nil {
			t.Fatal(err)
		}
	}
	got := map[string]bool{}
	for _, line := range strings.Split(body.String(), "\n") {
		if f := strings.Fields(line); len(f) == 4 && f[0] == "#" && f[1] == "TYPE" {
			got[f[2]] = true
		}
	}
	for _, name := range metricCatalog {
		if !got[name] {
			t.Errorf("/metrics lacks cataloged series %s", name)
		}
		delete(got, name)
	}
	for name := range got {
		t.Errorf("/metrics serves %s, which the catalog does not list", name)
	}
	if t.Failed() {
		t.Logf("exposition:\n%s", body.String())
	}
}
