package main

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/durable"
	"repro/internal/folder"
	"repro/internal/memoserver"
	"repro/internal/pool"
	"repro/internal/rpc"
	"repro/internal/symbol"
	"repro/internal/threadcache"
	"repro/internal/transferable"
	"repro/internal/transport"
	"repro/internal/wire"
)

// The ladder measures each layer from the outside: the benchmark process
// calls the layer's public functions directly, with the message shapes of
// the workload being traced, and times batches of calls. Each rung includes
// the rungs beneath it, so a layer's own cost is a rung minus the rung
// under it, and the top of the ladder can be checked against one caller
// timed over the real daemons (core.solo_round_us): the difference is
// ladder.gap_us.

// ladderBatches is how many batches a rung times; the rung is their median.
const ladderBatches = 5

// ladder is one traced run's ladder in progress.
type ladder struct {
	o       runOptions
	c       *cluster
	spans   *spanLog
	dir     string // scratch space inside the run's work directory
	metrics []metric
	byName  map[string]float64

	val     string // one workload value
	payload []byte // its marshalled form, what travels in requests
	key     symbol.Key
	putReq  wire.Request
	getReq  wire.Request
	getResp wire.Response
	token   uint64
}

func (l *ladder) nextToken() uint64 { l.token++; return l.token }

// rung times ladderBatches batches of n units each and records the median
// time per unit, divided by div to reach the metric's unit (1 for ns, 1e3
// for us). A span is recorded around every batch.
func (l *ladder) rung(name, unit string, div float64, n int, batch func(n int) error) error {
	per := make([]float64, 0, ladderBatches)
	for b := 0; b < ladderBatches; b++ {
		var err error
		d := l.spans.timed(name, func() { err = batch(n) })
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		per = append(per, float64(d.Nanoseconds())/float64(n)/div)
	}
	l.add(name, unit, median(per))
	return nil
}

func (l *ladder) add(name, unit string, v float64) {
	l.metrics = append(l.metrics, metric{name, unit, v})
	l.byName[name] = v
}

// runLadder measures every rung for the workload in o and returns the
// per-layer metrics, reconciliation included.
func runLadder(o runOptions, c *cluster, spans *spanLog) ([]metric, error) {
	l := &ladder{o: o, c: c, spans: spans, dir: filepath.Join(c.dir, "ladder"), byName: map[string]float64{}}
	if err := os.MkdirAll(l.dir, 0o755); err != nil {
		return nil, err
	}
	l.val = newValueGen(7000, o.wl.payload, newRNG(o.seed, 7)).next()
	var err error
	if l.payload, err = transferable.Marshal(transferable.String(l.val)); err != nil {
		return nil, err
	}
	// The folder server the workload's keys live on: 0 on node a, 1 on b.
	l.key = pickKeys(c.place, newRNG(o.seed, 8), hostNames[o.wl.keysOn], workloadSymBase, 1)[0]
	fid := c.place.Place(l.key).ID
	l.putReq = wire.Request{Op: wire.OpPut, App: c.file.App, FolderID: fid, Key: l.key, Payload: l.payload}
	l.getReq = wire.Request{Op: wire.OpGet, App: c.file.App, FolderID: fid, Key: l.key}
	l.getResp = wire.Response{Status: wire.StatusOK, Key: l.key, Payload: l.payload}

	for _, step := range []func() error{
		l.codecs, l.transports, l.rpcCalls, l.folderMemory, l.durableLog, l.folderDurable,
		l.nodes, l.solo, l.reconcile,
	} {
		if err := step(); err != nil {
			return nil, err
		}
	}
	return l.metrics, nil
}

// codecs: transferable, pool and wire, single-threaded, no I/O.
func (l *ladder) codecs() error {
	var sinkB []byte
	var sinkV transferable.Value
	if err := l.rung("transferable.marshal_ns", "ns", 1, 20000, func(n int) (err error) {
		for i := 0; i < n && err == nil; i++ {
			sinkB, err = transferable.Marshal(transferable.String(l.val))
		}
		return err
	}); err != nil {
		return err
	}
	if err := l.rung("transferable.unmarshal_ns", "ns", 1, 20000, func(n int) (err error) {
		for i := 0; i < n && err == nil; i++ {
			sinkV, err = transferable.Unmarshal(l.payload, transferable.Domain64)
		}
		return err
	}); err != nil {
		return err
	}
	_, _ = sinkB, sinkV
	if err := l.rung("pool.getput_ns", "ns", 1, 100000, func(n int) error {
		size := len(l.payload) + 64
		for i := 0; i < n; i++ {
			b := pool.Get(size)
			pool.Put(b)
		}
		return nil
	}); err != nil {
		return err
	}
	if err := l.rung("wire.request_codec_ns", "ns", 1, 20000, func(n int) error {
		return requestCodec(&l.putReq, n)
	}); err != nil {
		return err
	}
	buf := make([]byte, 0, len(l.payload)+256)
	if err := l.rung("wire.response_codec_ns", "ns", 1, 20000, func(n int) (err error) {
		for i := 0; i < n && err == nil; i++ {
			buf = wire.AppendResponse(buf[:0], &l.getResp)
			_, err = wire.DecodeResponse(buf)
		}
		return err
	}); err != nil {
		return err
	}
	return l.rung("wire.batch_codec_ns_per_entry", "ns", 1, 1000*batchCodecEntries, func(n int) error {
		return batchCodec(&l.putReq, n/batchCodecEntries)
	})
}

// requestCodec encodes and decodes req n times. It is a function of its own,
// not a closure, because the decoded request aliases the buffer and must be
// seen to die before the buffer is written again.
func requestCodec(req *wire.Request, n int) error {
	buf := make([]byte, 0, len(req.Payload)+256)
	var q wire.Request
	for i := 0; i < n; i++ {
		buf = wire.AppendRequest(buf[:0], req)
		if err := wire.DecodeRequestInto(&q, buf); err != nil {
			return err
		}
	}
	return nil
}

const batchCodecEntries = 32

// batchCodec encodes and decodes a full batch frame of req n times.
func batchCodec(req *wire.Request, n int) error {
	msg := wire.EncodeRequest(req)
	in := make([]wire.BatchEntry, batchCodecEntries)
	for i := range in {
		in[i] = wire.BatchEntry{ID: uint64(i + 1), Token: uint64(i + 1), Msg: msg}
	}
	frame := make([]byte, 0, batchCodecEntries*(len(msg)+32))
	var out []wire.BatchEntry
	for i := 0; i < n; i++ {
		frame = wire.AppendBatch(frame[:0], wire.BatchRequest, in)
		var err error
		if _, out, err = wire.DecodeBatchInto(out[:0], frame); err != nil {
			return err
		}
	}
	return nil
}

// echoPair is a loopback TCP connection whose far end runs serve.
type echoPair struct {
	listener transport.Listener
	client   transport.Conn
	done     chan struct{}
}

func newEchoPair(serve func(transport.Conn)) (*echoPair, error) {
	tcp := transport.NewTCP()
	ln, err := tcp.Listen("127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	p := &echoPair{listener: ln, done: make(chan struct{})}
	go func() {
		defer close(p.done)
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		serve(conn)
		conn.Close()
	}()
	if p.client, err = tcp.Dial(ln.Addr()); err != nil {
		ln.Close()
		<-p.done
		return nil, err
	}
	return p, nil
}

func (p *echoPair) close() {
	p.client.Close()
	p.listener.Close()
	<-p.done
}

// echo returns every message it receives until the connection fails.
func echo(conn transport.Conn) {
	for {
		msg, err := conn.Recv()
		if err != nil {
			return
		}
		err = conn.Send(msg)
		pool.Put(msg)
		if err != nil {
			return
		}
	}
}

// pingPong sends msg and waits for the echo, n times.
func pingPong(conn transport.Conn, msg []byte, n int) error {
	for i := 0; i < n; i++ {
		if err := conn.Send(msg); err != nil {
			return err
		}
		back, err := conn.Recv()
		if err != nil {
			return err
		}
		pool.Put(back)
	}
	return nil
}

// transports: one encoded Put request echoed over raw framed TCP, then over
// a mux channel on top of it.
func (l *ladder) transports() error {
	msg := wire.EncodeRequest(&l.putReq)
	raw, err := newEchoPair(echo)
	if err != nil {
		return err
	}
	err = l.rung("transport.tcp_rtt_us", "us", 1e3, 1500, func(n int) error { return pingPong(raw.client, msg, n) })
	raw.close()
	if err != nil {
		return err
	}

	muxed, err := newEchoPair(func(conn transport.Conn) {
		mux := transport.NewMux(conn, transport.DefaultMTU)
		go mux.Run()
		defer mux.Close()
		ch, err := mux.Accept()
		if err != nil {
			return
		}
		echo(ch)
	})
	if err != nil {
		return err
	}
	mux := transport.NewMux(muxed.client, transport.DefaultMTU)
	go mux.Run()
	err = l.rung("transport.mux_rtt_us", "us", 1e3, 1500, func(n int) error { return pingPong(mux.Channel(1), msg, n) })
	mux.Close()
	muxed.close()
	return err
}

// rpcCalls: rpc.Conn.Call against rpc.Serve with a canned handler, over mux
// over TCP, with the thread cache the memo server gives Serve. One caller,
// then 64 pipelined callers (whose requests batch).
func (l *ladder) rpcCalls() error {
	canned := func(q *wire.Request, _ <-chan struct{}) *wire.Response {
		if q.Op == wire.OpGet {
			return &wire.Response{Status: wire.StatusOK, Key: q.Key, Payload: l.payload}
		}
		return wire.OK()
	}
	workers := threadcache.New(threadcache.Config{})
	defer workers.Close()
	pair, err := newEchoPair(func(conn transport.Conn) {
		mux := transport.NewMux(conn, transport.DefaultMTU)
		go mux.Run()
		defer mux.Close()
		ch, err := mux.Accept()
		if err != nil {
			return
		}
		_ = rpc.Serve(ch, canned, workers.SubmitArg, rpc.Policy{})
	})
	if err != nil {
		return err
	}
	defer pair.close()
	mux := transport.NewMux(pair.client, transport.DefaultMTU)
	go mux.Run()
	defer mux.Close()
	conn := rpc.NewConn(mux.Channel(1), rpc.Policy{})
	defer conn.Close()

	calls := func(n int) error {
		for i := 0; i < n; i++ {
			q := l.putReq
			if i%2 == 1 {
				q = l.getReq
			}
			q.Token = uint64(i + 1)
			resp, err := conn.Call(&q, nil)
			if err != nil {
				return err
			}
			if resp.Status != wire.StatusOK {
				return fmt.Errorf("canned handler answered %v", resp.Status)
			}
		}
		return nil
	}
	if err := l.rung("rpc.call_rtt_us", "us", 1e3, 1000, calls); err != nil {
		return err
	}
	const callers = 64
	return l.rung("rpc.call_pipelined_us", "us", 1e3, callers*100, func(n int) error {
		return inParallel(callers, func(int) error { return calls(n / callers) })
	})
}

// inParallel runs fn on k goroutines and joins their errors.
func inParallel(k int, fn func(i int) error) error {
	var wg sync.WaitGroup
	errs := make([]error, k)
	for i := 0; i < k; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = fn(i)
		}(i)
	}
	wg.Wait()
	return errors.Join(errs...)
}

// handleRound is one Put and one Get through a folder server's Handle.
func (l *ladder) handleRound(srv *folder.Server) error {
	put, get := l.putReq, l.getReq
	put.Token, get.Token = l.nextToken(), l.nextToken()
	if resp := srv.Handle(&put, nil); resp.Status != wire.StatusOK {
		return fmt.Errorf("put: %s", resp.Err)
	}
	if resp := srv.Handle(&get, nil); resp.Status != wire.StatusOK {
		return fmt.Errorf("get: %s", resp.Err)
	}
	return nil
}

// folderMemory: the memory-only store and folder server, and the park/wake
// handoff that parked_mem is made of.
func (l *ladder) folderMemory() error {
	store := folder.NewStore()
	srv := folder.NewServer(0, "a", store, threadcache.Config{})
	defer srv.Close()
	if err := l.rung("folder.store_round_ns", "ns", 1, 20000, func(n int) error {
		for i := 0; i < n; i++ {
			if err := store.PutToken(l.key, l.payload, l.nextToken()); err != nil {
				return err
			}
			if _, err := store.GetToken(l.key, l.nextToken(), nil); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		return err
	}
	if err := l.rung("folder.handle_round_us", "us", 1e3, 20000, func(n int) error {
		for i := 0; i < n; i++ {
			if err := l.handleRound(srv); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		return err
	}
	// Two goroutines ping-pong through two folders: each Get arrives before
	// its memo, parks, and is released by the other side's Put. A unit is
	// one such handoff (half a round).
	ping, pong := symbol.K(11), symbol.K(12)
	return l.rung("folder.park_wake_us", "us", 1e3, 2*5000, func(n int) error {
		rounds := n / 2
		base := l.token // every batch needs fresh tokens, or the store answers from its dedup table
		l.token += uint64(4*rounds) + 4
		return inParallel(2, func(side int) error {
			tok := base + uint64(side)
			for i := 0; i < rounds; i++ {
				tok += 4
				if side == 0 {
					if err := store.PutToken(ping, l.payload, tok); err != nil {
						return err
					}
					if _, err := store.GetToken(pong, tok+2, nil); err != nil {
						return err
					}
				} else {
					if _, err := store.GetToken(ping, tok, nil); err != nil {
						return err
					}
					if err := store.PutToken(pong, l.payload, tok+2); err != nil {
						return err
					}
				}
			}
			return nil
		})
	})
}

// durableLog: the WAL by itself — one committer, 64 committers sharing
// group commits, the same single commit with a real fsync on the checkout's
// filesystem, and replay of a 50 000-record log.
func (l *ladder) durableLog() error {
	rec := func() *durable.Record {
		return &durable.Record{Type: durable.RecPut, Key: l.key, Payload: l.payload, Token: l.nextToken()}
	}
	commitOne := func(log *durable.Log, shard int, r *durable.Record) error {
		return log.Commit(shard, log.Append(shard, r))
	}
	open := func(dir string, mode durable.SyncMode) (*durable.Log, error) {
		return durable.Open(dir, folder.DefaultShards, durable.Config{Sync: mode, SnapshotEvery: -1}, func(*durable.Record) error { return nil })
	}

	log, err := open(filepath.Join(l.dir, "wal"), daemonSync)
	if err != nil {
		return err
	}
	err = l.rung("durable.append_commit_us", "us", 1e3, 2000, func(n int) error {
		for i := 0; i < n; i++ {
			if err := commitOne(log, 0, rec()); err != nil {
				return err
			}
		}
		return nil
	})
	if err == nil {
		const committers = 64
		err = l.rung("durable.group_commit_us_per_rec", "us", 1e3, committers*100, func(n int) error {
			recs := make([][]*durable.Record, committers) // tokens are minted on one goroutine
			for g := range recs {
				for i := 0; i < n/committers; i++ {
					recs[g] = append(recs[g], rec())
				}
			}
			return inParallel(committers, func(g int) error {
				for _, r := range recs[g] {
					if err := commitOne(log, g%folder.DefaultShards, r); err != nil {
						return err
					}
				}
				return nil
			})
		})
	}
	if cerr := log.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}

	// The same single commit, with the fsync the daemons' default policy
	// issues, on the filesystem the checkout is on. This is the sandbox's
	// disk: the number says what the workloads leave out, nothing about a
	// device anyone would deploy on.
	devDir, err := os.MkdirTemp(buildDir, "fsync-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(devDir)
	dev, err := open(devDir, durable.SyncBatch)
	if err != nil {
		return err
	}
	err = l.rung("durable.fsync_device_us", "us", 1e3, 20, func(n int) error {
		for i := 0; i < n; i++ {
			if err := commitOne(dev, 0, rec()); err != nil {
				return err
			}
		}
		return nil
	})
	if cerr := dev.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}

	// Replay: what a restart pays per logged record. The records have the
	// backlog's shape, because the backlog is what set-up replays.
	const replayRecords = 50000
	replayDir := filepath.Join(l.dir, "replay")
	w, err := open(replayDir, durable.SyncNever)
	if err != nil {
		return err
	}
	small := make([]byte, backlogPayload)
	var last [folder.DefaultShards]uint64
	for i := 0; i < replayRecords; i++ {
		sh := i % folder.DefaultShards
		//memolint:ignore lockcheck the rung drives the log without a store, from one goroutine; there is no shard lock to hold
		last[sh] = w.Append(sh, &durable.Record{Type: durable.RecPut, Key: symbol.K(symbol.Symbol(100 + i%backlogFolders)), Payload: small, Token: l.nextToken()})
	}
	for sh, seq := range last {
		if err := w.Commit(sh, seq); err != nil {
			return err
		}
	}
	if err := w.Close(); err != nil {
		return err
	}
	return l.rung("durable.replay_us_per_krec", "us", 1e3, replayRecords/1000, func(int) error {
		seen := 0
		r, err := durable.Open(replayDir, folder.DefaultShards, durable.Config{Sync: durable.SyncNever, SnapshotEvery: -1},
			func(*durable.Record) error { seen++; return nil })
		if err != nil {
			return err
		}
		if err := r.Close(); err != nil {
			return err
		}
		if seen != replayRecords {
			return fmt.Errorf("replayed %d records, want %d", seen, replayRecords)
		}
		return nil
	})
}

// folderDurable: the folder server over a durable store, one caller.
func (l *ladder) folderDurable() error {
	srv, err := folder.OpenServer(0, "a", filepath.Join(l.dir, "folder"), durable.Config{Sync: daemonSync}, threadcache.Config{}, nil)
	if err != nil {
		return err
	}
	defer srv.Close()
	return l.rung("folder.handle_durable_round_us", "us", 1e3, 2000, func(n int) error {
		for i := 0; i < n; i++ {
			if err := l.handleRound(srv); err != nil {
				return err
			}
		}
		return nil
	})
}

// mappedTCP lets in-process memo servers use logical addresses over TCP, as
// cmd/memoserverd's mapped transport does: "host/memo" resolves through a
// table filled as listeners come up.
type mappedTCP struct {
	inner *transport.TCP
	mu    sync.Mutex
	addrs map[string]string
}

func (t *mappedTCP) Listen(addr string) (transport.Listener, error) {
	ln, err := t.inner.Listen("127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	t.mu.Lock()
	t.addrs[transport.HostOf(addr)] = ln.Addr()
	t.mu.Unlock()
	return ln, nil
}

func (t *mappedTCP) Dial(addr string) (transport.Conn, error) {
	t.mu.Lock()
	real, ok := t.addrs[transport.HostOf(addr)]
	t.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("no address for %q", addr)
	}
	return t.inner.Dial(real)
}

func (*mappedTCP) Name() string { return "tcp-mapped" }

// nodes: two in-process memo servers configured like the workload's
// daemons. Dispatch on node a for a key a owns, for a key b owns (which
// crosses a real loopback peer link), and the workload's own round through
// a memoserver.Client over TCP.
func (l *ladder) nodes() error {
	net := &mappedTCP{inner: transport.NewTCP(), addrs: map[string]string{}}
	res := rpc.Resilience{Heartbeat: rpc.DefaultHeartbeat, Retries: 2}
	var started []*memoserver.Node
	defer func() {
		for _, n := range started {
			n.Close()
		}
	}()
	for _, h := range hostNames {
		cfg := memoserver.Config{Resilience: res}
		if l.o.wl.durable {
			cfg.DataDir = filepath.Join(l.dir, "node-"+h)
			cfg.Durable = durable.Config{Sync: daemonSync}
		}
		n := memoserver.NewWithDialer(h, net, cfg)
		if err := n.Start(); err != nil {
			return err
		}
		started = append(started, n)
		if err := n.RegisterApp(l.c.file); err != nil {
			return err
		}
	}
	a := started[0]
	keyOn := func(host int) symbol.Key {
		return pickKeys(l.c.place, newRNG(l.o.seed, uint64(20+host)), hostNames[host], workloadSymBase, 1)[0]
	}
	dispatchRound := func(host int) func(n int) error {
		key := keyOn(host)
		return func(n int) error {
			for i := 0; i < n; i++ {
				put, get := l.putReq, l.getReq
				put.Key, get.Key = key, key
				put.FolderID, get.FolderID = host, host
				put.Token, get.Token = l.nextToken(), l.nextToken()
				if resp := a.Dispatch(&put, nil); resp.Status != wire.StatusOK {
					return fmt.Errorf("put: %s", resp.Err)
				}
				if resp := a.Dispatch(&get, nil); resp.Status != wire.StatusOK {
					return fmt.Errorf("get: %s", resp.Err)
				}
			}
			return nil
		}
	}
	if err := l.rung("memoserver.dispatch_local_us", "us", 1e3, 2000, dispatchRound(0)); err != nil {
		return err
	}
	if err := l.rung("memoserver.dispatch_forward_us", "us", 1e3, 500, dispatchRound(1)); err != nil {
		return err
	}

	client, err := memoserver.DialClientResilient(func(_, addr string) (transport.Conn, error) { return net.Dial(addr) },
		"a", l.c.file.App, rpc.Policy{}, res)
	if err != nil {
		return err
	}
	defer client.Close()
	return l.rung("memoserver.client_round_us", "us", 1e3, 500, func(n int) error {
		for i := 0; i < n; i++ {
			put, get := l.putReq, l.getReq
			put.Token, get.Token = 0, 0 // the client stamps its own
			if resp, err := client.Do(&put, nil); err != nil || resp.Status != wire.StatusOK {
				return fmt.Errorf("put: %v %v", err, resp)
			}
			if resp, err := client.Do(&get, nil); err != nil || resp.Status != wire.StatusOK {
				return fmt.Errorf("get: %v %v", err, resp)
			}
		}
		return nil
	})
}

// solo: one caller's Put+Get through core.Memo against the real daemons —
// the figure the ladder has to explain.
func (l *ladder) solo() error {
	h, err := l.c.memo(0)
	if err != nil {
		return err
	}
	defer h.m.Close()
	m := h.m
	gen := newValueGen(7001, l.o.wl.payload, newRNG(l.o.seed, 9))
	round := func() error {
		if err := m.Put(l.key, transferable.String(gen.next())); err != nil {
			return err
		}
		_, err := m.Get(l.key)
		return err
	}
	deadline := time.Now().Add(200 * time.Millisecond) // warm the connection
	for time.Now().Before(deadline) {
		if err := round(); err != nil {
			return err
		}
	}
	return l.rung("core.solo_round_us", "us", 1e3, 500, func(n int) error {
		for i := 0; i < n; i++ {
			if err := round(); err != nil {
				return err
			}
		}
		return nil
	})
}

// reconcile adds the layers' own costs up — which, rung minus the rung
// beneath, telescopes to: two rpc calls (transport, mux and rpc inside
// them), one dispatch round (folder server, store and WAL inside it; the
// peer hop too when the keys live on b), and the value codec — and reports
// what of the real round that sum leaves unexplained.
func (l *ladder) reconcile() error {
	dispatch := l.byName["memoserver.dispatch_local_us"]
	if l.o.wl.keysOn == 1 {
		dispatch = l.byName["memoserver.dispatch_forward_us"]
	}
	sum := 2*l.byName["rpc.call_rtt_us"] + dispatch +
		(l.byName["transferable.marshal_ns"]+l.byName["transferable.unmarshal_ns"])/1e3
	l.add("ladder.sum_us", "us", sum)
	l.add("ladder.gap_us", "us", l.byName["core.solo_round_us"]-sum)
	return nil
}
