// Package memoserver implements D-Memo memo servers (paper §4.1, §4.4).
//
// One memo server runs per machine. It listens for connection requests from
// application processes and from other memo servers, carries per-application
// routing tables and placement maps installed at registration time, and
// routes every folder request either to a folder server on its own host or
// onward to the next-hop memo server along the application's logical
// topology — "a path is established between an application program and a
// folder server via one or more memo server threads".
//
// All request traffic — inbound from applications and peers, outbound to
// peers — travels over the batching rpc layer: many requests pipeline on
// one transport connection and coalesce into batch frames, so a burst of
// small memo operations costs the link one frame, not one frame each.
package memoserver

import (
	"fmt"
	"maps"
	"path/filepath"
	"slices"
	"sync"
	"time"

	"repro/internal/adf"
	"repro/internal/durable"
	"repro/internal/folder"
	"repro/internal/obs"
	"repro/internal/placement"
	"repro/internal/routing"
	"repro/internal/rpc"
	"repro/internal/symbol"
	"repro/internal/threadcache"
	"repro/internal/transport"
	"repro/internal/wire"
)

// Network is the transport view a memo server needs: listening on its own
// address and dialing out from its host (so simulated link delays apply).
type Network interface {
	Listen(addr string) (transport.Listener, error)
	DialFrom(srcHost, addr string) (transport.Conn, error)
}

// MemoAddr is the canonical memo-server address for a host.
func MemoAddr(host string) string { return host + "/memo" }

// App is one registered application's state on this memo server: its
// description, routing table, placement map, and the folder servers that
// live on this host ("each memo server is loaded with unique routing tables
// for each application").
type App struct {
	File  *adf.File
	Table *routing.Table
	Place *placement.Map
	// folderHost maps folder-server id to its host.
	folderHost map[int]string
	// local holds this host's folder servers for the app.
	local map[int]*folder.Server
	// programs holds pumped program images by source-directory name
	// (§4.4's executable distribution without NFS).
	progMu   sync.Mutex
	programs map[string][]byte
}

// StoreProgram saves a pumped program image.
func (a *App) StoreProgram(dir string, blob []byte) {
	a.progMu.Lock()
	defer a.progMu.Unlock()
	if a.programs == nil {
		a.programs = make(map[string][]byte)
	}
	cp := make([]byte, len(blob))
	copy(cp, blob)
	a.programs[dir] = cp
}

// Program retrieves a pumped program image.
func (a *App) Program(dir string) ([]byte, bool) {
	a.progMu.Lock()
	defer a.progMu.Unlock()
	blob, ok := a.programs[dir]
	return blob, ok
}

// Config tunes a Node.
type Config struct {
	// Cache configures the memo server's own thread cache.
	Cache threadcache.Config
	// Lambda is the placement topology attenuation (see placement).
	Lambda float64
	// Resilience arms the link-resilience layer on peer links: heartbeats
	// (so transport idle timeouts can stay on), reconnect with backoff
	// when a link dies, and bounded transparent retries of safely-
	// retriable forwarded calls. Zero disables all three.
	Resilience rpc.Resilience
	// DataDir, when non-empty, makes every folder server this node creates
	// at registration durable: its store opens from
	// DataDir/<app>/folder-<id> (recovering whatever a previous incarnation
	// committed) and write-ahead-logs every mutation. Empty (the default)
	// keeps the historical in-memory folder servers.
	DataDir string
	// Durable tunes the write-ahead log when DataDir is set (zero = durable
	// defaults: group commit, snapshot every durable.DefaultSnapshotEvery
	// records).
	Durable durable.Config
	// SlowRequestThreshold arms slow-request recording: every dispatch is
	// timed, a request that arrives without a trace ID is given one, and a
	// dispatch that takes at least this long leaves a trace sample under
	// that ID. Zero (the default) times nothing on its account.
	SlowRequestThreshold time.Duration
	// TraceSample is the span-sampling rate for requests that enter the
	// cluster at this node: 1 samples every entry request, 1/n every nth,
	// 0 (the default) samples none locally. Requests another node sampled
	// are always traced through regardless — the sampled bit rides the wire.
	TraceSample float64
}

// listenNet is the slice of a transport a Node drives directly; both
// transport.Transport and Network satisfy it.
type listenNet interface {
	Listen(addr string) (transport.Listener, error)
}

// Node is one host's memo server.
type Node struct {
	Host string

	net listenNet
	cfg Config
	// dialFrom abstracts DialFrom for non-sim transports.
	dialFrom func(src, addr string) (transport.Conn, error)

	pool *threadcache.Pool

	// apps and peers are sync.Maps: lookupApp and peer sit on every
	// request's path, and a single node mutex was the remaining global
	// lock on the memo-server fan-out. Registration and peer dials are
	// rare writes; request routing is all reads.
	apps  sync.Map // app name -> *App
	peers sync.Map // host -> *peerLink

	mu sync.Mutex
	// inbound holds the accepted conns still being served; each one's
	// accept task removes it when Serve returns.
	inbound  map[transport.Conn]struct{}
	listener transport.Listener
	closed   bool

	// tracer is the node's one record of what requests did: entry sampling
	// at Config.TraceSample, span-set ownership around dispatch, the
	// Config.SlowRequestThreshold test, and the /tracez rings. Always
	// non-nil — a rate-0 node still collects spans for requests other nodes
	// sampled.
	tracer *obs.Tracer

	// Counters behind the node_* metric series (RegisterMetrics).
	localOps   obs.Counter
	forwards   obs.Counter
	retried    obs.Counter
	registered obs.Counter
}

// peerLink is the resilient rpc link to a neighbouring memo server; every
// forwarded request to that neighbour shares it, so concurrent forwards
// pipeline and batch on it. When the link dies it reconnects with
// exponential backoff + jitter, and a relay retries safely-retriable calls
// on the fresh connection. The same rlink backs the
// application↔local-memo-server Client.
type peerLink struct {
	*rlink
	n    *Node
	host string
}

func (n *Node) newPeerLink(host string) *peerLink {
	dial := func() (transport.Conn, error) {
		if n.isClosed() {
			return nil, fmt.Errorf("memo server %s closed", n.Host)
		}
		conn, err := n.dialFrom(n.Host, MemoAddr(host))
		if err != nil {
			return nil, fmt.Errorf("dial %s: %w", host, err)
		}
		return conn, nil
	}
	return &peerLink{rlink: newRlink(dial, n.cfg.Resilience), n: n, host: host}
}

// NewWithNetwork creates a memo server over any Network — a listener
// namespace with source-host-aware dialing (transport.Sim, or a
// peer-mapped TCP view).
func NewWithNetwork(host string, nw Network, cfg Config) *Node {
	return newNode(host, nw, nw.DialFrom, cfg)
}

// NewWithDialer creates a memo server over any transport; dials ignore the
// source host.
func NewWithDialer(host string, t transport.Transport, cfg Config) *Node {
	return newNode(host, t, func(_, addr string) (transport.Conn, error) {
		return t.Dial(addr)
	}, cfg)
}

func newNode(host string, t listenNet, dial func(string, string) (transport.Conn, error), cfg Config) *Node {
	return &Node{
		Host:     host,
		net:      t,
		cfg:      cfg,
		dialFrom: dial,
		pool:     threadcache.New(cfg.Cache),
		inbound:  make(map[transport.Conn]struct{}),
		tracer:   obs.NewTracer("memo@"+host, cfg.TraceSample, cfg.SlowRequestThreshold),
	}
}

// Tracer exposes the node's tracer; the daemon serves its rings at /tracez
// and hangs its slow-request log line off it.
func (n *Node) Tracer() *obs.Tracer { return n.tracer }

// Start binds the memo-server address and begins serving.
func (n *Node) Start() error {
	l, err := n.net.Listen(MemoAddr(n.Host))
	if err != nil {
		return fmt.Errorf("memoserver %s: %w", n.Host, err)
	}
	n.mu.Lock()
	n.listener = l
	n.mu.Unlock()
	go n.acceptLoop(l)
	return nil
}

// Close stops the server, its folder servers, and peer links. Durable
// folder stores flush their write-ahead logs, so every acknowledged
// operation is on disk when Close returns.
func (n *Node) Close() { n.shutdown(false) }

// Crash hard-stops the node the way SIGKILL would: the listener and every
// link die immediately and durable folder stores abandon their
// buffered-but-uncommitted records instead of flushing. Only what was
// acknowledged before the crash survives in the data directory — which is
// exactly the guarantee the crash-recovery harness audits. Reopen by
// building a new Node with the same Config.DataDir.
func (n *Node) Crash() { n.shutdown(true) }

func (n *Node) shutdown(crash bool) {
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return
	}
	n.closed = true
	l := n.listener
	inbound := n.inbound
	n.inbound = nil
	n.mu.Unlock()
	// A crash stops the stores first, once: an in-flight operation that has
	// not yet committed must fail its commit rather than slip in after the
	// "kill" point. A close flushes them last, once nothing reaches them.
	stores := func(stop func(*folder.Server)) {
		n.apps.Range(func(_, v any) bool {
			for _, fs := range v.(*App).local {
				stop(fs)
			}
			return true
		})
	}
	if crash {
		stores((*folder.Server).Crash)
	}
	if l != nil {
		l.Close()
	}
	n.peers.Range(func(host, v any) bool {
		n.peers.Delete(host)
		v.(*peerLink).close()
		return true
	})
	for conn := range inbound {
		conn.Close()
	}
	if !crash {
		stores((*folder.Server).Close)
	}
	n.pool.Close()
}

func (n *Node) isClosed() bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.closed
}

// acceptLoop hands each accepted conn to one thread of the node's cache,
// which serves it until it fails, then closes and retires it. That thread
// is the conn's read loop: it routes each request once (route), running an
// op on a memory-only folder and relaying a forward onto its peer link
// itself, and handing the rest, decision in hand, to the same cache;
// responses coalesce into batched frames. Closing is the
// whole answer to a peer that sent anything but batch frames: its Recv
// fails rather than hangs.
func (n *Node) acceptLoop(l transport.Listener) {
	for {
		conn, err := l.Accept()
		if err != nil {
			return
		}
		n.mu.Lock()
		if n.closed {
			n.mu.Unlock()
			conn.Close()
			return
		}
		n.inbound[conn] = struct{}{}
		n.mu.Unlock()
		if err := n.pool.Submit(func() {
			_ = rpc.ServeRouted(conn, n.route, n.pool.SubmitArg)
			n.retire(conn)
		}); err != nil {
			n.retire(conn)
			return
		}
	}
}

// retire closes an accepted conn and drops it from the inbound set.
func (n *Node) retire(conn transport.Conn) {
	conn.Close()
	n.mu.Lock()
	delete(n.inbound, conn)
	n.mu.Unlock()
}

// RegisterApp installs an application: builds its routing table and
// placement map and creates the folder servers assigned to this host
// (§4.4). Idempotent for the same application name.
func (n *Node) RegisterApp(f *adf.File) error {
	if err := adf.Validate(f); err != nil {
		return err
	}
	g, err := f.Graph()
	if err != nil {
		return err
	}
	tbl := routing.Build(g)
	place, err := placement.New(f, tbl, placement.Options{Lambda: n.cfg.Lambda})
	if err != nil {
		return err
	}
	app := &App{
		File:       f,
		Table:      tbl,
		Place:      place,
		folderHost: make(map[int]string),
		local:      make(map[int]*folder.Server),
	}
	for _, fs := range f.Folders {
		app.folderHost[fs.ID] = fs.Host
	}

	if _, ok := n.apps.Load(f.App); ok {
		// Same app re-registered (every process registers on start-up;
		// "multiple memo applications run concurrently using the same
		// servers"). Keep the existing instance.
		return nil
	}

	// Create local folder servers before publishing; Forward may dispatch.
	appName := f.App
	for _, fs := range f.Folders {
		if fs.Host != n.Host {
			continue
		}
		opts := []folder.Option{
			folder.WithForward(func(dest symbol.Key, payload []byte, relToken uint64, done func(bool)) {
				n.forwardRelease(appName, dest, payload, relToken, done)
			}),
		}
		if n.cfg.DataDir != "" {
			// Durable: open (recovering) the folder server's store from its
			// own directory; the server owns the store and flushes its log
			// on Close.
			dir := filepath.Join(n.cfg.DataDir, f.App, fmt.Sprintf("folder-%d", fs.ID))
			srv, err := folder.OpenServer(fs.ID, n.Host, dir, n.cfg.Durable, threadcache.Config{}, opts)
			if err != nil {
				for _, s := range app.local {
					s.Close()
				}
				return fmt.Errorf("memoserver %s: %w", n.Host, err)
			}
			app.local[fs.ID] = srv
			continue
		}
		store := folder.NewStore(opts...)
		app.local[fs.ID] = folder.NewServer(fs.ID, n.Host, store, threadcache.Config{})
	}

	if _, loaded := n.apps.LoadOrStore(f.App, app); loaded {
		// Lost a race; drop ours.
		for _, fs := range app.local {
			fs.Close()
		}
		return nil
	}
	n.registered.Inc()
	return nil
}

// AppNames lists registered applications.
func (n *Node) AppNames() []string {
	var out []string
	n.apps.Range(func(name, _ any) bool {
		out = append(out, name.(string))
		return true
	})
	return out
}

// LocalFolderServer returns this host's folder server with the given id.
func (n *Node) LocalFolderServer(app string, id int) (*folder.Server, bool) {
	a, ok := n.lookupApp(app)
	if !ok {
		return nil, false
	}
	fs, ok := a.local[id]
	return fs, ok
}

// lookupApp fetches registered state. Lock-free: it runs on every request.
func (n *Node) lookupApp(name string) (*App, bool) {
	v, ok := n.apps.Load(name)
	if !ok {
		return nil, false
	}
	return v.(*App), true
}

// dest is where resolve sends a request: a folder server on this host, the
// link to the next memo server toward the host that answers it, this node
// itself (app is the application a host-scoped verb runs under, nil for a
// node-scoped one), or the error response that ends it.
type dest struct {
	fs   *folder.Server
	pl   *peerLink
	app  *App
	resp *wire.Response
}

// resolve is the node's one routing decision: where q goes, by its verb's
// scope in the wire op table. A request that is not node-scoped names an
// application; a host-scoped one goes to the memo server on its target host
// (this one, when that is blank), anything else to the folder server it
// names. The decision is counted once, in node_local_ops_total or
// node_forwards_total.
func (n *Node) resolve(q *wire.Request) dest {
	scope := q.Op.Info().Scope
	if scope == wire.ScopeNode {
		return dest{}
	}
	app, ok := n.lookupApp(q.App)
	if !ok {
		return dest{resp: wire.Errf("memo server %s: application %q not registered", n.Host, q.App)}
	}
	host, ok := q.TargetHost, true
	if scope != wire.ScopeHost {
		host, ok = app.folderHost[q.FolderID]
	} else if host == "" {
		host = n.Host
	}
	switch {
	case !ok:
		return dest{resp: wire.Errf("memo server %s: app %q has no folder server %d", n.Host, q.App, q.FolderID)}
	case host != n.Host:
		return n.nextHop(app, host)
	case scope == wire.ScopeHost:
		return dest{app: app}
	}
	fs, ok := app.local[q.FolderID]
	if !ok {
		return dest{resp: wire.Errf("memo server %s: folder server %d not local", n.Host, q.FolderID)}
	}
	n.localOps.Inc()
	return dest{fs: fs}
}

// nextHop resolves a request for targetHost to the link to the next memo
// server along the routing table, or the error response that ends it.
func (n *Node) nextHop(app *App, targetHost string) dest {
	hop, ok := app.Table.NextHop(n.Host, targetHost)
	if !ok {
		return dest{resp: wire.Errf("memo server %s: no route to %s", n.Host, targetHost)}
	}
	pl, err := n.peer(hop)
	if err != nil {
		return dest{resp: wire.Fail(err)}
	}
	n.forwards.Inc()
	return dest{pl: pl}
}

// call is a routed request on its way: where resolve sent it, its trace
// state, and — for a relay — the failure of the attempt the read loop sent,
// for the link's retry loop to continue from. The tracer decides what a call
// leaves behind. With sampling and the slow-request threshold both off,
// nothing: traced is false and no clock is read. With the threshold armed
// the call is timed as one memo span under this node's name, and recorded
// when it ran that long. A sampled request — an entry request the tracer
// admits, or one that arrived with the sampled bit set — additionally owns a
// span set for the call's duration: every layer below appends into it, and
// trace records the completed set for /tracez. Only this node's spans are in
// it; the other hops record their own under the same trace ID.
type call struct {
	n   *Node
	to  dest
	p   *rpc.Pending // the inbound request; nil for an in-process Dispatch
	set *wire.SpanSet
	// traced is set when the tracer may record the call; startNS is when its
	// memo span started.
	traced  bool
	startNS int64
	err     error
}

var callPool = sync.Pool{New: func() any { return new(call) }}

// open resolves q and begins its trace.
func (n *Node) open(q *wire.Request) call {
	c := call{n: n, to: n.resolve(q), set: n.tracer.Begin(q)}
	c.traced = c.set != nil || n.tracer.Threshold() > 0
	return c
}

// Dispatch routes one request in process — forwardRelease's deliveries, and
// callers that hold a Node rather than a conn — and runs it on the calling
// goroutine, blocking for the response (which may wait on a folder) and
// honouring cancel. A forward relays through the link's retry loop on a
// private copy of q: the relay rewrites hops and may stamp a dedup token,
// and the caller's q stays as it was.
func (n *Node) Dispatch(q *wire.Request, cancel <-chan struct{}) *wire.Response {
	c := n.open(q)
	if c.to.pl != nil {
		fq := *q
		q = &fq
	}
	c.start(q)
	resp := c.run(q, cancel)
	c.trace(q)
	return resp
}

// route takes each request an accepted conn delivered, on the read loop, and
// never blocks it. A local folder op on a memory-only store, where nothing
// can wait, runs right here (folder.Server.Serve): answered on the spot, or
// parked in the store as a waiter record that holds p — no thread waits on
// it — and answered by the deposit that fills it or the cancel that ends it.
// One that might wait — an op on a durable store, whose commit waits on the
// group fsync, or a tokened take whose token another attempt holds — runs on
// a thread with its folder server in hand. A forward — folder- or
// host-scoped — is relayed from here onto the live peer conn and answered
// from that conn's receive loop with no thread (see Complete); one whose
// link must first be dialed, or whose conn refused it, continues on a
// thread in the link's retry loop. Node- and host-scoped verbs this node
// answers run on a thread (runCall). An untraced local op needs no record;
// anything else becomes a pooled call.
//
//memolint:nonblocking
func (n *Node) route(p *rpc.Pending) {
	q := p.Request()
	c := n.open(q)
	if fs := c.to.fs; fs != nil && !c.traced {
		if resp, ok := fs.Serve(q, p); !ok {
			p.Run(runLocal, fs)
		} else if resp != nil {
			p.Reply(resp)
		}
		return
	}
	r := callPool.Get().(*call)
	*r = c
	r.p = p
	if fs := c.to.fs; fs != nil {
		r.start(q)
		if resp, ok := fs.Serve(q, r); !ok {
			p.Run(runCall, r)
		} else if resp != nil {
			r.finish(q)
			p.Reply(resp)
		}
		return
	}
	if c.to.pl == nil {
		p.Run(runCall, r)
		return
	}
	r.start(q)
	if conn := c.to.pl.live(); conn != nil {
		err := p.Relay(conn, r)
		if err == nil {
			return // r belongs to the call now, and may already be recycled
		}
		r.err = err
	}
	p.Run(runCall, r)
}

// The RunFuncs route hands a request to a thread with. Static functions:
// the decision rides as the Pending's arg, so no closure is allocated.
func runLocal(p *rpc.Pending) *wire.Response {
	return p.Arg().(*folder.Server).Handle(p.Request(), p.Cancel())
}

// runCall runs a call on a thread. A threaded request starts here, so its
// memo span's wait is the time it queued before a thread took it; a relay
// started on the read loop, and a local op that Serve refused restarts its
// span here.
func runCall(p *rpc.Pending) *wire.Response {
	c := p.Arg().(*call)
	q := p.Request()
	if c.to.pl == nil {
		c.start(q)
	}
	resp := c.run(q, p.Cancel())
	c.finish(q)
	return resp
}

// Hold and Answer make a traced local op's call the folder store's Answerer:
// the store's cancel hook goes on to the inbound request, and the answer —
// from whichever goroutine completed the parked read — records the call's
// trace first.
func (c *call) Hold(h wire.Canceler, id uint64) { c.p.Hold(h, id) }

// Answer is the Answerer half; see Hold.
//
//memolint:nonblocking
func (c *call) Answer(resp *wire.Response) {
	p := c.p
	c.finish(p.Request())
	p.Answer(resp)
}

// Complete answers a relayed request from the peer conn's receive loop with
// the peer's response message as it stands; a failed call continues in the
// link's retry loop on a thread, from that failure.
func (c *call) Complete(_ *wire.Response, msg []byte, err error) {
	p := c.p
	if err != nil {
		c.err = err
		p.Run(runCall, c)
		return
	}
	c.finish(p.Request())
	p.AnswerEncoded(msg)
}

// start sets q on its way. A forward becomes its forwarded form in place:
// one more hop, its dedup token stamped once. A traced call's memo span
// starts now.
func (c *call) start(q *wire.Request) {
	if pl := c.to.pl; pl != nil {
		q.Hops++
		pl.stamp(q)
	}
	if c.traced {
		c.startNS = time.Now().UnixNano()
	}
}

// run answers q at its destination on the calling goroutine, blocking until
// it is answered: the error that ends it, the link's retry loop (continuing
// from c.err, if the read loop's attempt failed), this node, or the folder
// server. The goroutine is a thread of this node running a request route
// could not answer without one, or an in-process Dispatch caller, so it runs
// the folder server's handler itself: a blocking verb that finds nothing
// parks a waiter record in the store and waits on it here, and cancel
// reaches that record, which a wake re-scans under the shard lock, so a
// canceled request strands no memo.
func (c *call) run(q *wire.Request, cancel <-chan struct{}) *wire.Response {
	switch {
	case c.to.resp != nil:
		return c.to.resp
	case c.to.pl != nil:
		return c.to.pl.relay(q, cancel, c.err)
	case c.to.fs == nil:
		return c.n.execute(c.to.app, q)
	}
	return c.to.fs.Handle(q, cancel)
}

// trace records a traced call's spans on every outcome, once it has
// completed: for a sampled forward, a link span named after the peer —
// dial, batcher queue, retries, remote work; a failed relay's span is the
// one that names the peer it failed on — and this node's memo span, from
// startNS until now, at the hop q arrived with (a forward's q is one on).
func (c *call) trace(q *wire.Request) {
	if !c.traced {
		return
	}
	endNS := time.Now().UnixNano()
	hop := q.Hops
	if pl := c.to.pl; pl != nil {
		hop--
		if q.Spans != nil {
			q.Spans.Add(wire.Span{Layer: "link", Op: pl.host, Folder: q.FolderID,
				Hop: hop, Start: c.startNS, Dur: endNS - c.startNS})
		}
	}
	own := wire.Span{Layer: "memo", Op: q.Op.String(), Folder: q.FolderID,
		Hop: hop, Start: c.startNS, Dur: endNS - c.startNS}
	if q.EnqueueNS > 0 && own.Start > q.EnqueueNS {
		// Time spent in the rpc dispatch queue before the call started
		// (stamped by the rpc server only on sampled entries).
		own.Wait = own.Start - q.EnqueueNS
	}
	c.n.tracer.Finish(q, c.set, own)
}

// finish traces a pooled call and recycles it.
func (c *call) finish(q *wire.Request) {
	c.trace(q)
	*c = call{}
	callPool.Put(c)
}

// execute runs a verb this node answers itself: the node-scoped ones, and
// the host-scoped ones (§4.4 program pumping) once they have reached their
// target host. app is nil for node-scoped verbs.
func (n *Node) execute(app *App, q *wire.Request) *wire.Response {
	switch q.Op {
	case wire.OpPing:
		return wire.OK()
	case wire.OpRegister:
		f, err := adf.Parse(q.ADF)
		if err != nil {
			return wire.Errf("register: %v", err)
		}
		if err := n.RegisterApp(f); err != nil {
			return wire.Errf("register: %v", err)
		}
		return wire.OK()
	case wire.OpPump:
		if q.Dir == "" {
			return wire.Errf("pump: empty program name")
		}
		app.StoreProgram(q.Dir, q.Payload)
		return wire.OK()
	case wire.OpFetch:
		blob, ok := app.Program(q.Dir)
		if !ok {
			return wire.Errf("fetch: no program %q pumped to %s", q.Dir, n.Host)
		}
		return &wire.Response{Status: wire.StatusOK, Payload: blob}
	}
	return wire.Errf("memo server %s: unsupported op %s", n.Host, q.Op)
}

// relay sends fq — a forwarded request, one hop further than it arrived —
// over the link and waits for the response in the link's one retry loop
// (rlink.call), continuing from first when an attempt sent from the read
// loop already failed with it, and answers the hop behind through wire.Fail.
func (pl *peerLink) relay(fq *wire.Request, cancel <-chan struct{}, first error) *wire.Response {
	resp, err := pl.call(fq, cancel, first, &pl.n.retried)
	if err != nil {
		return wire.Fail(fmt.Errorf("memo server %s: forward to %s: %w", pl.n.Host, pl.host, err))
	}
	return resp
}

// peer returns the resilient link to a neighbouring memo server, creating
// it on first use. Creation does not dial: the link connects
// lazily, so a down neighbour costs its callers dial errors, never a
// missing table entry.
func (n *Node) peer(host string) (*peerLink, error) {
	if v, ok := n.peers.Load(host); ok {
		return v.(*peerLink), nil
	}
	if n.isClosed() {
		return nil, fmt.Errorf("memo server %s closed", n.Host)
	}
	p := n.newPeerLink(host)
	if exist, loaded := n.peers.LoadOrStore(host, p); loaded {
		p.close()
		return exist.(*peerLink), nil
	}
	if n.isClosed() { // raced Close; don't leak the link
		n.dropPeer(host)
		return nil, fmt.Errorf("memo server %s closed", n.Host)
	}
	return p, nil
}

func (n *Node) dropPeer(host string) {
	if v, ok := n.peers.LoadAndDelete(host); ok {
		v.(*peerLink).close()
	}
}

// never is a cancel channel that never fires, for background deliveries: a
// nil channel, which belongs to no testing/synctest bubble.
var never chan struct{}

// forwardRelease delivers a put_delayed release to wherever the destination
// folder lives. It runs asynchronously: the releasing Put must not block on
// remote delivery, and the destination may even be a folder on the same
// store (which would deadlock a synchronous call through the thread cache).
// The release token rides as the deposit's dedup token, and done reports
// whether the delivery was acknowledged — so the releasing store logs the
// release done or clears the entry's in-flight mark for the next trigger,
// and any re-delivery deduplicates.
func (n *Node) forwardRelease(appName string, dest symbol.Key, payload []byte, relToken uint64, done func(delivered bool)) {
	app, ok := n.lookupApp(appName)
	if !ok {
		done(false)
		return
	}
	target := app.Place.Place(dest)
	q := &wire.Request{
		Op:       wire.OpPut,
		App:      appName,
		FolderID: target.ID,
		Key:      dest,
		Payload:  payload,
		Token:    relToken,
	}
	go func() { done(n.Dispatch(q, never).Status == wire.StatusOK) }()
}

// RegisterMetrics attaches this node's series to reg: the node_* routing
// counters, the tracer's two totals, plus a scrape-time collector that walks
// the node's folder servers (their folder_* series), has the thread cache
// render its threadcache_* series (each accepted conn's read loop and every
// request that needs a thread run on this cache; an op on a memory-only
// folder and a forward the read loop relays take none) and renders each
// peer link's counters and last dial error as the node_link_* series, one
// {peer} sample each.
func (n *Node) RegisterMetrics(reg *obs.Registry) {
	reg.RegisterCounter("node_local_ops_total", "requests resolved on this host", nil, &n.localOps)
	reg.RegisterCounter("node_forwards_total", "requests forwarded to a peer memo server", nil, &n.forwards)
	reg.RegisterCounter("node_retried_total", "forwarded calls re-issued after a link failure", nil, &n.retried)
	reg.RegisterCounter("node_apps_registered_total", "application registrations", nil, &n.registered)
	n.tracer.RegisterMetrics(reg)
	reg.RegisterCollector(func(e *obs.Emitter) {
		n.apps.Range(func(_, v any) bool {
			app := v.(*App)
			for _, fs := range app.local {
				fs.Collect(e)
			}
			return true
		})
		n.pool.Collect(e)
		links := map[string]*peerLink{}
		n.peers.Range(func(host, v any) bool {
			links[host.(string)] = v.(*peerLink)
			return true
		})
		e.Gauge("node_peer_links", "open peer links", nil, int64(len(links)))
		for _, host := range slices.Sorted(maps.Keys(links)) {
			l := links[host]
			peer := map[string]string{"peer": host}
			e.Counter("node_link_dials_total", "successful peer-link dials", peer, l.dials.Load())
			e.Counter("node_link_failed_dials_total", "failed peer-link dial attempts", peer, l.failedDials.Load())
			e.Counter("node_link_faults_total", "peer-link faults (link declared dead)", peer, l.faults.Load())
			lastErr, failing := "", int64(0)
			l.mu.Lock()
			if l.lastErr != nil {
				lastErr, failing = l.lastErr.Error(), 1
			}
			l.mu.Unlock()
			e.Gauge("node_link_error", "1 while the peer link's last dial failed, naming that error; 0 with an empty error once a dial heals it",
				map[string]string{"peer": host, "error": lastErr}, failing)
		}
	})
}
