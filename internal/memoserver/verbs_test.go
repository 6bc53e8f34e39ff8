package memoserver

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/folder"
	"repro/internal/obs"
	"repro/internal/rpc"
	"repro/internal/symbol"
	"repro/internal/threadcache"
	"repro/internal/transport"
	"repro/internal/wire"
)

// verbRows is what this package's decisions must come out as for every verb,
// written out literally so that a wrong row in the wire op table (or a wrong
// reading of it) fails here rather than agreeing with itself.
var verbRows = []struct {
	op wire.Op
	// stamps: rlink.call mints a dedup token when retries are armed and the
	// request carries none.
	stamps bool
	// inFlight: re-issued after a link death although the first attempt
	// reached the wire (tokened verbs qualify because they were stamped).
	inFlight bool
	// local: Node.dispatch runs the verb against the folder server on its
	// own host. Verbs the node answers itself never reach one.
	local bool
}{
	{op: wire.OpPut, stamps: true, inFlight: true, local: true},
	{op: wire.OpPutDelayed, stamps: true, inFlight: true, local: true},
	{op: wire.OpGet, stamps: true, inFlight: true, local: true},
	{op: wire.OpGetCopy, inFlight: true, local: true},
	{op: wire.OpGetSkip, stamps: true, inFlight: true, local: true},
	{op: wire.OpAltTake, stamps: true, inFlight: true, local: true},
	{op: wire.OpWatch, inFlight: true, local: true},
	{op: wire.OpRegister, inFlight: true},
	{op: wire.OpPing, inFlight: true},
	{op: wire.OpPump},
	{op: wire.OpFetch, inFlight: true},
}

// scriptedPeer is the far end of an rlink: an in-process listener whose
// connections are answered by rpc.Serve with a handler that records every
// arrival and, while drops remain, kills the link instead of answering — the
// "request reached the wire, response never came" failure.
type scriptedPeer struct {
	ip      *transport.InProc
	threads *threadcache.Pool
	handle  rpc.Handler

	mu       sync.Mutex
	conns    []transport.Conn
	arrivals []uint64 // the token each arriving request carried
	drops    int
}

func newScriptedPeer(t *testing.T, handle rpc.Handler) *scriptedPeer {
	t.Helper()
	p := &scriptedPeer{ip: transport.NewInProc(), threads: threadcache.New(threadcache.Config{}), handle: handle}
	l, err := p.ip.Listen(MemoAddr("peer"))
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		for {
			conn, err := l.Accept()
			if err != nil {
				return
			}
			p.mu.Lock()
			p.conns = append(p.conns, conn)
			p.mu.Unlock()
			go func() {
				_ = rpc.Serve(conn, p.serve, p.threads.SubmitArg, rpc.Policy{})
				conn.Close()
			}()
		}
	}()
	t.Cleanup(func() {
		l.Close()
		p.sever()
		p.threads.Close()
	})
	return p
}

func (p *scriptedPeer) serve(q *wire.Request, cancel <-chan struct{}) *wire.Response {
	resp := p.handle(q, cancel)
	p.mu.Lock()
	p.arrivals = append(p.arrivals, q.Token)
	drop := p.drops > 0
	if drop {
		p.drops--
	}
	p.mu.Unlock()
	if drop {
		p.sever()
	}
	return resp
}

// sever closes every connection accepted so far.
func (p *scriptedPeer) sever() {
	p.mu.Lock()
	conns := p.conns
	p.conns = nil
	p.mu.Unlock()
	for _, c := range conns {
		c.Close()
	}
}

func (p *scriptedPeer) tokens() []uint64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return append([]uint64(nil), p.arrivals...)
}

// wedgeConn is a raw link end whose sends can be wedged: once stuck, every
// Send signals entered and blocks until release, then fails — a peer that
// stopped reading, then died.
type wedgeConn struct {
	transport.Conn
	stuck   atomic.Bool
	entered chan struct{}
	release chan struct{}
	once    sync.Once
}

func (w *wedgeConn) Send(msg []byte) error {
	if w.stuck.Load() {
		w.once.Do(func() { close(w.entered) })
		<-w.release
		return transport.ErrClosed
	}
	return w.Conn.Send(msg)
}

// link dials the peer the way Client and Node do; raw is the client end of
// the link's latest connection.
func (p *scriptedPeer) link(t *testing.T, retries int) (l *rlink, raw func() *wedgeConn) {
	t.Helper()
	var mu sync.Mutex
	var last *wedgeConn
	l = newRlink(func() (transport.Conn, error) {
		c, err := p.ip.Dial(MemoAddr("peer"))
		if err != nil {
			return nil, err
		}
		mu.Lock()
		defer mu.Unlock()
		last = &wedgeConn{Conn: c, entered: make(chan struct{}), release: make(chan struct{})}
		return last, nil
	}, rpc.Policy{}, rpc.Resilience{Retries: retries, Redial: transport.Backoff{Min: time.Millisecond, Max: 5 * time.Millisecond}})
	t.Cleanup(l.close)
	return l, func() *wedgeConn {
		mu.Lock()
		defer mu.Unlock()
		return last
	}
}

// rpcCalls reads rpc_calls_total: rpc.Conn.Call entries, process-wide.
func rpcCalls() int64 {
	for _, s := range obs.Default.Snapshot() {
		if s.Name == "rpc_calls_total" {
			return *s.Samples[0].Value
		}
	}
	return 0
}

func okHandler(*wire.Request, <-chan struct{}) *wire.Response { return wire.OK() }

// How the link dies under a verb-matrix call.
const (
	// diesSent: the request arrives and the link dies under it — the
	// maybe-executed LinkError{Sent: true}.
	diesSent = "sent=true"
	// diesQueued: the request is still queued in the batcher behind a
	// wedged in-flight frame when the link dies — the provably-unsent
	// LinkError{Sent: false}.
	diesQueued = "sent=false"
	// diesBefore: the link is already dead, and known to be, when the call
	// starts; the dead conn is never handed out, so nothing fails.
	diesBefore = "dead"
)

// TestVerbMatrixRetryAndStamp drives rlink.call for every verb × {token
// preset, none} × {how the link dies} × {retries armed, off} and holds the
// retry and stamp decisions to verbRows.
func TestVerbMatrixRetryAndStamp(t *testing.T) {
	if len(verbRows) != int(wire.OpFetch) {
		t.Fatalf("verbRows has %d rows for %d verbs", len(verbRows), wire.OpFetch)
	}
	const preset = 0xABCDEF
	for i, row := range verbRows {
		if row.op != wire.Op(i+1) {
			t.Fatalf("verbRows[%d] is %v, want %v", i, row.op, wire.Op(i+1))
		}
		for _, token := range []uint64{0, preset} {
			for _, dies := range []string{diesSent, diesQueued, diesBefore} {
				for _, retries := range []int{0, 1} {
					name := fmt.Sprintf("%v/token=%x/%s/retries=%d", row.op, token, dies, retries)
					t.Run(name, func(t *testing.T) {
						p := newScriptedPeer(t, okHandler)
						l, raw := p.link(t, retries)
						q := &wire.Request{Op: row.op, App: "x", Token: token}
						var retried obs.Counter
						var err error
						switch dies {
						case diesSent:
							p.drops = 1
							_, _, err = l.call(q, nil, &retried)
						case diesQueued:
							err = callBehindWedge(t, l, raw, q, &retried)
						case diesBefore:
							conn, gerr := l.get(nil)
							if gerr != nil {
								t.Fatal(gerr)
							}
							raw().Close()
							<-conn.Done()
							_, _, err = l.call(q, nil, &retried)
						}

						wantToken := token
						if wantToken == 0 && row.stamps && retries > 0 {
							wantToken = q.Token
							if wantToken == 0 {
								t.Fatal("no token stamped on the caller's request")
							}
						}
						if q.Token != wantToken {
							t.Fatalf("request token %x after the call, want %x", q.Token, wantToken)
						}
						wantRetry := retries > 0 && (dies == diesQueued || row.inFlight && dies == diesSent)
						wantErr := dies != diesBefore && !wantRetry
						wantArrivals := 0
						if dies == diesSent {
							wantArrivals++
						}
						if !wantErr {
							wantArrivals++
						}
						if wantErr != (err != nil) || wantRetry != (retried.Load() == 1) {
							t.Fatalf("err %v, retried %d; want error = %v, retry = %v", err, retried.Load(), wantErr, wantRetry)
						}
						var le *rpc.LinkError
						if err != nil && (!errors.As(err, &le) || le.Sent != (dies == diesSent)) {
							t.Fatalf("err %v, want a LinkError with Sent = %v", err, dies == diesSent)
						}
						got := p.tokens()
						if len(got) != wantArrivals {
							t.Fatalf("%d attempts arrived, want %d", len(got), wantArrivals)
						}
						for _, tok := range got {
							if tok != wantToken {
								t.Fatalf("attempt arrived with token %x, want %x on every attempt (%x)", tok, wantToken, got)
							}
						}
					})
				}
			}
		}
	}
}

// callBehindWedge issues q on l while the link's wire is wedged under
// another request's frame, kills the link once q's call has its conn, and
// returns the call's error. Whether q's entry made the batcher queue before
// the death or reached the dead conn after it, it never reached the wire.
func callBehindWedge(t *testing.T, l *rlink, raw func() *wedgeConn, q *wire.Request, retried *obs.Counter) error {
	t.Helper()
	conn, err := l.get(nil)
	if err != nil {
		t.Fatal(err)
	}
	w := raw()
	w.stuck.Store(true)
	go func() {
		// The frame that wedges the wire; its call dies with the link.
		_, _ = conn.Call(&wire.Request{Op: wire.OpPing, App: "x"}, nil)
	}()
	<-w.entered
	calls := rpcCalls()
	errc := make(chan error, 1)
	go func() {
		_, _, err := l.call(q, nil, retried)
		errc <- err
	}()
	// get returns before Conn.Call counts, so once the count moves q's
	// attempt holds the live conn.
	for rpcCalls() == calls {
		time.Sleep(100 * time.Microsecond)
	}
	close(w.release)
	return <-errc
}

// TestVerbMatrixLocalDispatch dispatches every verb at a node that owns the
// folder: each is answered, and the folder-scoped ones — blocking or not —
// count as one local op.
func TestVerbMatrixLocalDispatch(t *testing.T) {
	k := symbol.K(3)
	for _, row := range verbRows {
		t.Run(row.op.String(), func(t *testing.T) {
			tn := bootNet(t, twoHostADF, Config{})
			node := tn.nodes["a"]
			fs, _ := node.LocalFolderServer(tn.file.App, 0)
			// A memo for the reading verbs to find, so none of them parks.
			if err := fs.Store().Put(k, []byte("m")); err != nil {
				t.Fatal(err)
			}
			resp := node.Dispatch(&wire.Request{Op: row.op, App: tn.file.App, FolderID: 0,
				Key: k, Key2: symbol.K(4), Keys: []symbol.Key{k}, Payload: []byte("p"),
				ADF: twoHostADF, Dir: "prog"}, never)
			if resp.Status == wire.StatusErr && row.op != wire.OpFetch { // nothing was pumped
				t.Fatalf("%+v", resp)
			}
			if got := node.Stats().LocalOps == 1; got != row.local {
				t.Errorf("ran against the local folder server = %v, want %v", got, row.local)
			}
		})
	}
}

// TestRetriedPutCarriesOneToken: a put whose link dies under two successive
// attempts reaches the folder server three times with the one token rlink
// stamped before the first, so the folder server deposits it once.
func TestRetriedPutCarriesOneToken(t *testing.T) {
	fs := folder.NewServer(0, "peer", folder.NewStore(), threadcache.Config{})
	t.Cleanup(fs.Close)
	p := newScriptedPeer(t, fs.Handle)
	p.drops = 2
	l, _ := p.link(t, 2)
	var retried obs.Counter
	q := &wire.Request{Op: wire.OpPut, Key: symbol.K(1), Payload: []byte("once")}
	resp, _, err := l.call(q, nil, &retried)
	if err != nil || resp.Status != wire.StatusOK {
		t.Fatalf("put across two link deaths: %+v %v", resp, err)
	}
	got := p.tokens()
	if len(got) != 3 || q.Token == 0 {
		t.Fatalf("arrivals %x, request token %x; want 3 arrivals under one stamped token", got, q.Token)
	}
	for _, tok := range got {
		if tok != q.Token {
			t.Fatalf("attempts arrived with tokens %x, want %x on each", got, q.Token)
		}
	}
	if n, st := fs.Store().MemoCount(), fs.Store().Stats(); n != 1 || st.DupPuts != int64(len(got)-1) {
		t.Fatalf("%d memos, %d deduplicated puts after %d arrivals; want 1 and %d", n, st.DupPuts, len(got), len(got)-1)
	}
}
