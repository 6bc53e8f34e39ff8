package transport

import (
	"errors"
	"testing"
	"time"

	"repro/internal/pool"
)

// simPair builds a Sim with links a↔b and c↔b, listens on "b/svc", and
// dials it from host a; it returns the Sim, both ends of the conn, and the
// channel later accepted ends arrive on.
func simPair(t *testing.T) (*Sim, Conn, Conn, <-chan Conn) {
	t.Helper()
	model := NewNetModel(0)
	model.SetLink("a", "b", 1)
	model.SetLink("b", "a", 1)
	model.SetLink("c", "b", 1)
	model.SetLink("b", "c", 1)
	s := NewSim(model)
	l, err := s.Listen("b/svc")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	accepted := make(chan Conn, 8)
	go func() {
		for {
			c, err := l.Accept()
			if err != nil {
				return
			}
			select {
			case accepted <- c:
			default: // past the buffer, server ends stay open, unread
			}
		}
	}()
	dialed, err := s.DialFrom("a", "b/svc")
	if err != nil {
		t.Fatal(err)
	}
	return s, dialed, <-accepted, accepted
}

// accept waits for the next accepted end.
func accept(t *testing.T, accepted <-chan Conn) Conn {
	t.Helper()
	select {
	case c := <-accepted:
		return c
	case <-time.After(2 * time.Second):
		t.Fatal("no conn accepted")
		return nil
	}
}

func TestSimHealthyPassThrough(t *testing.T) {
	s, cl, srv, _ := simPair(t)
	if err := cl.Send([]byte("ping")); err != nil {
		t.Fatal(err)
	}
	msg, err := srv.Recv()
	if err != nil || string(msg) != "ping" {
		t.Fatalf("recv %q %v", msg, err)
	}
	if err := srv.Send([]byte("pong!")); err != nil {
		t.Fatal(err)
	}
	if msg, err := cl.Recv(); err != nil || string(msg) != "pong!" {
		t.Fatalf("recv %q %v", msg, err)
	}
	if msgs, bytes := s.Model().LinkTraffic("a", "b"); msgs != 1 || bytes != 4 {
		t.Fatalf("a→b traffic %d msgs %d bytes, want 1/4", msgs, bytes)
	}
	if msgs, bytes := s.Model().LinkTraffic("b", "a"); msgs != 1 || bytes != 5 {
		t.Fatalf("b→a traffic %d msgs %d bytes, want 1/5", msgs, bytes)
	}
}

// TestSimSeverIsUnordered: a pair is a pair whichever way it is named, so
// Sever("b", "a") cuts a conn a dialed to b, and Restore("a", "b") undoes it.
func TestSimSeverIsUnordered(t *testing.T) {
	s, cl, _, _ := simPair(t)
	s.Sever("b", "a")
	if err := cl.Send([]byte("x")); err == nil {
		t.Fatal("send succeeded after Sever named the pair in reverse")
	}
	if _, err := s.DialFrom("a", "b/svc"); !errors.Is(err, ErrSevered) {
		t.Fatalf("dial after reverse Sever: %v, want ErrSevered", err)
	}
	s.Restore("a", "b")
	if _, err := s.DialFrom("a", "b/svc"); err != nil {
		t.Fatalf("dial after Restore named in the other order: %v", err)
	}
}

// TestSimSeverSparesOtherPairs: cutting a↔b leaves a live c↔b conn carrying
// traffic both ways, and closes (and counts) only the two a↔b ends.
func TestSimSeverSparesOtherPairs(t *testing.T) {
	s, _, _, accepted := simPair(t)
	other, err := s.DialFrom("c", "b/svc")
	if err != nil {
		t.Fatal(err)
	}
	otherSrv := accept(t, accepted)

	before := mInjections.Load()
	s.Sever("a", "b")
	if got := mInjections.Load() - before; got != 2 {
		t.Fatalf("sever counted %d injections, want 2 (the a↔b ends only)", got)
	}
	if err := other.Send([]byte("still")); err != nil {
		t.Fatalf("c→b send after a↔b sever: %v", err)
	}
	if msg, err := otherSrv.Recv(); err != nil || string(msg) != "still" {
		t.Fatalf("c→b recv %q %v", msg, err)
	}
	if err := otherSrv.Send([]byte("here")); err != nil {
		t.Fatalf("b→c send after a↔b sever: %v", err)
	}
	if msg, err := other.Recv(); err != nil || string(msg) != "here" {
		t.Fatalf("b→c recv %q %v", msg, err)
	}
}

// TestSimRestoreDoesNotReviveConns: Restore only lets the pair dial again;
// the conns Sever closed stay dead, so recovery is the redialer's job.
func TestSimRestoreDoesNotReviveConns(t *testing.T) {
	s, cl, srv, _ := simPair(t)
	s.Sever("a", "b")
	s.Restore("a", "b")
	if err := cl.Send([]byte("x")); !errors.Is(err, ErrClosed) {
		t.Fatalf("send on a severed conn after Restore: %v, want ErrClosed", err)
	}
	if _, err := srv.Recv(); !errors.Is(err, ErrClosed) {
		t.Fatalf("recv on a severed conn after Restore: %v, want ErrClosed", err)
	}
}

// TestSimAcceptSkipsConnCutBeforeAccept: a conn dialed before a Sever but
// still in the accept backlog is refused at accept, so it never reaches the
// server; Accept goes on to the next healthy conn.
func TestSimAcceptSkipsConnCutBeforeAccept(t *testing.T) {
	model := NewNetModel(0)
	model.SetLink("a", "b", 1)
	model.SetLink("c", "b", 1)
	s := NewSim(model)
	l, err := s.Listen("b/svc")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if _, err := s.DialFrom("a", "b/svc"); err != nil {
		t.Fatal(err)
	}
	before := mInjections.Load()
	s.Sever("a", "b")
	if _, err := s.DialFrom("c", "b/svc"); err != nil {
		t.Fatal(err)
	}
	srv, err := l.Accept()
	if err != nil {
		t.Fatal(err)
	}
	if got := srv.RemoteAddr(); got != "c" {
		t.Fatalf("accepted the conn from %q, want the one from c", got)
	}
	// One end closed by Sever (the dialer's), one refused at accept.
	if got := mInjections.Load() - before; got != 2 {
		t.Fatalf("counted %d injections, want 2", got)
	}
}

// TestSimCloseUntracks: a closed conn leaves the Sim's books, so a long run
// that churns conns holds none of them, and a later Sever counts none.
func TestSimCloseUntracks(t *testing.T) {
	s, cl, srv, _ := simPair(t)
	cl.Close()
	srv.Close()
	s.mu.Lock()
	n := len(s.conns)
	s.mu.Unlock()
	if n != 0 {
		t.Fatalf("%d conns still tracked after both ends closed", n)
	}
	before := mInjections.Load()
	s.Sever("a", "b")
	if got := mInjections.Load() - before; got != 0 {
		t.Fatalf("sever of a pair with no live conns counted %d injections", got)
	}
}

func TestSimSeverKillsConnsAndDials(t *testing.T) {
	s, cl, srv, _ := simPair(t)
	recvErr := make(chan error, 1)
	go func() {
		_, err := srv.Recv()
		recvErr <- err
	}()

	before := mInjections.Load()
	s.Sever("a", "b")
	if got := mInjections.Load() - before; got != 2 {
		t.Fatalf("sever counted %d injections, want 2 (one per closed end)", got)
	}
	if err := cl.Send([]byte("x")); err == nil {
		t.Fatal("send succeeded on a severed link")
	}
	select {
	case err := <-recvErr:
		if err == nil {
			t.Fatal("blocked Recv returned nil after sever")
		}
	case <-time.After(2 * time.Second):
		t.Fatal("blocked Recv survived the sever")
	}
	before = mInjections.Load()
	if _, err := s.DialFrom("a", "b/svc"); !errors.Is(err, ErrSevered) {
		t.Fatalf("dial on severed link: %v, want ErrSevered", err)
	}
	if mInjections.Load() == before {
		t.Fatal("a refused dial was not counted")
	}
	// An unrelated pair still dials (sever is per-link).
	if _, err := s.DialFrom("c", "b/svc"); err != nil {
		t.Fatalf("dial on healthy pair failed: %v", err)
	}

	s.Restore("a", "b")
	c2, err := s.DialFrom("a", "b/svc")
	if err != nil {
		t.Fatalf("dial after Restore: %v", err)
	}
	if err := c2.Send([]byte("back")); err != nil {
		t.Fatalf("send after Restore: %v", err)
	}
}

// TestSimAcceptKnowsDialerHost: the accepted end knows its peer's host from
// the moment it is accepted, so a server that speaks first is delayed and
// counted on the right link.
func TestSimAcceptKnowsDialerHost(t *testing.T) {
	s, cl, srv, _ := simPair(t)
	if got := srv.RemoteAddr(); got != "a" {
		t.Fatalf("accepted end RemoteAddr = %q, want %q", got, "a")
	}
	if err := srv.Send([]byte("hello")); err != nil {
		t.Fatal(err)
	}
	if msg, err := cl.Recv(); err != nil || string(msg) != "hello" {
		t.Fatalf("recv %q %v", msg, err)
	}
	if msgs, _ := s.Model().LinkTraffic("b", "a"); msgs != 1 {
		t.Fatalf("server's first send counted %d times on b→a, want 1", msgs)
	}
}

// TestSimRoundTripAllocatesNothing: a healthy round trip over the sim adds
// nothing to the in-process pipe's pooled handoff copy, so a ping-pong whose
// ends recycle what they receive allocates nothing.
func TestSimRoundTripAllocatesNothing(t *testing.T) {
	_, cl, srv, _ := simPair(t)
	go func() {
		for {
			msg, err := srv.Recv()
			if err != nil {
				return
			}
			err = srv.Send(msg)
			pool.Put(msg)
			if err != nil {
				return
			}
		}
	}()
	ping := make([]byte, 256)
	round := func() {
		if err := cl.Send(ping); err != nil {
			t.Fatal(err)
		}
		msg, err := cl.Recv()
		if err != nil || len(msg) != len(ping) {
			t.Fatalf("recv %d bytes, %v", len(msg), err)
		}
		pool.Put(msg)
	}
	round() // warm the pool class
	if allocs := testing.AllocsPerRun(200, round); allocs > 0 {
		t.Fatalf("sim round trip allocates %.1f/op, want 0", allocs)
	}
}
