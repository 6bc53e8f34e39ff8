package transport

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"net"
	"sync"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/pool"
)

// TestTCPIdleTimeout verifies a silent peer trips the read deadline instead
// of wedging Recv forever.
func TestTCPIdleTimeout(t *testing.T) {
	srv := &TCP{IdleTimeout: 50 * time.Millisecond}
	l, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()

	accepted := make(chan Conn, 1)
	go func() {
		c, err := l.Accept()
		if err == nil {
			accepted <- c
		}
	}()
	cli, err := NewTCP().Dial(l.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	sc := <-accepted
	defer sc.Close()

	// Traffic inside the window keeps the connection alive.
	for i := 0; i < 3; i++ {
		time.Sleep(20 * time.Millisecond)
		if err := cli.Send([]byte("tick")); err != nil {
			t.Fatal(err)
		}
		if _, err := sc.Recv(); err != nil {
			t.Fatal(err)
		}
	}

	// Silence beyond the window fails the read with ErrIdleTimeout.
	start := time.Now()
	_, err = sc.Recv()
	if !errors.Is(err, ErrIdleTimeout) {
		t.Fatalf("Recv on silent conn: %v, want ErrIdleTimeout", err)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("idle timeout took %v", elapsed)
	}
}

// TestTCPIdleTimeoutTearsDownMux verifies the idle error surfaces through
// Mux.Run — a dead peer can no longer wedge the mux read pump.
func TestTCPIdleTimeoutTearsDownMux(t *testing.T) {
	srv := &TCP{IdleTimeout: 50 * time.Millisecond}
	l, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()

	accepted := make(chan Conn, 1)
	go func() {
		c, err := l.Accept()
		if err == nil {
			accepted <- c
		}
	}()
	cli, err := NewTCP().Dial(l.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	sc := <-accepted

	mux := NewMux(sc, 4096)
	runErr := make(chan error, 1)
	go func() { runErr <- mux.Run() }()

	// The dialer goes silent; the server mux must tear down by itself.
	select {
	case err := <-runErr:
		if !errors.Is(err, ErrIdleTimeout) {
			t.Fatalf("Mux.Run returned %v, want ErrIdleTimeout", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("mux read pump wedged on a silent peer")
	}
	// Channels observe the teardown.
	ch := mux.Channel(1)
	select {
	case <-ch.Done():
	case <-time.After(time.Second):
		t.Fatal("channel not torn down after idle timeout")
	}
}

// TestTCPNoIdleTimeoutByDefault: the default transport must keep blocking
// reads unbounded (folder waits can be arbitrarily long).
func TestTCPNoIdleTimeoutByDefault(t *testing.T) {
	l, err := NewTCP().Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	accepted := make(chan Conn, 1)
	go func() {
		c, err := l.Accept()
		if err == nil {
			accepted <- c
		}
	}()
	cli, err := NewTCP().Dial(l.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	sc := <-accepted
	defer sc.Close()

	got := make(chan error, 1)
	go func() {
		_, err := sc.Recv()
		got <- err
	}()
	select {
	case err := <-got:
		t.Fatalf("Recv returned early: %v", err)
	case <-time.After(150 * time.Millisecond):
	}
	// A late message still arrives.
	if err := cli.Send([]byte("late")); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-got:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("late message never received")
	}
}

// fakeNetConn is a net.Conn whose read side serves a preloaded byte string
// (then EOF) and whose write side records each Write, so the framing tests
// count socket operations instead of inferring them.
type fakeNetConn struct {
	net.Conn // nil: without an idle timeout only Read and Write are reached
	in       []byte
	reads    int
	writes   [][]byte
}

func (f *fakeNetConn) Read(p []byte) (int, error) {
	f.reads++
	if len(f.in) == 0 {
		return 0, io.EOF
	}
	n := copy(p, f.in)
	f.in = f.in[n:]
	return n, nil
}

func (f *fakeNetConn) Write(p []byte) (int, error) {
	f.writes = append(f.writes, bytes.Clone(p))
	return len(p), nil
}

// frame returns body behind its 4-byte length header.
func frame(body []byte) []byte {
	return append(binary.BigEndian.AppendUint32(nil, uint32(len(body))), body...)
}

func oversizeGets(t *testing.T) int64 {
	var b bytes.Buffer
	if err := obs.Default.WriteProm(&b); err != nil {
		t.Fatal(err)
	}
	samples, err := obs.ParseText(&b)
	if err != nil {
		t.Fatal(err)
	}
	return int64(obs.Sum(samples, "pool_oversize_total"))
}

// TestTCPSendIsOneWrite: header and body of a frame leave in a single
// write, and an oversized body never reaches the socket.
func TestTCPSendIsOneWrite(t *testing.T) {
	for _, n := range []int{0, 1, 64, 4096, 65000} {
		f := &fakeNetConn{}
		c := NewTCP().newConn(f)
		body := bytes.Repeat([]byte{byte(n)}, n)
		before := mWrites.Load()
		if err := c.Send(body); err != nil {
			t.Fatalf("send %d: %v", n, err)
		}
		if len(f.writes) != 1 || !bytes.Equal(f.writes[0], frame(body)) {
			t.Fatalf("body %d: writes %d, want one write of %d bytes", n, len(f.writes), 4+n)
		}
		if got := mWrites.Load() - before; got != 1 {
			t.Fatalf("body %d: transport_tcp_writes_total moved by %d", n, got)
		}
	}
	f := &fakeNetConn{}
	if err := NewTCP().newConn(f).Send(make([]byte, MaxFrame+1)); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("oversized send: %v", err)
	}
	if len(f.writes) != 0 {
		t.Fatalf("oversized send wrote %d times", len(f.writes))
	}
}

// TestTCPRecvManyFramesPerRead: frames that arrived together are parsed
// out of the read buffer, one socket read per bufferful, not two per frame.
func TestTCPRecvManyFramesPerRead(t *testing.T) {
	const k = 300
	var in []byte
	var bodies [][]byte
	for i := 0; i < k; i++ {
		body := bytes.Repeat([]byte{byte(i)}, (i*131)%3000)
		bodies = append(bodies, body)
		in = append(in, frame(body)...)
	}
	f := &fakeNetConn{in: in}
	c := NewTCP().newConn(f)
	before := mReads.Load()
	for i, want := range bodies {
		got, err := c.Recv()
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("frame %d: %d bytes, want %d", i, len(got), len(want))
		}
		pool.Put(got)
	}
	if max := (len(in)+tcpBufSize-1)/tcpBufSize + 1; f.reads > max {
		t.Fatalf("%d frames (%d bytes) took %d reads, want <= %d", k, len(in), f.reads, max)
	}
	if got := mReads.Load() - before; got != int64(f.reads) {
		t.Fatalf("transport_tcp_reads_total moved by %d, socket saw %d reads", got, f.reads)
	}
	if _, err := c.Recv(); !errors.Is(err, ErrClosed) {
		t.Fatalf("recv at EOF: %v", err)
	}
}

// TestTCPRecvOversizedHeaderAllocatesNothing is the receive-side half
// TestTCPRecvRejectsOversizedHeader cannot reach: a hostile length is
// refused before any buffer of that size is asked for.
func TestTCPRecvOversizedHeaderAllocatesNothing(t *testing.T) {
	f := &fakeNetConn{in: binary.BigEndian.AppendUint32(nil, MaxFrame+1)}
	c := NewTCP().newConn(f)
	before := oversizeGets(t)
	if _, err := c.Recv(); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("recv: %v, want ErrTooLarge", err)
	}
	if got := oversizeGets(t) - before; got != 0 {
		t.Fatalf("pool.Get beyond the largest class ran %d times", got)
	}
}

// TestTCPIdleMeasuresSilence: the deadline is re-armed by every read that
// reaches the socket, so a peer trickling a frame in a byte at a time
// outlives many windows, and one that stops mid-frame trips it.
func TestTCPIdleMeasuresSilence(t *testing.T) {
	l, err := (&TCP{IdleTimeout: 50 * time.Millisecond}).Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	raw, err := net.Dial("tcp", l.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Close()
	sc, err := l.Accept()
	if err != nil {
		t.Fatal(err)
	}
	defer sc.Close()

	body := []byte("0123456789")
	go func() {
		for _, b := range frame(body) {
			raw.Write([]byte{b})
			time.Sleep(20 * time.Millisecond)
		}
		raw.Write(frame(body)[:7]) // header and three bytes, then silence
	}()
	start := time.Now()
	got, err := sc.Recv()
	if err != nil || !bytes.Equal(got, body) {
		t.Fatalf("trickled frame: %q, %v", got, err)
	}
	if d := time.Since(start); d < 150*time.Millisecond {
		t.Fatalf("trickled frame arrived in %v; the peer was meant to take longer than three windows", d)
	}
	if _, err := sc.Recv(); !errors.Is(err, ErrIdleTimeout) {
		t.Fatalf("recv from a peer stalled mid-frame: %v, want ErrIdleTimeout", err)
	}
}

// tcpPair returns the two ends of one loopback connection.
func tcpPair(b *testing.B) (cli, srv Conn) {
	l, err := NewTCP().Listen("127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	defer l.Close()
	cli, err = NewTCP().Dial(l.Addr())
	if err != nil {
		b.Fatal(err)
	}
	srv, err = l.Accept()
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { cli.Close(); srv.Close() })
	return cli, srv
}

// echo sends every frame it receives straight back.
func echo(c Conn) {
	for {
		msg, err := c.Recv()
		if err != nil {
			return
		}
		c.Send(msg)
		pool.Put(msg)
	}
}

// BenchmarkTCPRoundTrip is one caller's framed ping-pong over loopback.
func BenchmarkTCPRoundTrip(b *testing.B) {
	cli, srv := tcpPair(b)
	go echo(srv)
	msg := make([]byte, 128)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := cli.Send(msg); err != nil {
			b.Fatal(err)
		}
		got, err := cli.Recv()
		if err != nil {
			b.Fatal(err)
		}
		pool.Put(got)
	}
}

// BenchmarkTCPPipelined is 64 senders sharing one connection while one
// reader drains the echoes: frames queue behind each other on both sockets,
// which is where reads that return many frames pay off.
func BenchmarkTCPPipelined(b *testing.B) {
	cli, srv := tcpPair(b)
	go echo(srv)
	const senders = 64
	msg := make([]byte, 128)
	var wg sync.WaitGroup
	b.ReportAllocs()
	b.ResetTimer()
	for s := 0; s < senders; s++ {
		n := b.N / senders
		if s < b.N%senders {
			n++
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < n; i++ {
				if err := cli.Send(msg); err != nil {
					b.Error(err)
					return
				}
			}
		}()
	}
	for i := 0; i < b.N; i++ {
		got, err := cli.Recv()
		if err != nil {
			b.Fatal(err)
		}
		pool.Put(got)
	}
	wg.Wait()
}
