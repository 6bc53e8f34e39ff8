package transport

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"
)

// exerciseTransport runs the generic Conn/Listener contract against any
// transport. addr must be dialable after Listen.
func exerciseTransport(t *testing.T, tr Transport, addr string) {
	t.Helper()
	l, err := tr.Listen(addr)
	if err != nil {
		t.Fatalf("Listen: %v", err)
	}
	defer l.Close()

	serverDone := make(chan error, 1)
	go func() {
		c, err := l.Accept()
		if err != nil {
			serverDone <- err
			return
		}
		defer c.Close()
		for {
			msg, err := c.Recv()
			if err != nil {
				serverDone <- nil
				return
			}
			if err := c.Send(append([]byte("echo:"), msg...)); err != nil {
				serverDone <- err
				return
			}
		}
	}()

	c, err := tr.Dial(l.Addr())
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	for i := 0; i < 10; i++ {
		want := fmt.Sprintf("msg-%d", i)
		if err := c.Send([]byte(want)); err != nil {
			t.Fatalf("Send: %v", err)
		}
		got, err := c.Recv()
		if err != nil {
			t.Fatalf("Recv: %v", err)
		}
		if string(got) != "echo:"+want {
			t.Fatalf("got %q want %q", got, "echo:"+want)
		}
	}
	c.Close()
	select {
	case err := <-serverDone:
		if err != nil {
			t.Fatalf("server: %v", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("server did not observe close")
	}
}

func TestInProcContract(t *testing.T) {
	exerciseTransport(t, NewInProc(), "hostA/memo")
}

func TestTCPContract(t *testing.T) {
	exerciseTransport(t, NewTCP(), "127.0.0.1:0")
}

func TestSimContract(t *testing.T) {
	m := NewNetModel(0)
	exerciseTransport(t, NewSim(m), "hostA/memo")
}

func TestInProcDialNoListener(t *testing.T) {
	tr := NewInProc()
	if _, err := tr.Dial("nowhere/x"); !errors.Is(err, ErrNoListener) {
		t.Fatalf("got %v want ErrNoListener", err)
	}
}

func TestInProcAddrInUse(t *testing.T) {
	tr := NewInProc()
	l, err := tr.Listen("a/x")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if _, err := tr.Listen("a/x"); err == nil {
		t.Fatal("duplicate listen accepted")
	}
}

func TestInProcListenerCloseFreesAddr(t *testing.T) {
	tr := NewInProc()
	l, _ := tr.Listen("a/x")
	l.Close()
	if _, err := tr.Listen("a/x"); err != nil {
		t.Fatalf("re-listen after close: %v", err)
	}
}

func TestInProcSendAfterPeerClose(t *testing.T) {
	a, b := Pipe("a", "b")
	b.Close()
	if err := a.Send([]byte("x")); !errors.Is(err, ErrClosed) {
		t.Fatalf("send to closed peer: %v", err)
	}
}

func TestInProcRecvDrainsAfterClose(t *testing.T) {
	a, b := Pipe("a", "b")
	if err := a.Send([]byte("last words")); err != nil {
		t.Fatal(err)
	}
	a.Close()
	got, err := b.Recv()
	if err != nil {
		t.Fatalf("Recv after peer close should drain: %v", err)
	}
	if string(got) != "last words" {
		t.Fatalf("got %q", got)
	}
	if _, err := b.Recv(); !errors.Is(err, ErrClosed) {
		t.Fatalf("second Recv: %v", err)
	}
}

func TestSendCopiesBuffer(t *testing.T) {
	a, b := Pipe("a", "b")
	buf := []byte("original")
	if err := a.Send(buf); err != nil {
		t.Fatal(err)
	}
	copy(buf, "CLOBBER!")
	got, _ := b.Recv()
	if string(got) != "original" {
		t.Fatalf("message aliased sender buffer: %q", got)
	}
}

func TestMessageTooLarge(t *testing.T) {
	a, _ := Pipe("a", "b")
	if err := a.Send(make([]byte, MaxFrame+1)); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("oversized send: %v", err)
	}
}

func TestSimDelayScalesWithCost(t *testing.T) {
	model := NewNetModel(2 * time.Millisecond)
	model.SetLink("near", "svr", 1)
	model.SetLink("far", "svr", 5)
	dNear := model.Delay("near", "svr", 10)
	dFar := model.Delay("far", "svr", 10)
	if dFar <= dNear {
		t.Fatalf("far link not slower: near=%v far=%v", dNear, dFar)
	}
	if dNear != 2*time.Millisecond || dFar != 10*time.Millisecond {
		t.Fatalf("delays: near=%v far=%v", dNear, dFar)
	}
	if d := model.Delay("svr", "svr", 10); d != 0 {
		t.Fatalf("local delay = %v", d)
	}
}

func TestSimBandwidthTerm(t *testing.T) {
	model := NewNetModel(time.Millisecond)
	model.BytesPerLatency = 1000
	model.SetLink("a", "b", 1)
	small := model.Delay("a", "b", 10)
	big := model.Delay("a", "b", 5000)
	if big <= small {
		t.Fatalf("bandwidth term missing: small=%v big=%v", small, big)
	}
}

func TestSimRefusesOffTopologyDial(t *testing.T) {
	model := NewNetModel(0)
	model.SetLink("a", "b", 1)
	sim := NewSim(model)
	l, err := sim.Listen("b/memo")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if _, err := sim.DialFrom("a", "b/memo"); err != nil {
		t.Fatalf("on-topology dial failed: %v", err)
	}
	var noRoute ErrNoRoute
	if _, err := sim.DialFrom("c", "b/memo"); !errors.As(err, &noRoute) {
		t.Fatalf("off-topology dial: %v", err)
	}
}

func TestSimRecordsTraffic(t *testing.T) {
	model := NewNetModel(0)
	model.SetLink("a", "b", 1)
	model.SetLink("b", "a", 1)
	sim := NewSim(model)
	l, _ := sim.Listen("b/echo")
	go func() {
		c, err := l.Accept()
		if err != nil {
			return
		}
		msg, _ := c.Recv()
		c.Send(msg)
	}()
	c, err := sim.DialFrom("a", "b/echo")
	if err != nil {
		t.Fatal(err)
	}
	c.Send([]byte("hello"))
	if _, err := c.Recv(); err != nil {
		t.Fatal(err)
	}
	fwd, _ := model.LinkTraffic("a", "b")
	rev, _ := model.LinkTraffic("b", "a")
	if fwd != 1 || rev != 1 {
		t.Fatalf("traffic fwd=%d rev=%d want 1/1", fwd, rev)
	}
	model.ResetTraffic()
	if fwd, _ := model.LinkTraffic("a", "b"); fwd != 0 {
		t.Fatalf("reset did not clear: %d", fwd)
	}
}

func TestSimRoundTripLatency(t *testing.T) {
	model := NewNetModel(5 * time.Millisecond)
	model.SetLink("a", "b", 1)
	model.SetLink("b", "a", 1)
	sim := NewSim(model)
	l, _ := sim.Listen("b/echo")
	go func() {
		c, err := l.Accept()
		if err != nil {
			return
		}
		for {
			msg, err := c.Recv()
			if err != nil {
				return
			}
			c.Send(msg)
		}
	}()
	c, err := sim.DialFrom("a", "b/echo")
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	c.Send([]byte("ping"))
	if _, err := c.Recv(); err != nil {
		t.Fatal(err)
	}
	if rtt := time.Since(start); rtt < 10*time.Millisecond {
		t.Fatalf("round trip %v, want >= 10ms (two 5ms links)", rtt)
	}
}

func muxPair(t *testing.T, mtu int) (*Mux, *Mux) {
	t.Helper()
	a, b := Pipe("a", "b")
	ma := NewMux(a, mtu)
	mb := NewMux(b, mtu)
	go ma.Run()
	go mb.Run()
	return ma, mb
}

func TestMuxBasicExchange(t *testing.T) {
	ma, mb := muxPair(t, 4096)
	defer ma.Close()
	defer mb.Close()
	chA := ma.Channel(7)
	chB := mb.Channel(7)
	if err := chA.Send([]byte("over virtual connection 7")); err != nil {
		t.Fatal(err)
	}
	got, err := chB.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "over virtual connection 7" {
		t.Fatalf("got %q", got)
	}
}

func TestMuxFragmentation(t *testing.T) {
	ma, mb := muxPair(t, 16) // tiny MTU forces many fragments
	defer ma.Close()
	defer mb.Close()
	msg := bytes.Repeat([]byte("0123456789"), 100) // 1000 bytes, ~63 fragments
	chA := ma.Channel(1)
	chB := mb.Channel(1)
	if err := chA.Send(msg); err != nil {
		t.Fatal(err)
	}
	got, err := chB.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, msg) {
		t.Fatalf("fragmented message corrupted: len=%d want %d", len(got), len(msg))
	}
}

func TestMuxEmptyMessage(t *testing.T) {
	ma, mb := muxPair(t, 64)
	defer ma.Close()
	defer mb.Close()
	if err := ma.Channel(2).Send(nil); err != nil {
		t.Fatal(err)
	}
	got, err := mb.Channel(2).Recv()
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Fatalf("got %d bytes", len(got))
	}
}

func TestMuxChannelsIndependent(t *testing.T) {
	ma, mb := muxPair(t, 4096)
	defer ma.Close()
	defer mb.Close()
	const chans = 8
	const msgs = 50
	var wg sync.WaitGroup
	for i := 0; i < chans; i++ {
		wg.Add(2)
		id := uint64(i)
		go func() {
			defer wg.Done()
			ch := ma.Channel(id)
			for j := 0; j < msgs; j++ {
				if err := ch.Send([]byte(fmt.Sprintf("%d:%d", id, j))); err != nil {
					t.Errorf("send: %v", err)
					return
				}
			}
		}()
		go func() {
			defer wg.Done()
			ch := mb.Channel(id)
			for j := 0; j < msgs; j++ {
				got, err := ch.Recv()
				if err != nil {
					t.Errorf("recv: %v", err)
					return
				}
				want := fmt.Sprintf("%d:%d", id, j)
				if string(got) != want {
					t.Errorf("channel %d: got %q want %q (cross-channel leak?)", id, got, want)
					return
				}
			}
		}()
	}
	wg.Wait()
}

func TestMuxInterleavingUnderFragmentation(t *testing.T) {
	// A huge message on channel 1 must not block channel 2's small message
	// from being sent between fragments (the Transputer complaint).
	ma, mb := muxPair(t, 8)
	defer ma.Close()
	defer mb.Close()
	big := bytes.Repeat([]byte("x"), 8*200)
	done := make(chan struct{})
	go func() {
		ma.Channel(1).Send(big)
		close(done)
	}()
	if err := ma.Channel(2).Send([]byte("quick")); err != nil {
		t.Fatal(err)
	}
	got, err := mb.Channel(2).Recv()
	if err != nil || string(got) != "quick" {
		t.Fatalf("small message: %q %v", got, err)
	}
	gotBig, err := mb.Channel(1).Recv()
	if err != nil || !bytes.Equal(gotBig, big) {
		t.Fatalf("big message corrupted")
	}
	<-done
}

func TestMuxAccept(t *testing.T) {
	ma, mb := muxPair(t, 4096)
	defer ma.Close()
	defer mb.Close()
	go ma.Channel(42).Send([]byte("hi"))
	ch, err := mb.Accept()
	if err != nil {
		t.Fatal(err)
	}
	if ch != mb.Channel(42) {
		t.Fatal("accepted channel is not channel 42")
	}
	got, _ := ch.Recv()
	if string(got) != "hi" {
		t.Fatalf("got %q", got)
	}
}

func TestMuxChannelClose(t *testing.T) {
	ma, mb := muxPair(t, 4096)
	defer ma.Close()
	defer mb.Close()
	chA := ma.Channel(3)
	chB := mb.Channel(3)
	chA.Send([]byte("bye"))
	chA.Close()
	if got, err := chB.Recv(); err != nil || string(got) != "bye" {
		t.Fatalf("drain before close: %q %v", got, err)
	}
	if _, err := chB.Recv(); !errors.Is(err, ErrMuxClosed) {
		t.Fatalf("recv on closed channel: %v", err)
	}
	if err := chA.Send([]byte("after")); !errors.Is(err, ErrMuxClosed) {
		t.Fatalf("send on closed channel: %v", err)
	}
}

func TestMuxTeardownOnConnClose(t *testing.T) {
	a, b := Pipe("a", "b")
	ma := NewMux(a, 64)
	mb := NewMux(b, 64)
	go ma.Run()
	runDone := make(chan error, 1)
	go func() { runDone <- mb.Run() }()
	ch := mb.Channel(1)
	ma.Close()
	select {
	case <-runDone:
	case <-time.After(2 * time.Second):
		t.Fatal("Run did not return after peer close")
	}
	if _, err := ch.Recv(); !errors.Is(err, ErrMuxClosed) {
		t.Fatalf("channel recv after teardown: %v", err)
	}
}

func TestTCPRecvRejectsOversizedHeader(t *testing.T) {
	tr := NewTCP()
	l, err := tr.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	go func() {
		c, err := l.Accept()
		if err != nil {
			return
		}
		defer c.Close()
		c.Recv()
	}()
	// Raw dial, hostile frame length.
	nc, err := NewTCP().Dial(l.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	// A frame claiming MaxFrame+1 bytes must be rejected by the reader; we
	// can only verify our client-side check here.
	if err := nc.Send(make([]byte, MaxFrame+1)); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("oversized tcp send: %v", err)
	}
}

func BenchmarkInProcRoundTrip(b *testing.B) {
	tr := NewInProc()
	l, _ := tr.Listen("a/bench")
	go func() {
		c, err := l.Accept()
		if err != nil {
			return
		}
		for {
			msg, err := c.Recv()
			if err != nil {
				return
			}
			c.Send(msg)
		}
	}()
	c, _ := tr.Dial("a/bench")
	msg := make([]byte, 128)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Send(msg)
		c.Recv()
	}
}

func BenchmarkMuxThroughput(b *testing.B) {
	x, y := Pipe("a", "b")
	ma := NewMux(x, 4096)
	mb := NewMux(y, 4096)
	go ma.Run()
	go mb.Run()
	defer ma.Close()
	defer mb.Close()
	chA := ma.Channel(1)
	chB := mb.Channel(1)
	msg := make([]byte, 1024)
	b.SetBytes(1024)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := chA.Send(msg); err != nil {
			b.Fatal(err)
		}
		if _, err := chB.Recv(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMuxMTU is the fragmentation ablation: the same 8 KiB message at
// different MTUs shows the per-packet overhead the derived transport layer
// trades for interleaving (§3.1.1's Transputer discussion).
func BenchmarkMuxMTU(b *testing.B) {
	for _, mtu := range []int{256, 1024, 4096, 16384} {
		b.Run(fmt.Sprintf("mtu-%d", mtu), func(b *testing.B) {
			x, y := Pipe("a", "b")
			ma := NewMux(x, mtu)
			mb := NewMux(y, mtu)
			go ma.Run()
			go mb.Run()
			defer ma.Close()
			defer mb.Close()
			chA := ma.Channel(1)
			chB := mb.Channel(1)
			msg := make([]byte, 8192)
			b.SetBytes(8192)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := chA.Send(msg); err != nil {
					b.Fatal(err)
				}
				if _, err := chB.Recv(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
