package rpc

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/transport"
	"repro/internal/wire"
)

// BenchmarkRPCBatchedRoundTrip measures request round trips over the
// simulated-latency transport with 1, 8, and 64 concurrent callers sharing
// one connection, batched (default flush policy) versus unbatched
// (MaxCount = 1: one frame per message — the pre-batching wire behaviour).
//
// The sim transport charges each transport message one link delay, and each
// side's batcher sends its frames one at a time, exactly like a real link:
// unbatched concurrent callers queue behind each other's frames, batched
// callers amortize one delay over a whole frame of requests.
func BenchmarkRPCBatchedRoundTrip(b *testing.B) {
	const linkDelay = 50 * time.Microsecond
	for _, callers := range []int{1, 8, 64} {
		for _, mode := range []struct {
			name string
			pol  Policy
		}{
			{"unbatched", Policy{MaxCount: 1}},
			{"batched", Policy{}},
		} {
			b.Run(fmt.Sprintf("callers=%d/%s", callers, mode.name), func(b *testing.B) {
				benchRoundTrips(b, callers, mode.pol, linkDelay)
			})
		}
	}
}

func benchRoundTrips(b *testing.B, callers int, pol Policy, linkDelay time.Duration) {
	model := transport.NewNetModel(linkDelay)
	model.SetLink("cli", "srv", 1)
	model.SetLink("srv", "cli", 1)
	sim := transport.NewSim(model)
	l, err := sim.Listen("srv/rpc")
	if err != nil {
		b.Fatal(err)
	}
	defer l.Close()
	go serveLoop(l, echoBenchHandler, nil, pol)

	conn, err := sim.DialFrom("cli", "srv/rpc")
	if err != nil {
		b.Fatal(err)
	}
	c := NewConn(conn, pol)
	defer c.Close()

	// Warm the path so setup cost stays out of the measurement.
	if _, err := c.Call(&wire.Request{Op: wire.OpPing}, nil); err != nil {
		b.Fatal(err)
	}

	var next atomic.Int64
	var failed atomic.Int64
	b.ResetTimer()
	var wg sync.WaitGroup
	for w := 0; w < callers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for next.Add(1) <= int64(b.N) {
				if _, err := c.Call(&wire.Request{Op: wire.OpPing}, nil); err != nil {
					failed.Add(1)
					return
				}
			}
		}()
	}
	wg.Wait()
	b.StopTimer()
	if failed.Load() > 0 {
		b.Fatalf("%d calls failed", failed.Load())
	}
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "ops/s")
}

func echoBenchHandler(q *wire.Request, _ <-chan struct{}) *wire.Response {
	return &wire.Response{Status: wire.StatusOK, Payload: q.Payload}
}
