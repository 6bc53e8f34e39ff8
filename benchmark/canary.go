package main

import (
	"io"
	"math"
	"net"
	"sort"
	"time"
)

// The host-noise canary runs before and after every workload. It uses none
// of the repository's code, so when it moves, the host moved: a reader can
// tell a noisy epoch of a shared machine from a regression.

// spinIters is a fixed amount of integer work, about 200 ms on the machine
// the benchmark was sized on.
const spinIters = 90_000_000

var spinSink uint64

// hostSpin times the fixed spin, in milliseconds.
func hostSpin() float64 {
	start := time.Now()
	x := uint64(88172645463325252)
	for i := 0; i < spinIters; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
	}
	spinSink = x
	return float64(time.Since(start).Nanoseconds()) / 1e6
}

// hostEcho ping-pongs 64 bytes over a raw loopback TCP connection, first
// back to back for about 300 ms, then about a hundred times with a sleep
// before each ping, and returns the median round trip of each phase in
// microseconds. The second figure is what a round trip costs when it has to
// wake a process that went to sleep on an idle CPU, which is the situation
// of a single caller talking to otherwise idle daemons.
func hostEcho() (busyUS, idleUS float64, err error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, 0, err
	}
	defer l.Close()
	done := make(chan struct{})
	go func() {
		defer close(done)
		c, err := l.Accept()
		if err != nil {
			return
		}
		defer c.Close()
		_, _ = io.Copy(c, c) // ends when the client closes
	}()
	c, err := net.Dial("tcp", l.Addr().String())
	if err != nil {
		l.Close()
		<-done
		return 0, 0, err
	}
	buf := make([]byte, 64)
	phase := func(length, pause time.Duration) (float64, error) {
		var rtts []int64
		for deadline := time.Now().Add(length); time.Now().Before(deadline); {
			time.Sleep(pause)
			t := time.Now()
			if _, err := c.Write(buf); err != nil {
				return 0, err
			}
			if _, err := io.ReadFull(c, buf); err != nil {
				return 0, err
			}
			rtts = append(rtts, time.Since(t).Nanoseconds())
		}
		sort.Slice(rtts, func(i, j int) bool { return rtts[i] < rtts[j] })
		return float64(rtts[len(rtts)/2]) / 1e3, nil
	}
	if busyUS, err = phase(300*time.Millisecond, 0); err == nil {
		idleUS, err = phase(120*time.Millisecond, 200*time.Microsecond)
	}
	c.Close()
	<-done
	return busyUS, idleUS, err
}

// canary is one reading of the probes.
type canary struct {
	SpinMS        float64 `json:"spin_ms"`
	EchoRTTUS     float64 `json:"echo_rtt_us"`
	IdleEchoRTTUS float64 `json:"idle_echo_rtt_us"`
}

func readCanary() (canary, error) {
	spin := hostSpin()
	busy, idle, err := hostEcho()
	return canary{SpinMS: spin, EchoRTTUS: busy, IdleEchoRTTUS: idle}, err
}

// Thresholds for marking a run noisy. The numbers are still reported; the
// flag only tells a reader not to trust a single noisy run.
const (
	canaryDriftPct   = 10
	sliceSpreadLimit = 25
)

// drifted reports whether two readings of one probe differ by more than
// canaryDriftPct of the smaller.
func drifted(before, after float64) bool {
	lo := math.Min(before, after)
	return lo <= 0 || math.Abs(before-after)/lo*100 > canaryDriftPct
}

func noisyRun(before, after canary, sliceSpread float64) bool {
	return drifted(before.SpinMS, after.SpinMS) || drifted(before.EchoRTTUS, after.EchoRTTUS) || sliceSpread > sliceSpreadLimit
}
