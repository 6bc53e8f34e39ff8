package transport

import (
	"bytes"
	"testing"
	"testing/quick"
)

// Property: any sequence of messages of arbitrary sizes survives
// fragmentation at any MTU, in order, per channel.
func TestQuickMuxFragmentationRoundTrip(t *testing.T) {
	f := func(sizes []uint16, mtuSeed uint8) bool {
		if len(sizes) == 0 {
			return true
		}
		if len(sizes) > 24 {
			sizes = sizes[:24]
		}
		mtu := int(mtuSeed)%512 + 1 // 1..512
		a, b := Pipe("a", "b")
		ma := NewMux(a, mtu)
		mb := NewMux(b, mtu)
		go ma.Run()
		go mb.Run()
		defer ma.Close()
		defer mb.Close()

		chA := ma.Channel(1)
		chB := mb.Channel(1)
		done := make(chan bool, 1)
		go func() {
			for i, sz := range sizes {
				msg, err := chB.Recv()
				if err != nil {
					done <- false
					return
				}
				want := pattern(int(sz)%4096, byte(i))
				if !bytes.Equal(msg, want) {
					done <- false
					return
				}
			}
			done <- true
		}()
		for i, sz := range sizes {
			if err := chA.Send(pattern(int(sz)%4096, byte(i))); err != nil {
				return false
			}
		}
		return <-done
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// pattern builds a deterministic payload of length n seeded by s.
func pattern(n int, s byte) []byte {
	out := make([]byte, n)
	for i := range out {
		out[i] = byte(i)*7 + s
	}
	return out
}

// Property: the sim network model's delay is monotone in link cost.
func TestQuickNetModelMonotone(t *testing.T) {
	f := func(c1, c2 uint8) bool {
		lo, hi := float64(c1%50)+1, float64(c2%50)+1
		if lo > hi {
			lo, hi = hi, lo
		}
		m := NewNetModel(1000) // 1µs base
		m.SetLink("a", "b", lo)
		m.SetLink("a", "c", hi)
		return m.Delay("a", "b") <= m.Delay("a", "c")
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
