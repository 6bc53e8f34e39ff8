package cluster

import (
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/transferable"
)

// splitADF: two hosts, the one folder server on b, so a take entered at a
// is forwarded a→b and one entered at b stays local.
const splitADF = `APP split
HOSTS
a 1 sun4 1
b 1 sun4 1
FOLDERS
0 b
PROCESSES
0 boss a
1 worker b
PPC
a <-> b 1
`

// TestCanceledGetNeverEatsItsMemo pins the cancel rule: a canceled blocking
// take returns canceled only when the owning store says nothing was
// consumed; otherwise it returns the value. Each round puts one memo, issues
// a take whose cancel closes 0–40 µs later — racing the take itself — and,
// if the take reported canceled, requires the memo to be still in its
// folder. Memory-only and durable, entered at the owning host (b) and
// forwarded a→b, get and alt_take.
func TestCanceledGetNeverEatsItsMemo(t *testing.T) {
	const rounds = 500
	for _, durableOn := range []bool{false, true} {
		for _, host := range []string{"b", "a"} {
			for _, verb := range []string{"get", "alt_take"} {
				name := "mem"
				if durableOn {
					name = "durable"
				}
				t.Run(name+"/from-"+host+"/"+verb, func(t *testing.T) {
					var opts Options
					if durableOn {
						opts.DataDir = t.TempDir()
					}
					c := boot(t, splitADF, opts)
					m, err := c.NewMemo(host)
					if err != nil {
						t.Fatal(err)
					}
					k, other := m.NamedKey("racy"), m.NamedKey("never-filled")
					take := func(cancel <-chan struct{}) (transferable.Value, error) {
						if verb == "get" {
							return m.GetCancel(k, cancel)
						}
						_, v, err := m.GetAltCancel(cancel, other, k)
						return v, err
					}
					returned, kept, eaten := 0, 0, 0
					for i := 0; i < rounds; i++ {
						if err := m.Put(k, transferable.Int64(int64(i))); err != nil {
							t.Fatal(err)
						}
						cancel := make(chan struct{})
						timer := time.AfterFunc(time.Duration(i%41)*time.Microsecond, func() { close(cancel) })
						v, err := take(cancel)
						timer.Stop()
						if err == core.ErrCanceled {
							var ok bool
							if v, ok, err = m.GetSkip(k); err == nil && !ok {
								eaten++
								continue
							}
							kept++
						} else {
							returned++
						}
						if err != nil {
							t.Fatalf("round %d: %v", i, err)
						}
						if got := asInt64(t, v); got != int64(i) {
							t.Fatalf("round %d: got memo %d", i, got)
						}
					}
					if eaten > 0 {
						t.Errorf("%d of %d takes reported canceled and their memo was gone", eaten, rounds)
					}
					t.Logf("%d takes returned the value, %d were canceled with the memo kept", returned, kept)
				})
			}
		}
	}
}

func asInt64(t *testing.T, v transferable.Value) int64 {
	t.Helper()
	id, ok := transferable.AsInt(v)
	if !ok {
		t.Fatalf("memo payload %v, want integer", v)
	}
	return id
}
