// Benchmarks regenerating the paper's experiments (DESIGN.md §4, E1–E10) as
// testing.B targets. Each BenchmarkEn measures the code path behind the
// corresponding table; `go run ./cmd/dmemo-bench` prints the tables
// themselves. The paper has no numeric tables — these benches quantify its
// qualitative claims (DESIGN.md §4 has the mapping). Numbers for the system
// itself come from benchmark/ (see benchmark/README.md).
package repro_test

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/collect"
	"repro/internal/core"
	"repro/internal/folder"
	"repro/internal/linda"
	"repro/internal/lucid"
	"repro/internal/mdc"
	"repro/internal/symbol"
	"repro/internal/threadcache"
	"repro/internal/transferable"
)

// bootB boots a cluster for a benchmark and registers cleanup.
func bootB(b *testing.B, adfText string, opts cluster.Options) *cluster.Cluster {
	b.Helper()
	c, err := cluster.BootADF(adfText, opts)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(c.Shutdown)
	return c
}

func memoB(b *testing.B, c *cluster.Cluster, host string) *core.Memo {
	b.Helper()
	m, err := c.NewMemo(host)
	if err != nil {
		b.Fatal(err)
	}
	return m
}

const oneHostADF = `APP bench1
HOSTS
a 1 sun4 1
FOLDERS
0 a
PROCESSES
0 boss a
PPC
`

const twoHostADF = `APP bench2
HOSTS
a 2 sun4 1
b 2 sun4 1
FOLDERS
0-1 a
2-3 b
PROCESSES
0 boss a
PPC
a <-> b 1
`

// BenchmarkE1ThreadCache measures request service with the memo server's
// thread cache on vs off (Fig. 1, §4.1).
func BenchmarkE1ThreadCache(b *testing.B) {
	for _, mode := range []struct {
		name    string
		disable bool
	}{{"cache-on", false}, {"cache-off", true}} {
		b.Run(mode.name, func(b *testing.B) {
			c := bootB(b, oneHostADF, cluster.Options{
				Cache: threadcache.Config{Disable: mode.disable, IdleTimeout: 50 * time.Millisecond},
			})
			m := memoB(b, c, "a")
			k := m.NamedKey("hot")
			payload := transferable.Int64(1)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := m.Put(k, payload); err != nil {
					b.Fatal(err)
				}
				if _, err := m.Get(k); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkE2InterMachine measures put+get round trips at increasing memo-
// server hop counts (Fig. 2).
func BenchmarkE2InterMachine(b *testing.B) {
	for _, hosts := range []int{2, 4, 8} {
		b.Run(fmt.Sprintf("hops-%d", hosts-1), func(b *testing.B) {
			adfText := "APP bench2e\nHOSTS\n"
			for i := 0; i < hosts; i++ {
				adfText += fmt.Sprintf("h%d 1 sun4 1\n", i)
			}
			adfText += fmt.Sprintf("FOLDERS\n0 h%d\nPROCESSES\n0 boss h0\nPPC\n", hosts-1)
			for i := 1; i < hosts; i++ {
				adfText += fmt.Sprintf("h%d <-> h%d 1\n", i-1, i)
			}
			c := bootB(b, adfText, cluster.Options{BaseLatency: 100 * time.Microsecond})
			m := memoB(b, c, "h0")
			k := m.NamedKey("probe")
			payload := transferable.Int64(1)
			m.Put(k, payload)
			m.Get(k) // warm the path
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := m.Put(k, payload); err != nil {
					b.Fatal(err)
				}
				if _, err := m.Get(k); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkE3Topology measures a leaf-to-leaf operation in a star: two
// logical hops through the hub (Fig. 3, §4.3).
func BenchmarkE3Topology(b *testing.B) {
	const starADF = `APP bench3
HOSTS
hub 1 sun4 1
leafA 1 sun4 1
leafB 1 sun4 1
FOLDERS
0 leafB
PROCESSES
0 boss leafA
PPC
hub <-> leafA 1
hub <-> leafB 1
`
	c := bootB(b, starADF, cluster.Options{})
	m := memoB(b, c, "leafA")
	k := m.NamedKey("x")
	payload := transferable.Int64(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := m.Put(k, payload); err != nil {
			b.Fatal(err)
		}
		if _, err := m.Get(k); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE4Distribution measures cost-weighted placement plus the put
// path on the paper's invert host set (§5 ¶1).
func BenchmarkE4Distribution(b *testing.B) {
	const invertADF = `APP bench4
HOSTS
glen 1 sun4 1
aurora 1 sun4 1
joliet 1 sun4 1
bonnie 128 sp1 sun4*0.5
FOLDERS
0 glen
1 aurora
2 joliet
3-8 bonnie
PROCESSES
0 boss glen
PPC
glen <-> aurora 1
glen <-> joliet 1
glen <-> bonnie 2
`
	c := bootB(b, invertADF, cluster.Options{})
	m := memoB(b, c, "glen")
	payload := transferable.Int64(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := m.Key(symbol.Symbol(100), uint32(i))
		if err := m.Put(k, payload); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE5Locality measures placement map construction across lambda
// settings (§5 ¶2): the topology term is a boot-time cost.
func BenchmarkE5Locality(b *testing.B) {
	const adfText = `APP bench5
HOSTS
hub 1 sun4 1
near 1 sun4 1
far 1 sun4 1
FOLDERS
0 near
1 far
PROCESSES
0 boss hub
PPC
hub <-> near 1
near <-> far 10
`
	for _, lambda := range []float64{0, 1} {
		b.Run(fmt.Sprintf("lambda-%g", lambda), func(b *testing.B) {
			c := bootB(b, adfText, cluster.Options{Lambda: lambda})
			m := memoB(b, c, "hub")
			payload := transferable.Int64(1)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				k := m.Key(symbol.Symbol(100), uint32(i))
				if err := m.Put(k, payload); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkE6Grain measures one job-jar task round trip at two grain sizes
// (§4.2): the fixed communication cost that small grains fail to amortize.
func BenchmarkE6Grain(b *testing.B) {
	for _, grain := range []int{8, 512} {
		b.Run(fmt.Sprintf("grain-%d", grain), func(b *testing.B) {
			c := bootB(b, twoHostADF, cluster.Options{BaseLatency: 100 * time.Microsecond})
			boss := memoB(b, c, "a")
			workerM := memoB(b, c, "b")
			jobs := boss.NamedKey("jobs")
			done := boss.NamedKey("done")
			go func() {
				for {
					v, err := workerM.Get(jobs)
					if err != nil {
						return
					}
					n, _ := transferable.AsInt(v)
					if n < 0 {
						return
					}
					acc := int64(0)
					for u := int64(0); u < n; u++ {
						for j := 0; j < 1000; j++ {
							acc += int64(j)
						}
					}
					if workerM.Put(done, transferable.Int64(acc)) != nil {
						return
					}
				}
			}()
			b.SetBytes(int64(grain)) // report throughput in work units
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := boss.Put(jobs, transferable.Int64(int64(grain))); err != nil {
					b.Fatal(err)
				}
				if _, err := boss.Get(done); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			boss.Put(jobs, transferable.Int64(-1))
		})
	}
}

// BenchmarkE7VsLinda compares folder lookup with Linda matching at a
// resident population of 10k items (§7).
func BenchmarkE7VsLinda(b *testing.B) {
	const resident = 10000
	b.Run("dmemo-folder-lookup", func(b *testing.B) {
		store := folder.NewStore()
		for i := 0; i < resident; i++ {
			store.Put(symbol.K(symbol.Symbol(1000+i)), []byte("noise"))
		}
		hot := symbol.K(7)
		payload := []byte("p")
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			store.Put(hot, payload)
			if _, ok, _ := store.GetSkip(hot); !ok {
				b.Fatal("lost memo")
			}
		}
	})
	b.Run("linda-indexed", func(b *testing.B) {
		sp := linda.NewSpace()
		for i := 0; i < resident; i++ {
			sp.Out(linda.Tuple{transferable.String(fmt.Sprintf("n%d", i)), transferable.Int64(int64(i))})
		}
		hotT := linda.Tuple{transferable.String("hot"), transferable.Int64(1)}
		hotP := linda.Template{linda.A(transferable.String("hot")), linda.Any()}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			sp.Out(hotT)
			if _, ok := sp.Inp(hotP); !ok {
				b.Fatal("lost tuple")
			}
		}
	})
	b.Run("linda-associative", func(b *testing.B) {
		sp := linda.NewSpace()
		for i := 0; i < resident; i++ {
			sp.Out(linda.Tuple{transferable.NewList(transferable.Int64(int64(i))), transferable.Int64(int64(i))})
		}
		p := linda.Template{linda.F(transferable.TagList), linda.A(transferable.Int64(resident - 1))}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, ok := sp.Rdp(p); !ok {
				b.Fatal("match failed")
			}
		}
	})
}

// BenchmarkE8Structures measures the §6.2/§6.3 coordination structures.
func BenchmarkE8Structures(b *testing.B) {
	c := bootB(b, twoHostADF, cluster.Options{})
	m := memoB(b, c, "a")

	b.Run("queue", func(b *testing.B) {
		q := collect.NewQueue(m)
		v := transferable.Int64(1)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			q.Enqueue(v)
			if _, err := q.Dequeue(); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("lock", func(b *testing.B) {
		l, err := collect.NewLock(m)
		if err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := l.Lock(); err != nil {
				b.Fatal(err)
			}
			if err := l.Unlock(); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("semaphore", func(b *testing.B) {
		s, err := collect.NewSemaphore(m, 4)
		if err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			s.P()
			s.V()
		}
	})
	b.Run("future", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			f, err := collect.NewFuture(m)
			if err != nil {
				b.Fatal(err)
			}
			f.Resolve(transferable.Int64(1))
			if _, err := f.Wait(); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("jobjar-alt", func(b *testing.B) {
		j := collect.NewJobJar(m, "bjar").WithLocal(1)
		v := transferable.Int64(1)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			j.Add(v)
			if _, err := j.GetWork(); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("named-object-update", func(b *testing.B) {
		o, err := collect.NewNamedObject(m, transferable.Int64(0))
		if err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			o.Update(func(v transferable.Value) (transferable.Value, error) {
				n, _ := transferable.AsInt(v)
				return transferable.Int64(n + 1), nil
			})
		}
	})
}

// BenchmarkE9Transferable measures spanning-tree encode/decode of a 1000-
// node structure with sharing and cycles (§3.1.3).
func BenchmarkE9Transferable(b *testing.B) {
	nodes := make([]*transferable.List, 1000)
	for i := range nodes {
		nodes[i] = transferable.NewList(transferable.Int64(int64(i)))
	}
	for i := 1; i < len(nodes); i++ {
		nodes[(i*7)%i].Append(nodes[i])
		if i%16 == 0 {
			nodes[i].Append(nodes[i/2]) // back edges
		}
	}
	root := nodes[0]
	b.Run("encode", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := transferable.Marshal(root); err != nil {
				b.Fatal(err)
			}
		}
	})
	data, err := transferable.Marshal(root)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("decode", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := transferable.Unmarshal(data, transferable.Domain64); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkE10Languages measures the language layers (§2).
func BenchmarkE10Languages(b *testing.B) {
	b.Run("mdc-roundtrip", func(b *testing.B) {
		c := bootB(b, twoHostADF, cluster.Options{})
		sysA := mdc.NewSystem(memoB(b, c, "a"))
		sysB := mdc.NewSystem(memoB(b, c, "b"))
		b.Cleanup(sysA.Shutdown)
		b.Cleanup(sysB.Shutdown)
		reply := make(chan struct{}, 1)
		collector := sysA.Spawn(func(ctx *mdc.Context, msg transferable.Value) error {
			reply <- struct{}{}
			return nil
		})
		echo := sysB.Spawn(func(ctx *mdc.Context, msg transferable.Value) error {
			return ctx.Send(collector, msg)
		})
		v := transferable.Int64(1)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := sysA.Send(echo, v); err != nil {
				b.Fatal(err)
			}
			<-reply
		}
	})
	b.Run("lucid-element", func(b *testing.B) {
		prog, err := lucid.Parse("n = 0 fby n + 1; sq = n * n;")
		if err != nil {
			b.Fatal(err)
		}
		ev := lucid.NewEvaluator(prog, nil)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := ev.At("sq", i%10000); err != nil {
				b.Fatal(err)
			}
		}
	})
}
