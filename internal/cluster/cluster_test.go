package cluster

import (
	"errors"
	"fmt"
	"math"
	"sync"
	"testing"
	"time"

	"repro/internal/adf"
	"repro/internal/core"
	"repro/internal/memoserver"
	"repro/internal/rpc"
	"repro/internal/symbol"
	"repro/internal/transferable"
)

const paperADF = `APP invert
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
1 worker1 aurora
2 worker1 joliet
3-6 worker2 bonnie
PPC
glen <-> aurora 1
glen <-> joliet 1
glen <-> bonnie 2
`

func boot(t testing.TB, adfText string, opts Options) *Cluster {
	t.Helper()
	c, err := BootADF(adfText, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Shutdown)
	return c
}

func TestBootPaperTopology(t *testing.T) {
	c := boot(t, paperADF, Options{})
	for _, h := range []string{"glen", "aurora", "joliet", "bonnie"} {
		if _, ok := c.Node(h); !ok {
			t.Fatalf("no memo server on %s", h)
		}
	}
	if c.Place.Len() != 9 {
		t.Fatalf("placement has %d servers want 9", c.Place.Len())
	}
}

func TestBootRejectsInvalidADF(t *testing.T) {
	if _, err := BootADF("APP x\n", Options{}); err == nil {
		t.Fatal("invalid ADF booted")
	}
}

func TestPutGetAcrossCluster(t *testing.T) {
	c := boot(t, paperADF, Options{})
	boss, err := c.NewMemo("glen")
	if err != nil {
		t.Fatal(err)
	}
	worker, err := c.NewMemo("bonnie")
	if err != nil {
		t.Fatal(err)
	}
	k := boss.NamedKey("task", 1)
	if err := boss.Put(k, transferable.String("do it")); err != nil {
		t.Fatal(err)
	}
	v, err := worker.Get(k)
	if err != nil {
		t.Fatal(err)
	}
	if s, _ := transferable.AsString(v); s != "do it" {
		t.Fatalf("got %v", v)
	}
}

// TestSymbolAgreementAcrossProcesses: two processes build their handles
// as separate programs do — each its own core.Config, sharing nothing but
// the placement map — and name jobs and results in opposite orders. Each
// name must still reach one folder, and their fresh symbols must differ.
func TestSymbolAgreementAcrossProcesses(t *testing.T) {
	c := boot(t, paperADF, Options{})
	process := func(host string) *core.Memo {
		client, err := memoserver.DialClientResilient(c.Sim.DialFrom, host, c.File.App, rpc.Policy{}, rpc.Resilience{})
		if err != nil {
			t.Fatal(err)
		}
		m, err := core.New(core.Config{App: c.File.App, Host: host, Domain: transferable.Domain32,
			Registry: symbol.NewRegistry(), Place: c.Place, Client: client})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { m.Close() })
		return m
	}
	a, b := process("glen"), process("aurora")
	aJobs, aResults := a.NamedKey("jobs"), a.NamedKey("results")
	bResults, bJobs := b.NamedKey("results"), b.NamedKey("jobs")
	if err := a.Put(aJobs, transferable.String("job")); err != nil {
		t.Fatal(err)
	}
	if err := a.Put(aResults, transferable.String("result")); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		k    symbol.Key
		want string
	}{{bJobs, "job"}, {bResults, "result"}} {
		v, ok, err := b.GetSkip(tc.k)
		if err != nil || !ok {
			t.Fatalf("b's get_skip of %v: ok=%v err=%v, want a's %q", tc.k, ok, err, tc.want)
		}
		if s, _ := transferable.AsString(v); s != tc.want {
			t.Fatalf("b's get_skip of %v took %q, want a's %q", tc.k, s, tc.want)
		}
	}
	if a.Symbol("jobs") != bJobs.S {
		t.Fatalf("a's Symbol(jobs) = %d, b's jobs key is %v", a.Symbol("jobs"), bJobs)
	}
	if sa, sb := a.CreateSymbol(), b.CreateSymbol(); sa == sb {
		t.Fatalf("both processes' create_symbol returned %d", sa)
	}
}

func TestRunProcesses(t *testing.T) {
	c := boot(t, paperADF, Options{})
	var mu sync.Mutex
	ran := make(map[string]int)
	err := c.Run(map[string]ProcFunc{
		"boss": func(p adf.Process, m *core.Memo) error {
			// Boss distributes one memo per worker process id.
			for i := 1; i <= 6; i++ {
				if err := m.Put(m.NamedKey("work", uint32(i)), transferable.Int64(int64(i*i))); err != nil {
					return err
				}
			}
			mu.Lock()
			ran["boss"]++
			mu.Unlock()
			return nil
		},
		"worker1": func(p adf.Process, m *core.Memo) error {
			v, err := m.Get(m.NamedKey("work", uint32(p.ID)))
			if err != nil {
				return err
			}
			if n, _ := transferable.AsInt(v); n != int64(p.ID*p.ID) {
				return fmt.Errorf("worker %d got %v", p.ID, v)
			}
			mu.Lock()
			ran["worker1"]++
			mu.Unlock()
			return nil
		},
		"worker2": func(p adf.Process, m *core.Memo) error {
			v, err := m.Get(m.NamedKey("work", uint32(p.ID)))
			if err != nil {
				return err
			}
			if n, _ := transferable.AsInt(v); n != int64(p.ID*p.ID) {
				return fmt.Errorf("worker %d got %v", p.ID, v)
			}
			mu.Lock()
			ran["worker2"]++
			mu.Unlock()
			return nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	if ran["boss"] != 1 || ran["worker1"] != 2 || ran["worker2"] != 4 {
		t.Fatalf("process counts: %v", ran)
	}
}

func TestRunMissingProgram(t *testing.T) {
	c := boot(t, paperADF, Options{})
	err := c.Run(map[string]ProcFunc{})
	if err == nil {
		t.Fatal("Run accepted missing program")
	}
}

func TestRunPropagatesProcessError(t *testing.T) {
	c := boot(t, paperADF, Options{})
	sentinel := errors.New("worker exploded")
	err := c.Run(map[string]ProcFunc{
		"boss":    func(p adf.Process, m *core.Memo) error { return nil },
		"worker1": func(p adf.Process, m *core.Memo) error { return sentinel },
		"worker2": func(p adf.Process, m *core.Memo) error { return nil },
	})
	if !errors.Is(err, sentinel) {
		t.Fatalf("err = %v", err)
	}
}

func TestMemoDistributionTracksPower(t *testing.T) {
	// E4 at test scale: puts to many distinct folders distribute across
	// hosts in proportion to processing power (bonnie ≈ 256/259).
	c := boot(t, paperADF, Options{})
	m, err := c.NewMemo("glen")
	if err != nil {
		t.Fatal(err)
	}
	const n = 3000
	for i := 0; i < n; i++ {
		k := m.NamedKey(fmt.Sprintf("folder-%d", i))
		if err := m.Put(k, transferable.Int64(int64(i))); err != nil {
			t.Fatal(err)
		}
	}
	shares := c.HostPutShares()
	intended := c.Place.HostShares()
	for host, want := range intended {
		got := shares[host]
		if math.Abs(got-want) > 0.05+0.15*want {
			t.Errorf("host %s: observed share %.4f intended %.4f", host, got, want)
		}
	}
	if shares["bonnie"] < 0.9 {
		t.Errorf("bonnie share %.3f; the SP-1 should dominate", shares["bonnie"])
	}
}

func TestSimulatedLatencyOrdersHosts(t *testing.T) {
	// With a real base latency, operations against a far folder server take
	// longer than against a local one (E2's shape).
	const adfText = `APP lat
HOSTS
near 1 sun4 1
far 1 sun4 1
FOLDERS
0 near
1 far
PROCESSES
0 boss near
PPC
near <-> far 5
`
	c := boot(t, adfText, Options{BaseLatency: 2 * time.Millisecond})
	m, err := c.NewMemo("near")
	if err != nil {
		t.Fatal(err)
	}
	// Folder ids are fixed: 0 near, 1 far. Find keys that place on each.
	var nearKey, farKey symbol.Key
	for i := uint32(0); i < 10000; i++ {
		k := m.Key(m.Symbol("probe"), i)
		switch c.Place.Place(k).ID {
		case 0:
			if nearKey.S == symbol.None {
				nearKey = k
			}
		case 1:
			if farKey.S == symbol.None {
				farKey = k
			}
		}
		if nearKey.S != symbol.None && farKey.S != symbol.None {
			break
		}
	}
	timeOp := func(k symbol.Key) time.Duration {
		start := time.Now()
		for i := 0; i < 5; i++ {
			if err := m.Put(k, transferable.Int64(1)); err != nil {
				t.Fatal(err)
			}
			if _, err := m.Get(k); err != nil {
				t.Fatal(err)
			}
		}
		return time.Since(start)
	}
	near := timeOp(nearKey)
	far := timeOp(farKey)
	if far <= near {
		t.Fatalf("far ops (%v) not slower than near ops (%v)", far, near)
	}
}

func TestNoBroadcastsEver(t *testing.T) {
	// §5: "No broadcasting is done by the system."
	c := boot(t, paperADF, Options{})
	m, _ := c.NewMemo("glen")
	for i := 0; i < 100; i++ {
		m.Put(m.NamedKey("nb", uint32(i)), transferable.Int64(int64(i)))
	}
	// The sim transport has no broadcast primitive at all; verify the stats
	// hook agrees for a statsed transport (structural invariant).
	// NetModel records only point-to-point links:
	msgs, _ := c.Sim.Model().LinkTraffic("glen", "bonnie")
	if msgs == 0 {
		t.Fatal("expected point-to-point traffic on declared links")
	}
}

func TestLossyMappingSurfacesOn16BitHost(t *testing.T) {
	// An Alpha-style host sends a big native int; the 16-bit host's Get
	// reports ErrLossy (§3.1.3's example, end to end).
	const adfText = `APP lossy
HOSTS
wide 1 alpha 1
narrow 1 i486-16 1
FOLDERS
0 wide
PROCESSES
0 boss wide
PPC
wide <-> narrow 1
`
	c := boot(t, adfText, Options{})
	wide, _ := c.NewMemo("wide")
	narrow, _ := c.NewMemo("narrow")
	k := wide.NamedKey("xfer")
	if err := wide.Put(k, transferable.Native{V: 100000, Bits: 64}); err != nil {
		t.Fatal(err)
	}
	_, err := narrow.Get(k)
	var lossy *transferable.ErrLossy
	if !errors.As(err, &lossy) {
		t.Fatalf("want ErrLossy on 16-bit host, got %v", err)
	}
	// Absolute domains cross fine.
	if err := wide.Put(k, transferable.Int64(100000)); err != nil {
		t.Fatal(err)
	}
	v, err := narrow.Get(k)
	if err != nil {
		t.Fatal(err)
	}
	if n, _ := transferable.AsInt(v); n != 100000 {
		t.Fatalf("absolute domain value = %v", v)
	}
}

func TestShutdownIdempotent(t *testing.T) {
	c := boot(t, paperADF, Options{})
	c.Shutdown()
	c.Shutdown()
}
