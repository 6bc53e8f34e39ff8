package e2e

import (
	"fmt"
	"net"
	"os"
	"reflect"
	"strconv"
	"sync"
	"testing"
	"time"
)

// The heavy black-box tests boot real daemons and take tens of seconds, so
// they run only when E2E=1 (scripts/e2e.sh sets it; plain `go test ./...`
// stays fast). The in-process chaos runs and the deterministic unit tests
// below always run.
func requireE2E(t *testing.T) {
	t.Helper()
	if os.Getenv("E2E") == "" {
		t.Skip("set E2E=1 (or run scripts/e2e.sh) for the black-box chaos harness")
	}
}

var (
	buildOnce sync.Once
	builtBins Binaries
	buildErr  error
	buildDir  string
)

func testBinaries(t *testing.T) Binaries {
	t.Helper()
	buildOnce.Do(func() {
		buildDir, buildErr = os.MkdirTemp("", "e2e-bin-")
		if buildErr != nil {
			return
		}
		builtBins, buildErr = BuildBinaries(buildDir)
	})
	if buildErr != nil {
		t.Fatalf("build binaries: %v", buildErr)
	}
	return builtBins
}

func TestMain(m *testing.M) {
	code := m.Run()
	if buildDir != "" {
		os.RemoveAll(buildDir)
	}
	os.Exit(code)
}

const seedCorpus = "regression_seeds.json"

// TestSmoke is the CI gate: one full seeded chaos run — ≥100 mixed actions
// including at least one SIGKILL/restart and one link sever/heal (the
// generator guarantees both) — that must pass the exactly-once/convergence
// oracle and shut down cleanly.
func TestSmoke(t *testing.T) {
	requireE2E(t)
	bins := testBinaries(t)
	seed := int64(1)
	if s := os.Getenv("E2E_SEED"); s != "" {
		v, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			t.Fatalf("E2E_SEED: %v", err)
		}
		seed = v
	}
	const n = 120
	if err := RunDaemons(t.TempDir(), bins, seed, n, t.Logf); err != nil {
		reportFailure(t, bins, seed, n, err)
	}
}

// TestRegressionSeeds replays the corpus first-class: every seed that ever
// found a bug keeps hunting it on each run, in-process always and on the
// daemons under E2E=1.
func TestRegressionSeeds(t *testing.T) {
	seeds, err := LoadSeeds(seedCorpus)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range seeds {
		t.Run(fmt.Sprintf("seed%d_n%d", s.Seed, s.Actions), func(t *testing.T) {
			t.Run("sim", func(t *testing.T) {
				if _, err := RunChaos(bootSim(t), s.Seed, GenActions(s.Seed, s.Actions, e2eWeights), t.Logf); err != nil {
					t.Fatalf("regression seed %d (%s): %v", s.Seed, s.Note, err)
				}
			})
			t.Run("daemons", func(t *testing.T) {
				requireE2E(t)
				if err := RunDaemons(t.TempDir(), testBinaries(t), s.Seed, s.Actions, t.Logf); err != nil {
					t.Fatalf("regression seed %d (%s): %v", s.Seed, s.Note, err)
				}
			})
		})
	}
}

// TestChaosSweep is the longer seeded run for the dedicated CI job: fresh
// seeds at a larger action count. E2E_FULL=1 arms it.
func TestChaosSweep(t *testing.T) {
	requireE2E(t)
	if os.Getenv("E2E_FULL") == "" {
		t.Skip("set E2E_FULL=1 for the long chaos sweep")
	}
	bins := testBinaries(t)
	for _, seed := range []int64{11, 12, 13} {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			if err := RunDaemons(t.TempDir(), bins, seed, 200, t.Logf); err != nil {
				reportFailure(t, bins, seed, 200, err)
			}
		})
	}
}

// reportFailure minimizes a failing run to its shortest failing prefix and
// appends it to the regression corpus before failing the test.
func reportFailure(t *testing.T, bins Binaries, seed int64, n int, err error) {
	t.Helper()
	minimized := n
	if os.Getenv("E2E_NO_MINIMIZE") == "" {
		minimized = MinimizePrefix(n, 5, func(k int) bool {
			return RunDaemons(t.TempDir(), bins, seed, k, t.Logf) != nil
		})
	}
	entry := Seed{Seed: seed, Actions: minimized, Note: "auto-minimized failing run"}
	if aerr := AppendSeed(seedCorpus, entry); aerr != nil {
		t.Logf("could not append %+v to %s: %v", entry, seedCorpus, aerr)
	} else {
		t.Logf("appended failing seed to %s: %+v", seedCorpus, entry)
	}
	t.Fatalf("chaos run seed=%d n=%d failed the oracle: %v", seed, n, err)
}

// --- deterministic unit tests (always run) ---

// TestSeedReplayDeterminism proves a seed fully determines its trace: the
// property the regression corpus depends on.
func TestSeedReplayDeterminism(t *testing.T) {
	seeds, err := LoadSeeds(seedCorpus)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range append(seeds, Seed{Seed: 424242, Actions: 500}) {
		a := GenActions(s.Seed, s.Actions, e2eWeights)
		b := GenActions(s.Seed, s.Actions, e2eWeights)
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("seed %d: two generations disagree", s.Seed)
		}
		if len(a) != s.Actions {
			t.Fatalf("seed %d: %d actions, want %d", s.Seed, len(a), s.Actions)
		}
	}
	x := GenActions(1, 200, e2eWeights)
	y := GenActions(2, 200, e2eWeights)
	if reflect.DeepEqual(x, y) {
		t.Fatal("different seeds produced identical traces")
	}
}

// TestGenActionsForcedCoverage: every trace long enough for the smoke
// gate contains at least one kill and one sever of each kind its mix
// weights, whatever the seed rolls, and none of a kind it does not: the
// sever row is never forced a kill.
func TestGenActionsForcedCoverage(t *testing.T) {
	for _, w := range []Weights{e2eWeights, severWeights, crashWeights} {
		for seed := int64(0); seed < 50; seed++ {
			kills, severs := 0, 0
			for _, a := range GenActions(seed, 100, w) {
				switch a.Type {
				case ActKill:
					kills++
				case ActSever:
					severs++
				}
				if a.Host >= hostCount || a.Key >= keyCount || a.Pair >= pairCount || a.Node >= hostCount {
					t.Fatalf("mix %v seed %d: action out of range: %+v", w, seed, a)
				}
			}
			if (kills > 0) != (w[ActKill] > 0) || (severs > 0) != (w[ActSever] > 0) {
				t.Fatalf("mix %v seed %d: kills=%d severs=%d", w, seed, kills, severs)
			}
		}
	}
}

// TestMinimizePrefix: the corpus minimizer finds the exact threshold with
// a generous probe budget and still returns a failing prefix on a tight
// one.
func TestMinimizePrefix(t *testing.T) {
	probes := 0
	got := MinimizePrefix(120, 20, func(n int) bool { probes++; return n >= 37 })
	if got != 37 {
		t.Fatalf("minimized to %d, want 37 (%d probes)", got, probes)
	}
	got = MinimizePrefix(120, 2, func(n int) bool { return n >= 37 })
	if got < 37 || got > 120 {
		t.Fatalf("budget-capped minimize returned %d, outside [37,120]", got)
	}
}

// TestSeedCorpusWellFormed keeps regression_seeds.json loadable and sane.
func TestSeedCorpusWellFormed(t *testing.T) {
	seeds, err := LoadSeeds(seedCorpus)
	if err != nil {
		t.Fatal(err)
	}
	if len(seeds) == 0 {
		t.Fatal("empty regression corpus: expected at least the founding seeds")
	}
	for _, s := range seeds {
		if s.Actions < 1 {
			t.Fatalf("corpus entry %+v has no actions", s)
		}
	}
}

// TestAppendSeedDedups: re-reporting a known seed must not grow the file.
func TestAppendSeedDedups(t *testing.T) {
	path := t.TempDir() + "/seeds.json"
	s := Seed{Seed: 9, Actions: 40, Note: "x"}
	for i := 0; i < 3; i++ {
		if err := AppendSeed(path, s); err != nil {
			t.Fatal(err)
		}
	}
	if err := AppendSeed(path, Seed{Seed: 9, Actions: 41}); err != nil {
		t.Fatal(err)
	}
	seeds, err := LoadSeeds(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(seeds) != 2 {
		t.Fatalf("corpus has %d entries, want 2 (dedup failed): %+v", len(seeds), seeds)
	}
}

// TestProxySeverHeal pins the proxy's failure semantics: a severed link
// kills live pipes and refuses new ones at the application level while
// still accepting TCP; healing restores forwarding.
func TestProxySeverHeal(t *testing.T) {
	echo, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer echo.Close()
	go func() {
		for {
			c, err := echo.Accept()
			if err != nil {
				return
			}
			go func() {
				buf := make([]byte, 64)
				for {
					n, err := c.Read(buf)
					if err != nil {
						return
					}
					if _, err := c.Write(buf[:n]); err != nil {
						return
					}
				}
			}()
		}
	}()

	p, err := NewProxy("127.0.0.1:0", echo.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	roundTrip := func() error {
		conn, err := net.Dial("tcp", p.Addr())
		if err != nil {
			return err
		}
		defer conn.Close()
		if err := conn.SetDeadline(time.Now().Add(2 * time.Second)); err != nil {
			return err
		}
		if _, err := conn.Write([]byte("hi")); err != nil {
			return err
		}
		buf := make([]byte, 2)
		for read := 0; read < 2; {
			n, err := conn.Read(buf[read:])
			if err != nil {
				return err
			}
			read += n
		}
		return nil
	}
	if err := roundTrip(); err != nil {
		t.Fatalf("healthy proxy: %v", err)
	}
	p.Sever()
	if err := roundTrip(); err == nil {
		t.Fatal("severed proxy still forwards")
	}
	p.Heal()
	if err := roundTrip(); err != nil {
		t.Fatalf("healed proxy: %v", err)
	}
}
