package e2e

import (
	"context"
	"encoding/json"
	"fmt"
	"os/exec"
	"strings"
	"sync"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/symbol"
	"repro/internal/transferable"
)

// opTimeout bounds every blocking client call the runner issues. A timed-
// out take that reports canceled consumed nothing (the store said so), and
// the ledger books it so.
const opTimeout = 2 * time.Second

// CLI runs one memo-binary subcommand against node host and parses its
// -json result line. The returned error covers only harness-level failures
// (binary missing, no parsable output); operation failures come back in
// the CLIResult with OK=false and the exit code.
func (c *Cluster) CLI(host int, op string, extra ...string) (CLIResult, error) {
	args := []string{op, "-adf", c.ADFPath, "-addr", c.Nodes[host].Listen,
		"-host", hostNames[host], "-json"}
	args = append(args, extra...)
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	out, err := exec.CommandContext(ctx, c.Bins.Memo, args...).Output()
	var res CLIResult
	if ee, ok := err.(*exec.ExitError); ok {
		res.Code = ee.ExitCode()
		err = nil
	} else if err != nil {
		return res, fmt.Errorf("memo %s: %w", op, err)
	}
	line := ""
	for _, l := range strings.Split(strings.TrimSpace(string(out)), "\n") {
		if strings.HasPrefix(l, "{") {
			line = l
		}
	}
	if line == "" {
		return res, fmt.Errorf("memo %s: no -json result line (exit %d)", op, res.Code)
	}
	if jerr := json.Unmarshal([]byte(line), &res); jerr != nil {
		return res, fmt.Errorf("memo %s: bad -json line %q: %v", op, line, jerr)
	}
	return res, nil
}

// runner carries one chaos run's live state.
type runner struct {
	c     *Cluster
	led   *cluster.Ledger
	memos [hostCount]*core.Memo
	seed  int64

	wg  sync.WaitGroup
	sem chan struct{} // bounds concurrently-parked blocking ops

	severed []int // FIFO of severed pair indices

	pumped    map[string]map[string]bool // target host -> allowed images
	ackedPump map[string]bool            // target host has >= 1 certain image
}

// RunChaos executes one full seeded chaos run: boot, trace, settle, drain,
// oracle, clean shutdown. A nil return means the oracle held and every
// daemon drained cleanly.
func RunChaos(dir string, bins Binaries, seed int64, n int, logf func(string, ...any)) (err error) {
	c, err := NewCluster(dir, bins, logf)
	if err != nil {
		return err
	}
	clean := false
	defer func() {
		if !clean {
			// Scrape the forensics bundle before tearing the cluster down:
			// the bundle lands in the package directory next to
			// regression_seeds.json (the run's own dir is a TempDir the test
			// framework deletes). A minimization sweep rewrites it per
			// failing probe, so it ends up describing the minimal failure.
			fdir := fmt.Sprintf("forensics-seed%d", seed)
			if ferr := c.Forensics(fdir); ferr != nil {
				c.logf("forensics scrape: %v", ferr)
			} else {
				c.logf("forensics bundle (metrics, tracez per node) written to %s", fdir)
			}
			c.Abort()
		}
	}()
	if err := c.StartAll(); err != nil {
		return err
	}
	r := &runner{
		c: c, led: cluster.NewLedger(), seed: seed,
		sem:       make(chan struct{}, 16),
		pumped:    make(map[string]map[string]bool),
		ackedPump: make(map[string]bool),
	}
	for i := range r.memos {
		m, err := c.Memo(i)
		if err != nil {
			return err
		}
		defer m.Close()
		r.memos[i] = m
	}

	acts := GenActions(seed, n, hostCount, keyCount, pairCount)
	for i, act := range acts {
		if err := r.step(i, act); err != nil {
			return fmt.Errorf("action %d (%s): %w", i, act.Type, err)
		}
	}

	if err := r.settle(); err != nil {
		return err
	}
	if err := r.drainAndCheck(); err != nil {
		return err
	}
	clean = true
	if err := c.Shutdown(); err != nil {
		return fmt.Errorf("clean shutdown: %w", err)
	}
	c.logf("run seed=%d n=%d: oracle held (%+v)", seed, n, r.led.Tally())
	return nil
}

func (r *runner) value(i int) string { return fmt.Sprintf("v%dx%d", r.seed, i) }

func asStr(v transferable.Value) string {
	if s, ok := transferable.AsString(v); ok {
		return s
	}
	return fmt.Sprint(transferable.ToGo(v))
}

// async runs one blocking client op in the background with a bounded
// cancel. Outcomes flow into the ledger from the goroutine.
func (r *runner) async(op func(cancel <-chan struct{})) {
	r.sem <- struct{}{}
	r.wg.Add(1)
	go func() {
		defer r.wg.Done()
		defer func() { <-r.sem }()
		cancel := make(chan struct{})
		t := time.AfterFunc(opTimeout, func() { close(cancel) })
		defer t.Stop()
		op(cancel)
	}()
}

// step executes one trace action. Only harness breakage returns an error;
// operation failures are ledger events, not run failures.
func (r *runner) step(i int, act Action) error {
	m := r.memos[act.Host]
	key := chaosKey(act.Key)
	val := r.value(i)
	switch act.Type {
	case ActPut:
		r.led.Put(val, m.Put(key, transferable.String(val)))

	case ActPutCLI:
		out, err := r.c.CLI(act.Host, "put", "-key", key.Canon(), "-value", val)
		if err != nil {
			return err
		}
		r.led.Put(val, out.Err())

	case ActPutDelayed:
		r.led.Put(val, m.PutDelayed(key, chaosKey(act.Key2), transferable.String(val)))

	case ActGet:
		r.async(func(cancel <-chan struct{}) {
			v, err := m.GetCancel(key, cancel)
			r.led.Take(asStr(v), true, err)
		})

	case ActGetSkip:
		v, ok, err := m.GetSkip(key)
		r.led.Take(asStr(v), ok, err)

	case ActGetSkipCLI:
		out, err := r.c.CLI(act.Host, "get-skip", "-key", key.Canon())
		if err != nil {
			return err
		}
		r.led.Take(out.Value, !out.Empty, out.Err())

	case ActAltTake:
		keys := make([]symbol.Key, len(act.Keys))
		for j, k := range act.Keys {
			keys[j] = chaosKey(k)
		}
		r.async(func(cancel <-chan struct{}) {
			_, v, err := m.GetAltCancel(cancel, keys...)
			r.led.Take(asStr(v), true, err)
		})

	case ActAltSkip:
		keys := make([]symbol.Key, len(act.Keys))
		for j, k := range act.Keys {
			keys[j] = chaosKey(k)
		}
		_, v, ok, err := m.GetAltSkip(keys...)
		r.led.Take(asStr(v), ok, err)

	case ActWatch:
		r.async(func(cancel <-chan struct{}) {
			v, err := m.GetCopyCancel(key, cancel)
			r.led.Copy(asStr(v), err)
		})

	case ActPump:
		r.pump(m, hostNames[act.Node], "img-"+val)

	case ActKill:
		r.c.logf("action %d: SIGKILL node %s", i, hostNames[act.Node])
		r.c.Nodes[act.Node].Kill()
		if err := r.c.Restart(act.Node); err != nil {
			return fmt.Errorf("restart node %s: %w", hostNames[act.Node], err)
		}

	case ActSever:
		if !r.c.Proxies[act.Pair].Severed() {
			from, to := pairOf(act.Pair)
			r.c.logf("action %d: sever link %s->%s", i, hostNames[from], hostNames[to])
			r.c.Proxies[act.Pair].Sever()
			r.severed = append(r.severed, act.Pair)
		}

	case ActHeal:
		if len(r.severed) > 0 {
			p := r.severed[0]
			r.severed = r.severed[1:]
			from, to := pairOf(p)
			r.c.logf("action %d: heal link %s->%s", i, hostNames[from], hostNames[to])
			r.c.Proxies[p].Heal()
		}
	}
	return nil
}

// pump ships a program image and, when the target provably holds at least
// one image, fetches one back and checks it against the set of images that
// may legitimately be there. Program folders are append-only multisets, so
// any previously-shipped (certain or uncertain) image is a valid answer.
func (r *runner) pump(m *core.Memo, target, image string) {
	const dir = "w"
	if r.pumped[target] == nil {
		r.pumped[target] = make(map[string]bool)
	}
	err := m.PumpProgram(target, dir, []byte(image))
	r.pumped[target][image] = true
	if err == nil {
		r.ackedPump[target] = true
	}
	if !r.ackedPump[target] {
		return // fetch could block forever on an empty program folder
	}
	blob, err := m.FetchProgram(target, dir)
	if err != nil {
		return // link trouble; fetch is non-destructive, nothing to account
	}
	if !r.pumped[target][string(blob)] {
		r.led.Violate(fmt.Sprintf("fetch from %s returned image %q that was never pumped", target, blob))
	}
}

// settle ends the chaos phase: every link healed, every node answering,
// every parked blocking op resolved or timed out, and a watcher-
// convergence probe on keys no chaos action ever touched.
func (r *runner) settle() error {
	for _, p := range r.severed {
		r.c.Proxies[p].Heal()
	}
	r.severed = nil
	r.wg.Wait()

	for i := range r.c.Nodes {
		ok := false
		deadline := time.Now().Add(10 * time.Second)
		for time.Now().Before(deadline) {
			if out, err := r.c.CLI(i, "ping"); err == nil && out.OK {
				ok = true
				break
			}
			time.Sleep(100 * time.Millisecond)
		}
		if !ok {
			return fmt.Errorf("settle: node %s never answered ping", hostNames[i])
		}
	}

	// Watcher convergence: a watcher parked on an untouched key before the
	// deposit must see the deposit, across entry nodes — i.e. the watch/
	// notify path still works after the chaos. The watching and the putting
	// handle each name the key themselves, so a name that two processes
	// resolve differently fails here.
	for s := 0; s < 2; s++ {
		name := fmt.Sprintf("sentinel%d", s)
		want := fmt.Sprintf("sentinel%dx%d", r.seed, s)
		watchHost, putHost := (s+1)%hostCount, s%hostCount
		key := r.memos[watchHost].NamedKey(name)
		got := make(chan string, 1)
		errc := make(chan error, 1)
		go func() {
			cancel := make(chan struct{})
			t := time.AfterFunc(10*time.Second, func() { close(cancel) })
			defer t.Stop()
			v, err := r.memos[watchHost].GetCopyCancel(key, cancel)
			if err != nil {
				errc <- err
				return
			}
			got <- asStr(v)
		}()
		time.Sleep(50 * time.Millisecond) // let the watcher park
		if err := r.memos[putHost].Put(r.memos[putHost].NamedKey(name), transferable.String(want)); err != nil {
			return fmt.Errorf("settle: sentinel put: %w", err)
		}
		r.led.Put(want, nil)
		select {
		case v := <-got:
			if v != want {
				r.led.Violate(fmt.Sprintf("watcher on %v converged to %q, want %q", key, v, want))
			}
		case err := <-errc:
			r.led.Violate(fmt.Sprintf("watcher on %v never converged: %v", key, err))
		}
	}
	return nil
}

// drainAndCheck empties the cluster through get_skip sweeps (planting
// trigger deposits while hidden delayed values remain), then audits the
// ledger and the post-drain /metrics balance.
func (r *runner) drainAndCheck() error {
	m := r.memos[0]
	sweep := func(key symbol.Key) (int, error) {
		n := 0
		for {
			v, ok, err := m.GetSkip(key)
			if err != nil {
				return n, err
			}
			if !ok {
				return n, nil
			}
			r.led.Take(asStr(v), true, nil)
			n++
		}
	}
	converged := false
	for round := 0; round < 40 && !converged; round++ {
		drained := 0
		for k := 0; k < keyCount; k++ {
			n, err := sweep(chaosKey(k))
			drained += n
			if err != nil {
				return fmt.Errorf("drain sweep: %w", err)
			}
		}
		for s := 0; s < 2; s++ {
			n, err := sweep(m.NamedKey(fmt.Sprintf("sentinel%d", s)))
			drained += n
			if err != nil {
				return fmt.Errorf("drain sweep: %w", err)
			}
		}
		hidden, err := r.c.SumGauge("folder_delayed_hidden")
		if err != nil {
			return fmt.Errorf("drain metrics: %w", err)
		}
		memos, err := r.c.SumGauge("folder_memos")
		if err != nil {
			return fmt.Errorf("drain metrics: %w", err)
		}
		// Convergence needs the folder gauges to agree with the sweep:
		// nothing visible (a released delayed value still in flight between
		// servers shows up here first and gets swept next round) and nothing
		// hidden. Program images live in the node's program store, not in
		// folders, so they never appear in folder_memos.
		if drained == 0 && hidden == 0 && memos == 0 {
			converged = true
			break
		}
		if hidden > 0 {
			// Deposit a trigger in every folder: an arriving memo releases
			// all delayed values hidden there.
			for k := 0; k < keyCount; k++ {
				tv := fmt.Sprintf("trig%dxr%dk%d", r.seed, round, k)
				if err := m.Put(chaosKey(k), transferable.String(tv)); err != nil {
					return fmt.Errorf("drain trigger: %w", err)
				}
				r.led.Put(tv, nil)
			}
		}
		time.Sleep(50 * time.Millisecond) // cross-server releases are async
	}
	if !converged {
		hidden, _ := r.c.SumGauge("folder_delayed_hidden")
		memos, _ := r.c.SumGauge("folder_memos")
		r.led.Violate(fmt.Sprintf(
			"drain never converged after 40 sweeps: folder_memos=%d folder_delayed_hidden=%d",
			memos, hidden))
	}
	return r.led.Check()
}
