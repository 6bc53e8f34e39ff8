package e2e

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os/exec"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/obs"
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

// Target is a running cluster of hostCount nodes that RunChaos drives: the
// daemons of Cluster, or the in-process cluster over transport.Sim of
// simTarget. Node and pair indices are the trace's.
type Target interface {
	// Memo opens a library handle entering the cluster at node i.
	Memo(i int) (*core.Memo, error)
	// PutCLI and GetSkipCLI run one op as the memo binary, a client process
	// of its own, does. Their error is harness breakage; the op's own
	// failure is in the result.
	PutCLI(i int, key symbol.Key, val string) (CLIResult, error)
	GetSkipCLI(i int, key symbol.Key) (CLIResult, error)
	Ping(i int) error
	// Kill crashes node i and restarts it from its data directory.
	Kill(i int) error
	Sever(pair int)
	Heal(pair int)
	// Metrics renders node i's /metrics exposition.
	Metrics(i int) ([]byte, error)
}

// sumGauge sums every sample of one series over tg's nodes, each read back
// from its exposition with obs.ParseText.
func sumGauge(tg Target, series string) (int64, error) {
	var sum float64
	for i, h := range hostNames {
		text, err := tg.Metrics(i)
		var samples []obs.Sample
		if err == nil {
			samples, err = obs.ParseText(bytes.NewReader(text))
		}
		if err != nil {
			return 0, fmt.Errorf("node %s: %w", h, err)
		}
		sum += obs.Sum(samples, series)
	}
	return int64(sum), nil
}

// settleBound is how long settle waits for the trace's ops once it has
// canceled them all. Every caller completes within it, or the run fails
// naming the actions still running.
const settleBound = 15 * time.Second

// runner carries one chaos run's live state.
type runner struct {
	tg    Target
	led   *cluster.Ledger
	memos [hostCount]*core.Memo
	seed  int64
	logf  func(string, ...any)

	ctx     context.Context // done at settle, so every parked op cancels at once
	stop    context.CancelFunc
	wg      sync.WaitGroup
	sem     chan struct{} // bounds concurrently running library ops
	running sync.Map      // action index -> ActionType while its op runs

	killed       [hostCount]bool // nodes some kill of the trace crashes
	remoteCopies atomic.Int64

	severed []int // FIFO of severed pair indices

	pumped    map[string]map[string]bool // target host -> allowed images
	ackedPump map[string]bool            // target host has >= 1 certain image
}

// Outcome is what one run booked: the ledger's tally, and how many watches
// entered away from their key's owner returned a value.
type Outcome struct {
	cluster.Tally
	RemoteCopies int
}

// RunChaos drives the trace acts through tg, settles, drains and audits the
// ledger. Every library op runs on a bounded async pool, so faults land on
// work in flight; chaos, CLI and pump steps run inline. A nil error means
// the oracle held.
func RunChaos(tg Target, seed int64, acts []Action, logf func(string, ...any)) (Outcome, error) {
	r := &runner{
		tg: tg, led: cluster.NewLedger(), seed: seed, logf: logf,
		sem:       make(chan struct{}, 16),
		pumped:    make(map[string]map[string]bool),
		ackedPump: make(map[string]bool),
	}
	r.ctx, r.stop = context.WithCancel(context.Background())
	defer r.stop()
	for _, a := range acts {
		if a.Type == ActKill {
			r.killed[a.Node] = true
		}
	}
	for i := range r.memos {
		m, err := tg.Memo(i)
		if err != nil {
			return Outcome{}, err
		}
		defer m.Close()
		r.memos[i] = m
	}
	for i, act := range acts {
		if err := r.step(i, act); err != nil {
			return Outcome{}, fmt.Errorf("action %d (%s): %w", i, act.Type, err)
		}
	}
	if err := r.settle(); err != nil {
		return Outcome{}, err
	}
	if err := r.drainAndCheck(); err != nil {
		return Outcome{}, err
	}
	out := Outcome{Tally: r.led.Tally(), RemoteCopies: int(r.remoteCopies.Load())}
	logf("run seed=%d n=%d: oracle held (%+v)", seed, len(acts), out)
	return out, nil
}

// RunDaemons boots the daemon cluster in dir, runs seed's n-action trace
// under the e2e weights, and shuts every daemon down. A nil return means the
// oracle held and every daemon drained cleanly.
func RunDaemons(dir string, bins Binaries, seed int64, n int, logf func(string, ...any)) error {
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
	if _, err := RunChaos(c, seed, GenActions(seed, n, e2eWeights), logf); err != nil {
		return err
	}
	clean = true
	if err := c.Shutdown(); err != nil {
		return fmt.Errorf("clean shutdown: %w", err)
	}
	return nil
}

func (r *runner) value(i int) string { return fmt.Sprintf("v%dx%d", r.seed, i) }

func asStr(v transferable.Value) string {
	if s, ok := transferable.AsString(v); ok {
		return s
	}
	return fmt.Sprint(transferable.ToGo(v))
}

// owner is the index of the host whose folder server holds trace key k.
func owner(k int) int { return slices.Index(hostNames[:], chaosPlace.Place(chaosKey(k)).Host) }

// async runs action i's library op on the bounded pool. Its cancel fires
// after opTimeout or when settle stops the run, whichever comes first; the
// outcome flows into the ledger from the goroutine. A pool that stays full
// for settleBound fails the run the way a hung settle does.
func (r *runner) async(i int, t ActionType, op func(cancel <-chan struct{})) error {
	select {
	case r.sem <- struct{}{}:
	case <-time.After(settleBound):
		return r.stuck("no pool slot")
	}
	r.wg.Add(1)
	r.running.Store(i, t)
	go func() {
		defer r.wg.Done()
		defer func() { <-r.sem }()
		defer r.running.Delete(i)
		ctx, cancel := context.WithTimeout(r.ctx, opTimeout)
		defer cancel()
		op(ctx.Done())
	}()
	return nil
}

// stuck fails the run over ops that did not return within settleBound: one
// violation naming each action still running, then the ledger's verdict.
func (r *runner) stuck(what string) error {
	r.running.Range(func(i, t any) bool {
		r.led.Violate(fmt.Sprintf("action %d (%s) still running after %v", i, t, settleBound))
		return true
	})
	return errors.Join(fmt.Errorf("%s: ops still running after %v", what, settleBound), r.led.Check())
}

// take books a take action i ran and holds the runner's owner-local rule: a
// take entered at the host that owns every key it names, on a node no kill
// of the trace crashes, crosses no link and outlives no restart, so it ends
// acknowledged or canceled, never uncertain or unsent.
func (r *runner) take(i int, act Action, v string, ok bool, err error) {
	r.led.Take(v, ok, err)
	if err == nil || errors.Is(err, core.ErrCanceled) || r.killed[act.Host] {
		return
	}
	keys := act.Keys
	if keys == nil {
		keys = []int{act.Key}
	}
	for _, k := range keys {
		if owner(k) != act.Host {
			return
		}
	}
	r.led.Violate(fmt.Sprintf("action %d (%s at %s): owner-local take ended %v",
		i, act.Type, hostNames[act.Host], err))
}

// watched holds the watch rule for action i: a watch entered at a node no
// kill crashes ends with a value or a typed error, a cancel or the entry
// node's answer (a forward failing fast across a cut link). Its client link
// goes only to that node, which no sever cuts, so a link error breaks the
// rule. It counts the remote watches that returned a value.
func (r *runner) watched(i int, act Action, err error) {
	var re *core.RemoteError
	switch {
	case err == nil:
		if owner(act.Key) != act.Host {
			r.remoteCopies.Add(1)
		}
	case !r.killed[act.Host] && !errors.Is(err, core.ErrCanceled) && !errors.As(err, &re):
		r.led.Violate(fmt.Sprintf("action %d (watch at %s): untyped error %v", i, hostNames[act.Host], err))
	}
}

// step executes one trace action. Only harness breakage returns an error;
// operation failures are ledger events, not run failures.
func (r *runner) step(i int, act Action) error {
	m := r.memos[act.Host]
	key := chaosKey(act.Key)
	keys := make([]symbol.Key, len(act.Keys))
	for j, k := range act.Keys {
		keys[j] = chaosKey(k)
	}
	val := r.value(i)
	switch act.Type {
	case ActPut:
		return r.async(i, act.Type, func(<-chan struct{}) { r.led.Put(val, m.Put(key, transferable.String(val))) })

	case ActPutCLI:
		out, err := r.tg.PutCLI(act.Host, key, val)
		if err != nil {
			return err
		}
		r.led.Put(val, out.Err())

	case ActPutDelayed:
		return r.async(i, act.Type, func(<-chan struct{}) {
			r.led.Put(val, m.PutDelayed(key, chaosKey(act.Key2), transferable.String(val)))
		})

	case ActGet:
		return r.async(i, act.Type, func(cancel <-chan struct{}) {
			v, err := m.GetCancel(key, cancel)
			r.take(i, act, asStr(v), true, err)
		})

	case ActGetSkip:
		return r.async(i, act.Type, func(<-chan struct{}) {
			v, ok, err := m.GetSkip(key)
			r.take(i, act, asStr(v), ok, err)
		})

	case ActGetSkipCLI:
		out, err := r.tg.GetSkipCLI(act.Host, key)
		if err != nil {
			return err
		}
		r.take(i, act, out.Value, !out.Empty, out.Err())

	case ActAltTake:
		return r.async(i, act.Type, func(cancel <-chan struct{}) {
			_, v, err := m.GetAltCancel(cancel, keys...)
			r.take(i, act, asStr(v), true, err)
		})

	case ActAltSkip:
		return r.async(i, act.Type, func(<-chan struct{}) {
			_, v, ok, err := m.GetAltSkip(keys...)
			r.take(i, act, asStr(v), ok, err)
		})

	case ActWatch:
		return r.async(i, act.Type, func(cancel <-chan struct{}) {
			v, err := m.GetCopyCancel(key, cancel)
			r.led.Copy(asStr(v), err)
			r.watched(i, act, err)
		})

	case ActPump:
		r.pump(m, hostNames[act.Node], "img-"+val)

	case ActKill:
		r.logf("action %d: kill node %s", i, hostNames[act.Node])
		if err := r.tg.Kill(act.Node); err != nil {
			return fmt.Errorf("restart node %s: %w", hostNames[act.Node], err)
		}

	case ActSever:
		if !slices.Contains(r.severed, act.Pair) {
			from, to := pairHosts(act.Pair)
			r.logf("action %d: sever link %s->%s", i, from, to)
			r.tg.Sever(act.Pair)
			r.severed = append(r.severed, act.Pair)
		}

	case ActHeal:
		if len(r.severed) > 0 {
			p := r.severed[0]
			r.severed = r.severed[1:]
			from, to := pairHosts(p)
			r.logf("action %d: heal link %s->%s", i, from, to)
			r.tg.Heal(p)
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

// settle ends the chaos phase: every link healed, every parked op canceled
// and every op returned within settleBound, every node answering, and a
// watcher-convergence probe on keys no chaos action ever touched.
func (r *runner) settle() error {
	for _, p := range r.severed {
		r.tg.Heal(p)
	}
	r.severed = nil
	r.stop()
	done := make(chan struct{})
	go func() { r.wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(settleBound):
		return r.stuck("settle")
	}

	for i := range r.memos {
		if !eventually(10*time.Second, 100*time.Millisecond, func() bool { return r.tg.Ping(i) == nil }) {
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
		before, err := sumGauge(r.tg, "folder_waiters")
		if err != nil {
			return fmt.Errorf("settle: %w", err)
		}
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
		// The put must find the watcher parked, so the probe tests the wake
		// path: wait until folder_waiters rises above its value from before
		// the watcher started (or the watcher has already failed).
		eventually(10*time.Second, time.Millisecond, func() bool {
			n, err := sumGauge(r.tg, "folder_waiters")
			return err == nil && n > before || len(errc)+len(got) > 0
		})
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
	keys := []symbol.Key{m.NamedKey("sentinel0"), m.NamedKey("sentinel1")}
	for k := 0; k < keyCount; k++ {
		keys = append(keys, chaosKey(k))
	}
	converged := false
	for round := 0; round < 40 && !converged; round++ {
		drained := 0
		for _, key := range keys {
			n, err := sweep(key)
			drained += n
			if err != nil {
				return fmt.Errorf("drain sweep: %w", err)
			}
		}
		hidden, err := sumGauge(r.tg, "folder_delayed_hidden")
		if err != nil {
			return fmt.Errorf("drain metrics: %w", err)
		}
		memos, err := sumGauge(r.tg, "folder_memos")
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
		hidden, _ := sumGauge(r.tg, "folder_delayed_hidden")
		memos, _ := sumGauge(r.tg, "folder_memos")
		r.led.Violate(fmt.Sprintf(
			"drain never converged after 40 sweeps: folder_memos=%d folder_delayed_hidden=%d",
			memos, hidden))
	}
	return r.led.Check()
}
