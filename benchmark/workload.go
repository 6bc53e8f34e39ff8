package main

import (
	"fmt"
	"hash/maphash"
	"math/rand/v2"
	"strconv"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/memoserver"
	"repro/internal/placement"
	"repro/internal/symbol"
	"repro/internal/transferable"
	"repro/internal/wire"
)

// workload is one closed-loop traffic shape. Every caller blocks on each
// reply before issuing its next request, like the paper's own programs
// (boss/worker job jars, MDC ping-pong).
type workload struct {
	name string
	why  string
	// callers is the fixed number of in-flight callers.
	callers int
	// payload is the size in bytes of each memo's string value.
	payload int
	// folders is how many distinct keys the callers spread over.
	folders int
	// keysOn is the node whose folder server owns every key (0 = a, the
	// entry node; 1 = b, reached over the peer link).
	keysOn int
	// durable turns -data-dir on, so every mutation is write-ahead-logged
	// and set-up includes a SIGTERM/restart with replay.
	durable bool
	// pingpong pairs callers: the initiator does Put(ping)->Get(pong), the
	// responder Get(ping)->Put(pong), so nearly every Get parks.
	pingpong bool
}

var workloads = []workload{
	{
		name: "jobjar_durable", callers: 64, payload: 64, folders: 256, durable: true,
		why: "64 callers Put then Get 64 B memos in 256 local folders with the WAL on: count-bound, so durable group commit and the folder queue/token-table path do the work",
	},
	{
		name: "bulk_durable", callers: 16, payload: 4096, folders: 256, durable: true,
		why: "16 callers move 4 KiB memos locally with the WAL on: bytes-bound, so codec copies, pool size classes, byte-capped batches and WAL write volume do the work",
	},
	{
		name: "parked_mem", callers: 64, payload: 64, folders: 32, pingpong: true,
		why: "32 ping-pong pairs, memory only: nearly every Get arrives before its memo and parks, so the waiter/wake path and out-of-order rpc responses do the work and durable does none",
	},
	{
		name: "forward_mem", callers: 8, payload: 64, folders: 256, keysOn: 1,
		why: "8 callers enter at node a for keys owned by node b, memory only: every op crosses the peer link, so memoserver forwarding and two rpc hops dominate; latency-bound on purpose",
	},
}

// keyCount is how many keys the workload needs: one per folder, or a ping and
// a pong key per ping-pong pair.
func (w workload) keyCount() int {
	if w.pingpong {
		return 2 * w.folders
	}
	return w.folders
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// Backlog: memos preloaded into node a's folder server and left there for
// the whole run, so snapshots and replay work on a store that holds state.
const (
	backlogMemos   = 20000
	backlogFolders = 256
	backlogPayload = 64
)

// Symbol ranges. Workload keys and backlog keys never collide, and neither
// collides with the small symbols the ladder uses.
const (
	workloadSymBase = 1 << 20
	backlogSymBase  = 2 << 20
	symRange        = 1 << 20
)

func newRNG(seed, stream uint64) *rand.Rand { return rand.New(rand.NewPCG(seed, stream)) }

// pickKeys returns n distinct keys that the placement map assigns to host,
// chosen by the seed from the symbol range starting at base. The seed
// decides which symbols become keys; the servers only ever see the keys.
func pickKeys(place *placement.Map, rng *rand.Rand, host string, base uint64, n int) []symbol.Key {
	keys := make([]symbol.Key, 0, n)
	seen := make(map[uint64]bool, n)
	for len(keys) < n {
		s := base + rng.Uint64N(symRange)
		if seen[s] {
			continue
		}
		seen[s] = true
		k := symbol.K(symbol.Symbol(s))
		if place.Place(k).Host == host {
			keys = append(keys, k)
		}
	}
	return keys
}

// ledger is the per-caller half of the correctness oracle: counts and a
// commutative hash-sum of every value put and every value got. Summed over
// all callers, puts and gets must agree exactly: a lost value lowers the
// got count, a duplicated one raises it, and a value replaced by another
// keeps the count but changes the sum.
type ledger struct {
	putN, gotN     uint64
	putSum, gotSum uint64
}

var ledgerSeed = maphash.MakeSeed()

func valueHash(s string) uint64 { return maphash.String(ledgerSeed, s) }

func (l *ledger) put(v string) { l.putN++; l.putSum += valueHash(v) }
func (l *ledger) got(v string) { l.gotN++; l.gotSum += valueHash(v) }

func (l *ledger) merge(o ledger) {
	l.putN += o.putN
	l.gotN += o.gotN
	l.putSum += o.putSum
	l.gotSum += o.gotSum
}

// mismatch describes how puts and gets disagree, or "" when they agree.
func (l ledger) mismatch() string {
	if l.putN == l.gotN && l.putSum == l.gotSum {
		return ""
	}
	return fmt.Sprintf("ledger mismatch: put n=%d sum=%016x, got n=%d sum=%016x", l.putN, l.putSum, l.gotN, l.gotSum)
}

// Value layout: "c" + 4-digit caller + "s" + 14-digit sequence + filler.
// The header makes every value of a run unique; the filler is seeded.
const (
	valueHeader = 20
	stopSeq     = 99999999999999 // sentinel a ping-pong initiator sends last
)

// valueGen produces one caller's values.
type valueGen struct {
	buf []byte
	seq uint64
}

func newValueGen(caller, size int, rng *rand.Rand) *valueGen {
	if size < valueHeader {
		size = valueHeader
	}
	b := make([]byte, size)
	copy(b, fmt.Sprintf("c%04ds%014d", caller, 0))
	for i := valueHeader; i < size; i++ {
		b[i] = byte('a' + rng.IntN(26))
	}
	return &valueGen{buf: b}
}

func (g *valueGen) at(seq uint64) string {
	for i := valueHeader - 1; i >= 6; i-- {
		g.buf[i] = byte('0' + seq%10)
		seq /= 10
	}
	return string(g.buf)
}

func (g *valueGen) next() string { g.seq++; return g.at(g.seq) }

// valueCaller and valueSeq parse a value's header.
func valueCaller(v string) (int, bool) {
	if len(v) < valueHeader || v[0] != 'c' || v[5] != 's' {
		return 0, false
	}
	n, err := strconv.Atoi(v[1:5])
	return n, err == nil
}

func valueSeq(v string) (uint64, bool) {
	if len(v) < valueHeader {
		return 0, false
	}
	n, err := strconv.ParseUint(v[6:20], 10, 64)
	return n, err == nil
}

// maxCallerErrors is how many failed operations a caller tolerates before
// it gives up; a run with any failure is already incorrect, this only
// keeps a dead cluster from spinning the loadgen until the deadline.
const maxCallerErrors = 100

// traceEvery is the sampling period of the traced run: one round in this
// many keeps its spans.
const traceEvery = 16

// caller is one closed-loop client. Everything it touches on the hot path
// is its own: its sample slice, its ledger, its span buffer.
type caller struct {
	id      int
	m       *core.Memo
	client  *memoserver.Client // the connection under m, for the traced path
	place   *placement.Map
	keys    []symbol.Key
	rng     *rand.Rand
	gen     *valueGen
	payload int

	t0      time.Time // window origin; samples are relative to it
	stop    *atomic.Bool
	traced  *atomic.Bool // when set, ops go through the split client path
	partner int          // ping-pong: the other caller of the pair

	samples   []sample
	led       ledger
	attempted int
	failed    int
	firstErr  error
	spans     []span
	rounds    uint64
}

func (c *caller) fail(err error) {
	c.failed++
	if c.firstErr == nil {
		c.firstErr = err
	}
}

// put issues one Put, through core.Memo normally and through the client's
// public calls one by one when the traced window is open.
func (c *caller) put(key symbol.Key, val string, rec *roundTrace) error {
	c.attempted++
	var err error
	if c.traced.Load() {
		err = c.tracedPut(key, val, rec)
	} else {
		err = c.m.Put(key, transferable.String(val))
	}
	if err != nil {
		c.fail(fmt.Errorf("put: %w", err))
		return err
	}
	c.led.put(val)
	return nil
}

// get issues one blocking Get and checks the shape of what came back.
func (c *caller) get(key symbol.Key, rec *roundTrace) (string, error) {
	c.attempted++
	var v transferable.Value
	var err error
	if c.traced.Load() {
		v, err = c.tracedGet(key, rec)
	} else {
		v, err = c.m.Get(key)
	}
	if err != nil {
		c.fail(fmt.Errorf("get: %w", err))
		return "", err
	}
	s, ok := transferable.AsString(v)
	if !ok || len(s) != c.payload {
		err = fmt.Errorf("get: wrong value (string=%v len=%d want %d)", ok, len(s), c.payload)
		c.fail(err)
		return "", err
	}
	c.led.got(s)
	return s, nil
}

// tracedPut is core.Memo.Put taken apart: marshal, place, do — the same
// public calls, with a span around each on a kept round.
func (c *caller) tracedPut(key symbol.Key, val string, rec *roundTrace) error {
	op := rec.begin("put")
	t := rec.begin("client.marshal")
	payload, err := transferable.Marshal(transferable.String(val))
	rec.end(t)
	if err != nil {
		return err
	}
	t = rec.begin("client.place")
	fid := c.place.Place(key).ID
	rec.end(t)
	t = rec.begin("client.do")
	resp, err := c.client.Do(&wire.Request{Op: wire.OpPut, FolderID: fid, Key: key, Payload: payload}, nil)
	rec.end(t)
	rec.end(op)
	if err != nil {
		return err
	}
	if resp.Status == wire.StatusErr {
		return fmt.Errorf("remote error: %s", resp.Err)
	}
	return nil
}

// tracedGet is core.Memo.Get taken apart the same way.
func (c *caller) tracedGet(key symbol.Key, rec *roundTrace) (transferable.Value, error) {
	op := rec.begin("get")
	t := rec.begin("client.place")
	fid := c.place.Place(key).ID
	rec.end(t)
	t = rec.begin("client.do")
	resp, err := c.client.Do(&wire.Request{Op: wire.OpGet, FolderID: fid, Key: key}, nil)
	rec.end(t)
	if err != nil {
		rec.end(op)
		return nil, err
	}
	if resp.Status == wire.StatusErr {
		rec.end(op)
		return nil, fmt.Errorf("remote error: %s", resp.Err)
	}
	t = rec.begin("client.unmarshal")
	v, err := transferable.Unmarshal(resp.Payload, transferable.Domain64)
	rec.end(t)
	rec.end(op)
	return v, err
}

// roundTraceFor returns the span recorder for this round: a live one on
// every traceEvery-th round of the traced window, nil (which records
// nothing) otherwise.
func (c *caller) roundTraceFor() *roundTrace {
	c.rounds++
	if !c.traced.Load() || c.rounds%traceEvery != 0 {
		return nil
	}
	return &roundTrace{c: c, req: uint64(c.id)<<32 | c.rounds}
}

func (c *caller) giveUp() bool { return c.failed >= maxCallerErrors }

// runRounds is the job-jar loop: Put a memo into a folder, then Get one
// back out of the same folder. Several callers may share a folder, so the
// memo a caller gets is not always the one it put; the ledger accounts for
// values, not for who received them.
func (c *caller) runRounds() {
	for !c.stop.Load() && !c.giveUp() {
		key := c.keys[c.rng.IntN(len(c.keys))]
		val := c.gen.next()
		rec := c.roundTraceFor()
		start := time.Now()
		root := rec.begin("round")
		if c.put(key, val, rec) != nil {
			time.Sleep(time.Millisecond)
			continue
		}
		if _, err := c.get(key, rec); err != nil {
			time.Sleep(time.Millisecond)
			continue
		}
		rec.end(root)
		end := time.Now()
		c.samples = append(c.samples, sample{doneNS: end.Sub(c.t0).Nanoseconds(), roundNS: end.Sub(start).Nanoseconds()})
	}
}

// runInitiator is the A side of a ping-pong pair: Put(ping) then Get(pong).
// Its round is the pair's round trip, and is the latency that is reported.
// On stop it sends the sentinel so the responder leaves its blocking Get.
func (c *caller) runInitiator(ping, pong symbol.Key) {
	for !c.stop.Load() && !c.giveUp() {
		val := c.gen.next()
		rec := c.roundTraceFor()
		start := time.Now()
		root := rec.begin("round")
		if c.put(ping, val, rec) != nil {
			time.Sleep(time.Millisecond)
			continue
		}
		got, err := c.get(pong, rec)
		if err != nil {
			time.Sleep(time.Millisecond)
			continue
		}
		rec.end(root)
		end := time.Now()
		if from, ok := valueCaller(got); !ok || from != c.partner {
			c.fail(fmt.Errorf("pong from caller %d, want %d", from, c.partner))
		}
		c.samples = append(c.samples, sample{doneNS: end.Sub(c.t0).Nanoseconds(), roundNS: end.Sub(start).Nanoseconds()})
	}
	for try := 0; try < 3; try++ {
		if c.put(ping, c.gen.at(stopSeq), nil) == nil {
			return
		}
	}
}

// runResponder is the B side: Get(ping) then Put(pong). It records its
// completions (they are verified operations) but no latency of its own,
// because its round overlaps the initiator's.
func (c *caller) runResponder(ping, pong symbol.Key) {
	for !c.giveUp() {
		got, err := c.get(ping, nil)
		if err != nil {
			time.Sleep(time.Millisecond)
			continue
		}
		if from, ok := valueCaller(got); !ok || from != c.partner {
			c.fail(fmt.Errorf("ping from caller %d, want %d", from, c.partner))
		}
		if seq, _ := valueSeq(got); seq == stopSeq {
			return
		}
		if c.put(pong, c.gen.next(), nil) != nil {
			time.Sleep(time.Millisecond)
			continue
		}
		c.samples = append(c.samples, sample{doneNS: time.Since(c.t0).Nanoseconds()})
	}
}
