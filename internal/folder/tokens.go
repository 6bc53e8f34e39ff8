package folder

import (
	"slices"
	"sync"
)

// tokSlot is one resolved dedup fact, held by value in the table's ring. A
// put token is its presence alone. A take's slot is the cached answer every
// retry repeats: name is the satisfied folder's canonical name — the very
// string the directory used as its map key, shared, never rebuilt — and data
// is the taken slice itself, shared read-only with the response the original
// take returned (fromCache hands a retry its own copy).
type tokSlot struct {
	tok  uint64
	kind slotKind
	name string
	data []byte
}

type slotKind uint8

const (
	slotFree  slotKind = iota // never written, or forgotten
	slotPut                   // an applied deposit
	slotTake                  // a take that consumed (name, data)
	slotEmpty                 // a skip that observed its folder empty
)

// tokenTable is the at-most-once dedup table: applied put tokens and
// consumed-take results, bounded by FIFO eviction. Its lock nests strictly
// inside a Store shard lock: noteIfNew and a consuming resolveTake are only
// called while the tokened op's target shard is locked, which serializes a
// retry against its original and orders results against snapshot cuts.
//
// The resolved facts live in ring, a slice of value slots that grows by
// doubling until it holds cap of them and is a fixed ring from then on: the
// n-th fact ever inserted sits at ring[n % cap], so FIFO position is the ring
// index and inserting over the oldest slot is the eviction. index maps a live
// token to its slot; neither its keys nor its values hold a pointer, so the
// garbage collector never walks it, and the ring is one object however many
// tokens it holds. A slot is evicted (or dumped) only if index still points
// at it — the identity check that lets a forgotten or re-noted token leave a
// dead slot behind without the dead slot ever speaking for the live one.
//
// claims is the in-flight set: tokens whose take is still executing. A claim
// is not a fact — it has applied nothing — so it is never in the ring, never
// dumped, and never evicted, however many newer tokens pass while its get is
// parked: the result enters the ring when the take happens. The value is the
// records of the retries parked behind the claim, handed back when it ends.
type tokenTable struct {
	mu     sync.Mutex
	cap    int
	index  map[uint64]uint32
	ring   []tokSlot
	next   uint64 // facts ever inserted
	claims map[uint64][]*waiter

	evictions  int64 // live tokens forgotten by age
	cacheBytes int64 // payload bytes the ring's take slots hold
}

// noteIfNew records tok as an applied deposit and reports whether it was new
// — one acquisition for the check-and-note a tokened put performs.
func (t *tokenTable) noteIfNew(tok uint64) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	if _, ok := t.index[tok]; ok {
		return false
	}
	t.insertLocked(tokSlot{tok: tok, kind: slotPut})
	return true
}

// note is noteIfNew for replay, where 0 means "no token".
func (t *tokenTable) note(tok uint64) {
	if tok != 0 {
		t.noteIfNew(tok)
	}
}

// insertLocked adds a fact at the next FIFO position, over the oldest one
// once the ring is full.
func (t *tokenTable) insertLocked(sl tokSlot) {
	if t.index == nil {
		t.index = make(map[uint64]uint32)
	}
	p := int(t.next % uint64(t.cap))
	if p == len(t.ring) { // still growing towards cap, by doubling: append's 1.25× copies the ring five times over on the way
		if p == cap(t.ring) {
			t.ring = slices.Grow(t.ring, min(max(p, 1024), t.cap-p))
		}
		t.ring = append(t.ring, sl)
	} else {
		if t.dropLocked(p) {
			t.evictions++
		}
		t.ring[p] = sl
	}
	t.index[sl.tok] = uint32(p)
	t.cacheBytes += int64(len(sl.data))
	t.next++
}

// speaksLocked reports whether slot p holds a fact and the index still
// points at it: only then does the slot speak for its token.
func (t *tokenTable) speaksLocked(p int) bool {
	q, ok := t.index[t.ring[p].tok]
	return ok && int(q) == p && t.ring[p].kind != slotFree
}

// dropLocked empties slot p and reports whether that forgot a live token:
// the token leaves the index if — and only if — this slot spoke for it.
func (t *tokenTable) dropLocked(p int) (wasLive bool) {
	if wasLive = t.speaksLocked(p); wasLive {
		delete(t.index, t.ring[p].tok)
	}
	t.cacheBytes -= int64(len(t.ring[p].data))
	t.ring[p] = tokSlot{}
	return wasLive
}

// claimTake is the claim step of a tokened take, with three outcomes. The
// token is a resolved fact: res is a copy of its slot (res.kind != slotFree).
// Its take is in flight: w, when not nil, is parked behind the claim, and is
// handed back when the claim resolves or abandons. Neither: the caller is now
// the owner, and must execute the take and then resolveTake or abandonTake.
func (t *tokenTable) claimTake(tok uint64, w *waiter) (res tokSlot, owner bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if p, ok := t.index[tok]; ok {
		return t.ring[p], false
	}
	if parked, ok := t.claims[tok]; ok {
		if w != nil {
			t.claims[tok] = append(parked, w)
		}
		return tokSlot{}, false
	}
	if t.claims == nil {
		t.claims = make(map[uint64][]*waiter)
	}
	t.claims[tok] = nil
	return tokSlot{}, true
}

// resolveTake turns the owner's claim into a fact and appends to woken the
// parked retries it took over, for the caller to rescan once it has
// unlocked. For a consuming take it is called under the taken shard's lock —
// the same critical section that removed the item and appended its RecTake —
// so a snapshot cut of that shard either sees the result (dumped as
// RecTakeCache) or precedes the take entirely (its record rides in the new
// generation).
func (t *tokenTable) resolveTake(sl tokSlot, woken []*waiter) []*waiter {
	t.mu.Lock()
	t.insertLocked(sl)
	woken = t.endClaimLocked(sl.tok, woken)
	t.mu.Unlock()
	return woken
}

// abandonTake drops the owner's unresolved claim (canceled) so a later retry
// re-executes instead of caching a non-answer, and appends to woken the
// parked retries, which race to re-claim when rescanned. The claim was never
// in the ring, so it leaves nothing behind.
func (t *tokenTable) abandonTake(tok uint64, woken []*waiter) []*waiter {
	t.mu.Lock()
	woken = t.endClaimLocked(tok, woken)
	t.mu.Unlock()
	return woken
}

// endClaimLocked retires tok's claim and notifies the records parked behind
// it, appending to woken the ones it took over.
func (t *tokenTable) endClaimLocked(tok uint64, woken []*waiter) []*waiter {
	for _, w := range t.claims[tok] {
		if w.notify() {
			woken = append(woken, w)
		}
	}
	delete(t.claims, tok)
	return woken
}

// leave takes w, canceled, off the claim of tok, if it is still parked
// behind it.
func (t *tokenTable) leave(tok uint64, w *waiter) {
	t.mu.Lock()
	if i := slices.Index(t.claims[tok], w); i >= 0 {
		t.claims[tok] = slices.Delete(t.claims[tok], i, i+1)
	}
	t.mu.Unlock()
}

// forget removes tok outright — the failed-commit path, where the take was
// already resolved but then rolled back by untake. Only a terminally dead
// log gets here; holders of a copy of the slot fail their durability barrier.
func (t *tokenTable) forget(tok uint64) {
	t.mu.Lock()
	if p, ok := t.index[tok]; ok {
		t.dropLocked(int(p))
	}
	t.mu.Unlock()
}

// noteTakeCache records a recovered take result (replay path — no claims
// exist yet). A bare RecToken note for the same token is upgraded in place.
func (t *tokenTable) noteTakeCache(sl tokSlot) {
	if sl.tok == 0 {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if p, ok := t.index[sl.tok]; ok {
		if t.ring[p].kind == slotPut {
			t.ring[p] = sl
			t.cacheBytes += int64(len(sl.data))
		}
		return
	}
	t.insertLocked(sl)
}

// dumpChunk is how many ring positions a streaming dump copies per
// acquisition of the table lock.
const dumpChunk = 1024

// stream hands emit the live facts oldest-first (for snapshots), a chunk of
// slot copies at a time, holding the table lock only while a chunk is copied
// — never while it is emitted — so tokened operations stall for a chunk, not
// for the table. The cursor is an insertion number, which is a ring position
// that stays put whatever is inserted meanwhile; a position overwritten
// before its chunk was copied held a fact the table has forgotten anyway. It
// covers the facts present when it starts: later ones belong to the caller's
// next generation. In-flight claims are not in the ring at all. emit must not
// retain the chunk.
func (t *tokenTable) stream(emit func(chunk []tokSlot) error) error {
	chunk := make([]tokSlot, 0, dumpChunk)
	t.mu.Lock()
	pos, end := t.next-uint64(len(t.ring)), t.next
	t.mu.Unlock()
	for pos < end {
		chunk = chunk[:0]
		t.mu.Lock()
		pos = max(pos, t.next-uint64(len(t.ring))) // overwritten meanwhile: forgotten
		for ; pos < end && len(chunk) < cap(chunk); pos++ {
			if p := int(pos % uint64(t.cap)); t.speaksLocked(p) {
				chunk = append(chunk, t.ring[p])
			}
		}
		t.mu.Unlock()
		if err := emit(chunk); err != nil {
			return err
		}
	}
	return nil
}
