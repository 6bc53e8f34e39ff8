package folder

import (
	"fmt"
	"testing"
	"testing/quick"

	"repro/internal/symbol"
)

// modelStore is a reference implementation: multiset semantics per folder,
// delayed entries released by arrival. It ignores ordering (the real store
// promises none) and blocking (we only drive non-blocking ops here).
type modelStore struct {
	items   map[string]map[string]int // canon -> payload -> count
	delayed map[string][]modelDelayed
}

type modelDelayed struct {
	dest    symbol.Key
	payload string
}

func newModel() *modelStore {
	return &modelStore{
		items:   make(map[string]map[string]int),
		delayed: make(map[string][]modelDelayed),
	}
}

func (m *modelStore) put(k symbol.Key, payload string) {
	canon := k.Canon()
	if m.items[canon] == nil {
		m.items[canon] = make(map[string]int)
	}
	m.items[canon][payload]++
	released := m.delayed[canon]
	delete(m.delayed, canon)
	for _, d := range released {
		m.put(d.dest, d.payload)
	}
}

func (m *modelStore) putDelayed(trigger, dest symbol.Key, payload string) {
	canon := trigger.Canon()
	m.delayed[canon] = append(m.delayed[canon], modelDelayed{dest: dest, payload: payload})
}

// take removes payload from the folder, reporting whether the model held it.
func (m *modelStore) take(k symbol.Key, payload string) bool {
	canon := k.Canon()
	if m.items[canon] == nil || m.items[canon][payload] == 0 {
		return false
	}
	m.items[canon][payload]--
	if m.items[canon][payload] == 0 {
		delete(m.items[canon], payload)
	}
	if len(m.items[canon]) == 0 {
		delete(m.items, canon)
	}
	return true
}

func (m *modelStore) count(k symbol.Key) int {
	n := 0
	for _, c := range m.items[k.Canon()] {
		n += c
	}
	return n
}

func (m *modelStore) total() int {
	n := 0
	for _, folder := range m.items {
		for _, c := range folder {
			n += c
		}
	}
	return n
}

// op is one scripted operation derived from random bytes.
type op struct {
	kind    byte // 0 put, 1 putDelayed, 2 getSkip, 3 altSkip
	a, b    uint8
	payload uint8
}

// TestQuickStoreMatchesModel drives random op sequences against the real
// store and the reference model simultaneously. Invariants: GetSkip returns
// a payload the model holds in that folder (and removes the same one);
// visible memo counts agree after every step; delayed counts agree.
func TestQuickStoreMatchesModel(t *testing.T) {
	const nKeys = 6
	key := func(i uint8) symbol.Key { return symbol.K(symbol.Symbol(1), uint32(i%nKeys)) }
	f := func(raw []byte) bool {
		s := NewStore()
		m := newModel()
		for i := 0; i+3 < len(raw); i += 4 {
			o := op{kind: raw[i] % 4, a: raw[i+1], b: raw[i+2], payload: raw[i+3]}
			ka, kb := key(o.a), key(o.b)
			pay := fmt.Sprintf("p%d", o.payload%8)
			switch o.kind {
			case 0:
				s.Put(ka, []byte(pay))
				m.put(ka, pay)
			case 1:
				if ka.Equal(kb) {
					// A self-delayed entry would release into its own
					// trigger; allowed, but keep the model simple by
					// offsetting the destination.
					kb = key(o.b + 1)
				}
				s.PutDelayed(ka, kb, []byte(pay))
				m.putDelayed(ka, kb, pay)
			case 2:
				got, ok, _ := s.GetSkip(ka)
				if ok {
					if !m.take(ka, string(got)) {
						t.Logf("store returned %q from %v which model does not hold", got, ka)
						return false
					}
				} else if m.count(ka) != 0 {
					t.Logf("store empty at %v but model holds %d", ka, m.count(ka))
					return false
				}
			case 3:
				keys := []symbol.Key{ka, kb}
				gotKey, got, ok, _ := s.AltSkip(keys)
				if ok {
					if !m.take(gotKey, string(got)) {
						t.Logf("alt returned %q from %v not in model", got, gotKey)
						return false
					}
				} else if m.count(ka)+m.count(kb) != 0 {
					return false
				}
			}
			if s.occupancy(nil).memos != m.total() {
				t.Logf("memo counts diverge: store %d model %d", s.occupancy(nil).memos, m.total())
				return false
			}
		}
		// Drain everything and confirm exact multiset equality.
		for i := uint8(0); i < nKeys; i++ {
			k := key(i)
			for {
				got, ok, _ := s.GetSkip(k)
				if !ok {
					break
				}
				if !m.take(k, string(got)) {
					return false
				}
			}
			if m.count(k) != 0 {
				return false
			}
		}
		return s.occupancy(nil).delayed == len(flatten(m.delayed))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func flatten(d map[string][]modelDelayed) []modelDelayed {
	var out []modelDelayed
	for _, v := range d {
		out = append(out, v...)
	}
	return out
}
