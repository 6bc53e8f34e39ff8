package folder

import "repro/internal/symbol"

// The per-verb calls the tests drive the store with: each is one op of the
// directory run in process (Store.run), as Put, PutToken, GetToken and
// GetSkip are.

// PutDelayed hides payload in trigger's folder; the next memo arriving in
// trigger releases it into dest (§6.1.2).
//
//memolint:must-check-error
func (s *Store) PutDelayed(trigger, dest symbol.Key, payload []byte) error {
	return s.PutDelayedToken(trigger, dest, payload, 0)
}

// PutDelayedToken is PutDelayed with an at-most-once dedup token (0 = none).
//
//memolint:must-check-error
func (s *Store) PutDelayedToken(trigger, dest symbol.Key, payload []byte, token uint64) error {
	_, _, _, err := s.run(&storeOp{keys: []symbol.Key{trigger}, mode: modeDeposit, token: token}, &dest, payload)
	return err
}

// Get removes and returns a memo, blocking until one is available or cancel
// is closed.
//
//memolint:must-check-error
func (s *Store) Get(key symbol.Key, cancel <-chan struct{}) ([]byte, error) {
	return s.GetToken(key, 0, cancel)
}

// GetCopy returns a copy of a memo without removing it, blocking until one
// is available.
func (s *Store) GetCopy(key symbol.Key, cancel <-chan struct{}) ([]byte, error) {
	_, out, _, err := s.run(&storeOp{keys: []symbol.Key{key}, mode: modeCopy, block: true, cancel: cancel}, nil, nil)
	return out, err
}

// GetSkipToken is GetSkip with an at-most-once dedup token (0 = none). A
// retried skip repeats its original's answer, an observed-empty miss
// included. A wait behind another attempt's claim is bounded: a token is
// only ever shared by attempts of the same non-blocking skip.
//
//memolint:must-check-error
func (s *Store) GetSkipToken(key symbol.Key, token uint64) ([]byte, bool, error) {
	_, out, ok, err := s.run(&storeOp{keys: []symbol.Key{key}, mode: modeTake, token: token}, nil, nil)
	return out, ok, err
}

// AltTake removes a memo from any of the given folders, blocking until one
// is available. Among simultaneously eligible folders the choice is
// nondeterministic (§6.1.2 get_alt). Returns the satisfied key. An empty
// key set fails immediately with ErrNoKeys.
//
//memolint:must-check-error
func (s *Store) AltTake(keys []symbol.Key, cancel <-chan struct{}) (symbol.Key, []byte, error) {
	return s.AltTakeToken(keys, 0, cancel)
}

// AltTakeToken is AltTake with an at-most-once dedup token (0 = none): the
// cached result remembers which key satisfied the original, so a retry
// returns the same (key, payload) pair.
//
//memolint:must-check-error
func (s *Store) AltTakeToken(keys []symbol.Key, token uint64, cancel <-chan struct{}) (symbol.Key, []byte, error) {
	k, out, _, err := s.run(&storeOp{keys: keys, mode: modeTake, block: true, token: token, cancel: cancel}, nil, nil)
	return k, out, err
}

// AltSkip removes a memo from any of the folders without blocking. The scan
// visits shards one at a time, so concurrent mutation between shards may be
// observed — same as the cross-server get_alt_skip built above this. A
// non-nil error reports a dead durable log (the take is rolled back).
//
//memolint:must-check-error
func (s *Store) AltSkip(keys []symbol.Key) (symbol.Key, []byte, bool, error) {
	return s.run(&storeOp{keys: keys, mode: modeTake}, nil, nil)
}

// Watch blocks until any of the folders is non-empty, without consuming.
// It returns the key observed non-empty. Cross-server get_alt is built from
// per-server Watches plus retry (see the core package). An empty key set
// fails immediately with ErrNoKeys.
func (s *Store) Watch(keys []symbol.Key, cancel <-chan struct{}) (symbol.Key, error) {
	k, _, _, err := s.run(&storeOp{keys: keys, mode: modePeek, block: true, cancel: cancel}, nil, nil)
	return k, err
}
