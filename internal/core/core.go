// Package core implements the Memo Language API (paper §6): the member
// functions of class Memo that application processes program against.
//
// A Memo handle is bound to one application process on one host. Every
// operation resolves the folder key to a folder server with the
// application's placement map, then issues the request to the local memo
// server, which routes it (§4.1). Values are transferables; they are encoded
// on the way in and decoded — against this host's native word domain — on
// the way out, so heterogeneous word sizes surface as ErrLossy exactly where
// the paper says they must.
//
// The seven basic functions are Put, PutDelayed, Get, GetCopy, GetSkip,
// GetAlt, and GetAltSkip; CreateSymbol mints fresh folder symbols. The
// higher-level structures of §6.2/§6.3 (arrays, job jars, futures,
// semaphores, barriers...) live in the collect package.
package core

import (
	"errors"
	"fmt"
	"sync"

	"repro/internal/adf"
	"repro/internal/memoserver"
	"repro/internal/placement"
	"repro/internal/symbol"
	"repro/internal/transferable"
	"repro/internal/wire"
)

// ErrCanceled reports a blocking call whose cancel the owning store honoured
// before it consumed anything. It is wire.ErrCanceled, the one value the
// store's canceled answer keeps from the store up to here.
var ErrCanceled = wire.ErrCanceled

// RemoteError carries an error message produced by a server.
type RemoteError struct{ Msg string }

func (e *RemoteError) Error() string { return "memo: " + e.Msg }

// TokenError is the error of an operation its client stamped with an
// at-most-once dedup token: the servers know the operation by that token,
// so an uncertain outcome is named by it. It wraps the operation's error
// and reads as it does; errors.Is and errors.As see through it to
// ErrCanceled, an *rpc.LinkError or a *RemoteError.
type TokenError struct {
	Token uint64
	Err   error
}

func (e *TokenError) Error() string { return e.Err.Error() }
func (e *TokenError) Unwrap() error { return e.Err }

// TokenOf returns the dedup token err names, or 0 when it names none.
func TokenOf(err error) uint64 {
	var te *TokenError
	if errors.As(err, &te) {
		return te.Token
	}
	return 0
}

// Memo is the API handle for one application process.
type Memo struct {
	app    string
	host   string
	domain transferable.Domain
	place  *placement.Map
	client *memoserver.Client

	mu     sync.Mutex
	closed bool
}

// Config assembles a Memo handle. App, Place and Client are required.
type Config struct {
	// App is the application name (folder names are scoped by it server-
	// side through the placement map's per-app registration).
	App string
	// Host is the process's machine.
	Host string
	// Domain is the host's native word domain (§3.1.3).
	Domain transferable.Domain
	// Registry is ignored: symbols are computed, not interned (see
	// symbol.Registry). It remains so that callers written against the old
	// Config still compile.
	Registry *symbol.Registry
	// Place must be identical to the placement map the memo servers built
	// at registration.
	Place *placement.Map
	// Client is the connection to the local memo server.
	Client *memoserver.Client
}

// Open builds the handle for a process on host of the application f
// describes: the app name and the host's native word domain come from f, and
// place must be the map the memo servers built at registration. Handles
// opened by different processes need share nothing else: a named symbol is
// a function of its name. It takes ownership of client, closing it if the
// handle cannot be built.
func Open(f *adf.File, host string, place *placement.Map, client *memoserver.Client) (*Memo, error) {
	h, ok := f.HostByName(host)
	if !ok {
		client.Close()
		return nil, fmt.Errorf("memo: host %q not in the ADF of %s", host, f.App)
	}
	m, err := New(Config{App: f.App, Host: host, Domain: domainFor(h.Arch),
		Place: place, Client: client})
	if err != nil {
		client.Close()
		return nil, err
	}
	return m, nil
}

// domainFor maps an ADF architecture name to its native word domain
// (§3.1.3). Unknown architectures get the 64-bit domain.
func domainFor(arch string) transferable.Domain {
	switch arch {
	case "sun4", "sparc", "multimax", "encore", "sequent", "i386", "transputer":
		return transferable.Domain32
	case "i486-16", "i286", "pc16":
		return transferable.Domain16
	case "sp1", "alpha", "rs6000":
		return transferable.Domain64
	}
	return transferable.Domain64
}

// New builds a Memo handle.
func New(cfg Config) (*Memo, error) {
	if cfg.App == "" || cfg.Place == nil || cfg.Client == nil {
		return nil, errors.New("memo: incomplete config")
	}
	d := cfg.Domain
	if d.IntBits == 0 {
		d = transferable.Domain64
	}
	return &Memo{
		app:    cfg.App,
		host:   cfg.Host,
		domain: d,
		place:  cfg.Place,
		client: cfg.Client,
	}, nil
}

// Close releases the handle's connection.
func (m *Memo) Close() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return nil
	}
	m.closed = true
	return m.client.Close()
}

// CreateSymbol returns a fresh unique symbol (§6.1.1 create_symbol).
func (m *Memo) CreateSymbol() symbol.Symbol { return symbol.Fresh() }

// Symbol returns the symbol a name denotes — the same in every process on
// every host, so cooperating processes agree on well-known folders.
func (m *Memo) Symbol(name string) symbol.Symbol { return symbol.Named(name) }

// Key builds a folder key from a symbol and index vector.
func (m *Memo) Key(s symbol.Symbol, x ...uint32) symbol.Key { return symbol.K(s, x...) }

// NamedKey builds a folder key directly from a name.
func (m *Memo) NamedKey(name string, x ...uint32) symbol.Key {
	return symbol.K(symbol.Named(name), x...)
}

// target computes the folder server for a key.
func (m *Memo) target(k symbol.Key) int { return m.place.Place(k).ID }

// do sends a request and turns an error response into an error, which
// names the request's dedup token when its client stamped one.
func (m *Memo) do(q *wire.Request, cancel <-chan struct{}) (*wire.Response, error) {
	resp, err := m.client.Do(q, cancel)
	if err == nil && resp.Status == wire.StatusErr {
		err = &RemoteError{Msg: resp.Err}
	}
	switch {
	case err == nil:
		return resp, nil
	case q.Token != 0:
		return nil, &TokenError{Token: q.Token, Err: err}
	}
	return nil, err
}

// Put deposits value in the folder labeled key. Control returns as soon as
// the folder server acknowledges the deposit (§6.1.2: "control is
// immediately returned to the executing process" — the call does not wait
// for any consumer). A failed Put means the memo was never deposited, so
// the error gates anything acknowledged on the deposit.
//
//memolint:must-check-error
func (m *Memo) Put(key symbol.Key, value transferable.Value) error {
	payload, err := transferable.Marshal(value)
	if err != nil {
		return fmt.Errorf("memo: put: %w", err)
	}
	_, err = m.do(&wire.Request{
		Op: wire.OpPut, App: m.app, FolderID: m.target(key), Key: key, Payload: payload,
	}, nil)
	return err
}

// PutDelayed hides value in folder key1 until another memo arrives there,
// whereupon the value is released into folder key2 (§6.1.2). This is the
// dataflow-triggering primitive.
//
//memolint:must-check-error
func (m *Memo) PutDelayed(key1, key2 symbol.Key, value transferable.Value) error {
	payload, err := transferable.Marshal(value)
	if err != nil {
		return fmt.Errorf("memo: put_delayed: %w", err)
	}
	_, err = m.do(&wire.Request{
		Op: wire.OpPutDelayed, App: m.app, FolderID: m.target(key1),
		Key: key1, Key2: key2, Payload: payload,
	}, nil)
	return err
}

// Get extracts a value from the folder labeled key, blocking until one is
// available. Extraction doubles as acquiring a shared record (§6.3.1), so a
// discarded error can silently skip a lock acquisition.
//
//memolint:must-check-error
func (m *Memo) Get(key symbol.Key) (transferable.Value, error) {
	return m.GetCancel(key, nil)
}

// GetCancel is Get with a cancellation channel (closing it abandons the
// wait). The paper's API blocks forever; cancellation is needed for orderly
// shutdown of Go programs.
//
//memolint:must-check-error
func (m *Memo) GetCancel(key symbol.Key, cancel <-chan struct{}) (transferable.Value, error) {
	resp, err := m.do(&wire.Request{
		Op: wire.OpGet, App: m.app, FolderID: m.target(key), Key: key,
	}, cancel)
	if err != nil {
		return nil, err
	}
	return transferable.Unmarshal(resp.Payload, m.domain)
}

// GetCopy returns a copy of a value in the folder labeled key without
// extracting it, blocking until one is available; another process (or this
// one) can still Get the original (§6.1.2).
func (m *Memo) GetCopy(key symbol.Key) (transferable.Value, error) {
	return m.GetCopyCancel(key, nil)
}

// GetCopyCancel is GetCopy with cancellation.
func (m *Memo) GetCopyCancel(key symbol.Key, cancel <-chan struct{}) (transferable.Value, error) {
	resp, err := m.do(&wire.Request{
		Op: wire.OpGetCopy, App: m.app, FolderID: m.target(key), Key: key,
	}, cancel)
	if err != nil {
		return nil, err
	}
	return transferable.Unmarshal(resp.Payload, m.domain)
}

// GetSkip extracts a value if one is present, returning ok=false otherwise
// (§6.1.2: "usually used to poll for messages"). The error distinguishes
// "folder empty" from "request failed" — conflating them turns an outage
// into a phantom empty folder.
//
//memolint:must-check-error
func (m *Memo) GetSkip(key symbol.Key) (transferable.Value, bool, error) {
	resp, err := m.do(&wire.Request{
		Op: wire.OpGetSkip, App: m.app, FolderID: m.target(key), Key: key,
	}, nil)
	if err != nil {
		return nil, false, err
	}
	if resp.Status == wire.StatusEmpty {
		return nil, false, nil
	}
	v, err := transferable.Unmarshal(resp.Payload, m.domain)
	if err != nil {
		return nil, false, err
	}
	return v, true, nil
}

// GetAlt extracts a value from any one of the folders, blocking until one
// is available. If several folders hold values the choice is
// nondeterministic. It returns the folder that supplied the value.
//
//memolint:must-check-error
func (m *Memo) GetAlt(keys ...symbol.Key) (symbol.Key, transferable.Value, error) {
	return m.GetAltCancel(nil, keys...)
}

// GetAltCancel is GetAlt with cancellation.
//
//memolint:must-check-error
func (m *Memo) GetAltCancel(cancel <-chan struct{}, keys ...symbol.Key) (symbol.Key, transferable.Value, error) {
	if len(keys) == 0 {
		return symbol.Key{}, nil, errors.New("memo: get_alt: no keys")
	}
	groups := m.groupByServer(keys)
	if len(groups) == 1 {
		for fid, ks := range groups {
			resp, err := m.do(&wire.Request{
				Op: wire.OpAltTake, App: m.app, FolderID: fid, Keys: ks,
			}, cancel)
			if err != nil {
				return symbol.Key{}, nil, err
			}
			v, err := transferable.Unmarshal(resp.Payload, m.domain)
			if err != nil {
				return symbol.Key{}, nil, err
			}
			return resp.Key, v, nil
		}
	}
	// Keys span folder servers: alternate non-blocking sweeps with a
	// distributed watch. A Watch fires when some folder becomes non-empty;
	// we then race to take (another process may win, in which case we watch
	// again). This realizes get_alt's semantics without distributed locks.
	for {
		k, v, ok, err := m.GetAltSkip(keys...)
		if err != nil {
			return symbol.Key{}, nil, err
		}
		if ok {
			return k, v, nil
		}
		if err := m.watchAny(groups, cancel); err != nil {
			return symbol.Key{}, nil, err
		}
	}
}

// GetAltSkip extracts a value from any one of the folders without blocking
// (§6.1.2 get_alt_skip), returning ok=false when all are empty. Each folder
// server holding some of the keys gets one alt_skip request, and chooses
// among its eligible folders itself.
func (m *Memo) GetAltSkip(keys ...symbol.Key) (symbol.Key, transferable.Value, bool, error) {
	if len(keys) == 0 {
		return symbol.Key{}, nil, false, errors.New("memo: get_alt_skip: no keys")
	}
	for fid, ks := range m.groupByServer(keys) {
		resp, err := m.do(&wire.Request{
			Op: wire.OpAltSkip, App: m.app, FolderID: fid, Keys: ks,
		}, nil)
		if err != nil {
			return symbol.Key{}, nil, false, err
		}
		if resp.Status == wire.StatusEmpty {
			continue
		}
		v, err := transferable.Unmarshal(resp.Payload, m.domain)
		if err != nil {
			return symbol.Key{}, nil, false, err
		}
		return resp.Key, v, true, nil
	}
	return symbol.Key{}, nil, false, nil
}

// watchAny blocks until any watched group reports a non-empty folder.
func (m *Memo) watchAny(groups map[int][]symbol.Key, cancel <-chan struct{}) error {
	stop := make(chan struct{})
	defer close(stop)
	type wres struct{ err error }
	results := make(chan wres, len(groups))
	for fid, ks := range groups {
		go func(fid int, ks []symbol.Key) {
			_, err := m.do(&wire.Request{
				Op: wire.OpWatch, App: m.app, FolderID: fid, Keys: ks,
			}, stop)
			results <- wres{err}
		}(fid, ks)
	}
	select {
	case r := <-results:
		if r.err != nil && !errors.Is(r.err, ErrCanceled) {
			return r.err
		}
		return nil
	case <-cancel:
		return ErrCanceled
	}
}

// groupByServer buckets keys by their placement target.
func (m *Memo) groupByServer(keys []symbol.Key) map[int][]symbol.Key {
	groups := make(map[int][]symbol.Key)
	for _, k := range keys {
		fid := m.target(k)
		groups[fid] = append(groups[fid], k)
	}
	return groups
}

// PutGo is Put for plain Go values (convenience; see transferable.FromGo).
func (m *Memo) PutGo(key symbol.Key, v any) error {
	tv, err := transferable.FromGo(v)
	if err != nil {
		return err
	}
	return m.Put(key, tv)
}

// PumpProgram ships a program image to the memo server on a target host —
// the §4.4 executable distribution the paper planned for hosts without NFS
// ("a pumping method to get them to the appropriate remote host"). The blob
// is stored under the application's registration on that host.
func (m *Memo) PumpProgram(host, dir string, blob []byte) error {
	_, err := m.do(&wire.Request{
		Op: wire.OpPump, App: m.app, TargetHost: host, Dir: dir, Payload: blob,
	}, nil)
	return err
}

// FetchProgram retrieves a program image previously pumped to a host.
func (m *Memo) FetchProgram(host, dir string) ([]byte, error) {
	resp, err := m.do(&wire.Request{
		Op: wire.OpFetch, App: m.app, TargetHost: host, Dir: dir,
	}, nil)
	if err != nil {
		return nil, err
	}
	return resp.Payload, nil
}
