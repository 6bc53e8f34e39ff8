// Package wire defines the request/response protocol spoken between
// application processes, memo servers, and folder servers. Requests and
// responses travel as entries of batch frames (batch.go), many in flight on
// one transport connection; a blocking operation simply leaves its response
// for a later frame while the folder server's thread waits. A bare encoded
// Request or Response is not a frame of the protocol: rpc.Serve answers one
// by closing the connection.
//
// The encoding reuses the varint conventions of the transferable codec but
// is deliberately separate: protocol control information is not application
// data (Fig. 1 distinguishes "Data" from "Control info").
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand/v2"

	"repro/internal/symbol"
)

// Op identifies a request type.
type Op byte

// Request operations. Put through AltTake, with AltSkip, carry the §6.1.2
// API; Register implements §4.4; Watch supports cross-server get_alt; Ping
// is for health checks and tests. A new verb is appended, so no existing op
// number moves.
const (
	OpInvalid Op = iota
	OpPut
	OpPutDelayed
	OpGet
	OpGetCopy
	OpGetSkip
	OpAltTake
	OpWatch
	OpRegister
	OpPing
	// OpPump stores a program image on a target host, and OpFetch retrieves
	// it — the §4.4 "pumping method to get [executables] to the appropriate
	// remote host if NFS is not available", which the paper left as work in
	// design. Both are host-addressed (Request.TargetHost) rather than
	// folder-addressed.
	OpPump
	OpFetch
	// OpAltSkip is get_alt_skip's take on one folder server: a non-blocking
	// take from any of Request.Keys, the store choosing among eligible
	// folders.
	OpAltSkip
)

// Scope says what a verb's requests are addressed to, which is how a memo
// server routes them.
type Scope uint8

// Verb scopes. The zero Scope marks an undefined verb.
const (
	ScopeNone Scope = iota
	// ScopeNode verbs are answered by whichever server receives them.
	ScopeNode
	// ScopeHost verbs go to the memo server on Request.TargetHost.
	ScopeHost
	// ScopeFolder verbs go to folder server Request.FolderID.
	ScopeFolder
)

// Kind says what a folder-scoped verb does to the folder it finds.
type Kind uint8

// Verb kinds. The zero Kind marks a verb that touches no folder.
const (
	KindNone    Kind = iota
	KindDeposit      // add a memo
	KindTake         // remove a memo and return it
	KindCopy         // return a copy, leaving the memo in place
	KindPeek         // only report which folder holds a memo
)

// OpInfo is one verb's row in the op table: every fact the layers between
// application and folder store need in order to classify a request.
type OpInfo struct {
	Name  string
	Scope Scope
	Kind  Kind
	// Blocks: the verb may park on an empty folder, so it must not run
	// inline on a dispatching thread.
	Blocks bool
	// MultiKey: the candidate folders are Request.Keys, not Request.Key.
	MultiKey bool
	// Idempotent: re-issuing the verb after an attempt that may have
	// executed changes nothing, so it retries in flight without a token.
	Idempotent bool
}

// ops is the op table, indexed by Op: the one place a fact about a verb is
// written down (DESIGN.md §5 prints it). A new verb is a new row.
var ops = [...]OpInfo{
	OpPut:        {Name: "put", Scope: ScopeFolder, Kind: KindDeposit},
	OpPutDelayed: {Name: "put_delayed", Scope: ScopeFolder, Kind: KindDeposit},
	OpGet:        {Name: "get", Scope: ScopeFolder, Kind: KindTake, Blocks: true},
	OpGetCopy:    {Name: "get_copy", Scope: ScopeFolder, Kind: KindCopy, Blocks: true, Idempotent: true},
	OpGetSkip:    {Name: "get_skip", Scope: ScopeFolder, Kind: KindTake},
	OpAltTake:    {Name: "alt_take", Scope: ScopeFolder, Kind: KindTake, Blocks: true, MultiKey: true},
	OpWatch:      {Name: "watch", Scope: ScopeFolder, Kind: KindPeek, Blocks: true, MultiKey: true, Idempotent: true},
	OpRegister:   {Name: "register", Scope: ScopeNode, Idempotent: true},
	OpPing:       {Name: "ping", Scope: ScopeNode, Idempotent: true},
	// Pump replaces the stored image, so a second attempt can undo another
	// client's pump that landed between the two — not idempotent — and the
	// image store keeps no token table to recognise the repeat — not tokened.
	// It retries only when provably unsent.
	OpPump:    {Name: "pump", Scope: ScopeHost},
	OpFetch:   {Name: "fetch", Scope: ScopeHost, Idempotent: true},
	OpAltSkip: {Name: "alt_skip", Scope: ScopeFolder, Kind: KindTake, MultiKey: true},
}

// Info returns o's row of the op table. Safe for any byte: an undefined Op
// yields the zero row (empty name, ScopeNone, KindNone), never an index
// panic — Handle is called in-process with caller-built requests.
func (o Op) Info() *OpInfo {
	if int(o) < len(ops) {
		return &ops[o]
	}
	return &ops[OpInvalid]
}

// Tokened reports verbs that carry an at-most-once dedup token when retries
// are armed: the deposits whose blind retry would duplicate a memo, and the
// takes whose blind retry would consume a second one (a folder server
// acknowledges a repeated deposit token without re-applying, and answers a
// repeated take token from its consumed-take cache).
func (v *OpInfo) Tokened() bool { return v.Kind == KindDeposit || v.Kind == KindTake }

// RetrySafe reports whether q may be re-issued although an earlier attempt
// may have executed: its verb is idempotent, or it is tokened and q carries
// a token. Everything else retries only when provably unsent.
func (q *Request) RetrySafe() bool {
	v := q.Op.Info()
	return v.Idempotent || (v.Tokened() && q.Token != 0)
}

func (o Op) String() string {
	if name := o.Info().Name; name != "" {
		return name
	}
	return fmt.Sprintf("op(%d)", byte(o))
}

// Status codes a response.
type Status byte

// Response statuses.
const (
	StatusInvalid Status = iota
	// StatusOK carries a successful result (payload may be empty for put).
	StatusOK
	// StatusEmpty reports get_skip/alt_skip finding no memo.
	StatusEmpty
	// StatusWake reports a Watch firing: a watched folder became non-empty.
	StatusWake
	// StatusErr carries an error message.
	StatusErr
	// StatusCanceled answers a blocking read whose caller canceled it while
	// it was parked: the owning store's statement that the read consumed
	// nothing. Only a store makes it; a canceled read that had already taken
	// a memo answers StatusOK with the value.
	StatusCanceled
)

// Request is one operation sent toward a folder server.
type Request struct {
	Op  Op
	App string
	// FolderID is the placement-resolved target folder server.
	FolderID int
	// Hops counts memo-server forwards so far (0 = the hop the client
	// issued): what E2 reports and what every span's Hop records.
	Hops int
	// Key is the primary folder key; Key2 is put_delayed's destination.
	Key, Key2 symbol.Key
	// Keys carries the alternatives for AltTake/Watch.
	Keys []symbol.Key
	// Payload is the encoded transferable for puts.
	Payload []byte
	// ADF carries the application description for Register.
	ADF string
	// Dir names a program (PROCESSES source directory) for Pump/Fetch.
	Dir string
	// TargetHost addresses host-directed operations (Pump/Fetch).
	TargetHost string
	// Token is an at-most-once dedup token for put/put_delayed (0 = none):
	// a retried maybe-delivered put carries the same token, and the folder
	// server acknowledges without re-applying if it already holds it. The
	// token is NOT part of the request codec — it travels as a batch-entry
	// extension (see batch.go) and the rpc layer re-attaches it at every hop.
	Token uint64
	// TraceID names the request in every host's trace samples (0 =
	// untraced). Like Token, it is NOT part of the request codec — it
	// travels as a batch-entry extension (see batch.go) and the rpc layer
	// re-attaches it at every hop.
	TraceID uint64
	// Sampled marks the request for span collection. Like Token, it is NOT
	// part of the request codec — it rides the batch entry as a flag bit
	// (see batch.go) and the rpc layer re-attaches it at every hop.
	Sampled bool
	// EnqueueNS is the local receive timestamp the rpc server stamps on
	// sampled requests (Unix nanoseconds; 0 = unstamped) so the dispatch
	// wrapper can report dispatch-queue wait. Never on the wire.
	EnqueueNS int64
	// Spans is the span set of the node currently handling this sampled
	// request: created by the owning dispatch wrapper, appended to by every
	// layer below it. Never on the wire — spans stay on the node that
	// recorded them (see span.go).
	Spans *SpanSet
}

// NewID mints a non-zero request identifier: a Token, a TraceID, or a
// folder's release token for a hidden delayed value. 64 random bits make a
// collision within any dedup window or trace comparison negligible, and
// zero stays free to mean "none".
func NewID() uint64 {
	for {
		if id := rand.Uint64(); id != 0 {
			return id
		}
	}
}

// Response answers a Request.
type Response struct {
	Status Status
	// Key reports which folder satisfied an AltTake/Watch.
	Key symbol.Key
	// Payload is the encoded transferable for gets.
	Payload []byte
	// Err is the message accompanying StatusErr.
	Err string
}

// Errors.
var (
	// ErrTruncated is returned by decoding.
	ErrTruncated = errors.New("wire: truncated message")
	// ErrCanceled is StatusCanceled as a Go error: the owning store's
	// statement that a canceled blocking read consumed nothing. It keeps
	// this one value from the store up to the application.
	ErrCanceled = errors.New("memo: operation canceled")
)

// A Canceler holds a request in flight under an id of its own and can be
// asked to unblock it: a peer rpc.Conn holding a relayed call, or a folder
// store holding a parked read. Cancel of an id it no longer holds does
// nothing; the request is still answered once, by whoever completes it.
type Canceler interface {
	Cancel(id uint64)
}

type writer struct{ buf []byte }

func (w *writer) u64(v uint64) { w.buf = binary.AppendUvarint(w.buf, v) }
func (w *writer) byte(b byte)  { w.buf = append(w.buf, b) }
func (w *writer) str(s string) { w.u64(uint64(len(s))); w.buf = append(w.buf, s...) }
func (w *writer) bytes(b []byte) {
	w.u64(uint64(len(b)))
	w.buf = append(w.buf, b...)
}

func (w *writer) key(k symbol.Key) {
	w.u64(uint64(k.S))
	w.u64(uint64(len(k.X)))
	for _, x := range k.X {
		w.u64(uint64(x))
	}
}

type reader struct {
	buf []byte
	pos int
	err error
}

func (r *reader) u64() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.buf[r.pos:])
	if n <= 0 {
		r.err = ErrTruncated
		return 0
	}
	r.pos += n
	return v
}

func (r *reader) byte() byte {
	if r.err != nil {
		return 0
	}
	if r.pos >= len(r.buf) {
		r.err = ErrTruncated
		return 0
	}
	b := r.buf[r.pos]
	r.pos++
	return b
}

func (r *reader) str() string { return r.strKeep("") }

// strKeep is str for a reused message: when the field's bytes equal old it
// returns old itself, so decoding the same application name into a pooled
// request, request after request, allocates no string.
func (r *reader) strKeep(old string) string {
	n := r.u64()
	if r.err != nil {
		return ""
	}
	if uint64(len(r.buf)-r.pos) < n {
		r.err = ErrTruncated
		return ""
	}
	b := r.buf[r.pos : r.pos+int(n)]
	r.pos += int(n)
	if string(b) == old {
		return old
	}
	return string(b)
}

// bytes returns the next length-prefixed byte field ALIASED into the read
// buffer — no copy. Decoded messages therefore borrow their input: a caller
// that retains the payload past the buffer's life must Retain() it first.
func (r *reader) bytes() []byte {
	n := r.u64()
	if r.err != nil {
		return nil
	}
	if uint64(len(r.buf)-r.pos) < n {
		r.err = ErrTruncated
		return nil
	}
	if n == 0 {
		return nil
	}
	b := r.buf[r.pos : r.pos+int(n) : r.pos+int(n)]
	r.pos += int(n)
	return b
}

// keyInto decodes a key in place, reusing k's extension-slot capacity — the
// decode path of a pooled Request re-decodes into the same Key storage.
func (r *reader) keyInto(k *symbol.Key) {
	s := r.u64()
	n := r.u64()
	if r.err != nil {
		*k = symbol.Key{}
		return
	}
	if n > uint64(len(r.buf)-r.pos) { // each element ≥ 1 byte
		r.err = ErrTruncated
		*k = symbol.Key{}
		return
	}
	k.S = symbol.Symbol(s)
	if n == 0 {
		// Keep the extension array (empty) so a pooled request's key
		// capacity survives keyless decodes; a fresh key stays nil.
		k.X = k.X[:0]
		return
	}
	if uint64(cap(k.X)) >= n {
		k.X = k.X[:n]
	} else {
		k.X = make([]uint32, n)
	}
	for i := range k.X {
		k.X[i] = uint32(r.u64())
	}
}

// AppendRequest serializes a request onto dst (which is returned, possibly
// reallocated) — the encode-in-place variant: the hot path appends into a
// pooled buffer, so one buffer carries the message from encoder to its
// batch frame. The bytes appended are identical to EncodeRequest's output.
func AppendRequest(dst []byte, q *Request) []byte {
	w := writer{buf: dst}
	w.byte(byte(q.Op))
	w.str(q.App)
	w.u64(uint64(q.FolderID))
	w.u64(uint64(q.Hops))
	w.key(q.Key)
	w.key(q.Key2)
	w.u64(uint64(len(q.Keys)))
	for _, k := range q.Keys {
		w.key(k)
	}
	w.bytes(q.Payload)
	w.str(q.ADF)
	w.str(q.Dir)
	w.str(q.TargetHost)
	return w.buf
}

// RequestOverhead conservatively bounds the encoded size of q — the
// AppendRequest output never exceeds it. Hot-path callers size their
// pooled buffers with it so multi-key requests (alt_take, watch) don't
// outgrow the buffer and reallocate mid-encode.
func RequestOverhead(q *Request) int {
	n := 1 + // op
		4*binary.MaxVarintLen64 + // folder id, hops, key count, payload len
		len(q.App) + len(q.ADF) + len(q.Dir) + len(q.TargetHost) +
		4*binary.MaxVarintLen64 + // the four string length prefixes
		len(q.Payload)
	n += keyOverhead(q.Key) + keyOverhead(q.Key2)
	for i := range q.Keys {
		n += keyOverhead(q.Keys[i])
	}
	return n
}

func keyOverhead(k symbol.Key) int {
	return (2 + len(k.X)) * binary.MaxVarintLen64
}

// EncodeRequest serializes a request into a fresh buffer.
func EncodeRequest(q *Request) []byte {
	return AppendRequest(make([]byte, 0, RequestOverhead(q)), q)
}

// DecodeRequest parses a request. The returned request's Payload ALIASES
// buf; callers that retain it past buf's lifetime must Retain() first.
func DecodeRequest(buf []byte) (*Request, error) {
	q := &Request{}
	if err := DecodeRequestInto(q, buf); err != nil {
		return nil, err
	}
	return q, nil
}

// DecodeRequestInto parses a request into q, reusing q's Keys and key
// extension-slot capacity, and its App string when the name on the wire is
// the same — the pooled-request decode path. Every field of q is
// overwritten (Token and the trace fields are zeroed: they travel as
// batch-entry extensions, not in this codec). q.Payload ALIASES buf.
func DecodeRequestInto(q *Request, buf []byte) error {
	r := &reader{buf: buf}
	q.Op = Op(r.byte())
	q.App = r.strKeep(q.App)
	q.FolderID = int(r.u64())
	q.Hops = int(r.u64())
	r.keyInto(&q.Key)
	r.keyInto(&q.Key2)
	nk := r.u64()
	if r.err == nil && nk > uint64(len(buf)) {
		r.err = ErrTruncated
	}
	// Reuse the Keys array (and, via keyInto, each key's extension array):
	// a pooled request keeps its capacity across keyless decodes rather
	// than re-allocating on the next multi-key one. Fresh requests stay
	// nil-keyed either way.
	q.Keys = q.Keys[:0]
	if r.err == nil && nk > 0 {
		if uint64(cap(q.Keys)) >= nk {
			q.Keys = q.Keys[:nk]
		} else {
			q.Keys = make([]symbol.Key, nk)
		}
		for i := range q.Keys {
			r.keyInto(&q.Keys[i])
		}
	}
	q.Payload = r.bytes()
	q.ADF = r.str()
	q.Dir = r.str()
	q.TargetHost = r.str()
	q.Token = 0
	q.TraceID = 0
	q.Sampled, q.EnqueueNS, q.Spans = false, 0, nil
	if r.err != nil {
		return r.err
	}
	if r.pos != len(buf) {
		return fmt.Errorf("wire: %d trailing bytes in request", len(buf)-r.pos)
	}
	if q.Op.Info().Scope == ScopeNone {
		return fmt.Errorf("wire: invalid op %d", q.Op)
	}
	return nil
}

// Retain replaces q's aliased payload with a private copy, detaching it from
// the decode buffer. Call it exactly where keeping the bytes IS the
// semantics (a folder storing a memo, a result handed to the application);
// everywhere else the alias is the point.
func (q *Request) Retain() {
	q.Payload = cloneBytes(q.Payload)
}

// Retain replaces p's aliased payload with a private copy (see
// (*Request).Retain).
func (p *Response) Retain() {
	p.Payload = cloneBytes(p.Payload)
}

func cloneBytes(b []byte) []byte {
	if len(b) == 0 {
		return b
	}
	out := make([]byte, len(b))
	copy(out, b)
	return out
}

// ResponseOverhead conservatively bounds the encoded size of p — the
// AppendResponse output never exceeds it (the response-side mirror of
// RequestOverhead).
func ResponseOverhead(p *Response) int {
	return 1 + // status
		2*binary.MaxVarintLen64 + // payload and err length prefixes
		len(p.Payload) + len(p.Err) +
		keyOverhead(p.Key)
}

// AppendResponse serializes a response onto dst (see AppendRequest).
func AppendResponse(dst []byte, p *Response) []byte {
	w := writer{buf: dst}
	w.byte(byte(p.Status))
	w.key(p.Key)
	w.bytes(p.Payload)
	w.str(p.Err)
	return w.buf
}

// EncodeResponse serializes a response into a fresh buffer.
func EncodeResponse(p *Response) []byte {
	return AppendResponse(make([]byte, 0, 32+len(p.Payload)), p)
}

// DecodeResponse parses a response. The returned response's Payload ALIASES
// buf; callers that retain it past buf's lifetime must Retain() first.
func DecodeResponse(buf []byte) (*Response, error) {
	p := &Response{}
	if err := DecodeResponseInto(p, buf); err != nil {
		return nil, err
	}
	return p, nil
}

// DecodeResponseInto parses a response into p, reusing p's key
// extension-slot capacity — the receive loop's decode path, which validates
// every response into one reused Response. p.Payload ALIASES buf, and
// p.Key.X is p's own storage, overwritten by the next decode.
func DecodeResponseInto(p *Response, buf []byte) error {
	r := &reader{buf: buf}
	p.Status = Status(r.byte())
	r.keyInto(&p.Key)
	p.Payload = r.bytes()
	p.Err = r.str()
	if r.err != nil {
		return r.err
	}
	if r.pos != len(buf) {
		return fmt.Errorf("wire: %d trailing bytes in response", len(buf)-r.pos)
	}
	if p.Status == StatusInvalid || p.Status > StatusCanceled {
		return fmt.Errorf("wire: invalid status %d", p.Status)
	}
	return nil
}

// okResponse is the shared success response for value-less operations. It is
// handed out by OK() on every put/ping acknowledgement; treat responses as
// immutable after construction.
var okResponse = &Response{Status: StatusOK}

// OK is the canonical success response for value-less operations. The
// returned response is shared — do not mutate it.
func OK() *Response { return okResponse }

// Fail is the one error→response mapping: ErrCanceled (however wrapped)
// answers StatusCanceled, any other error StatusErr with its text.
func Fail(err error) *Response {
	if errors.Is(err, ErrCanceled) {
		return &Response{Status: StatusCanceled}
	}
	return &Response{Status: StatusErr, Err: err.Error()}
}

// Errf builds an error response.
func Errf(format string, args ...any) *Response {
	return &Response{Status: StatusErr, Err: fmt.Sprintf(format, args...)}
}
