package wire

import (
	"fmt"
)

// Batch framing (version 1).
//
// A batch frame carries many encoded requests or responses in one transport
// message, so the per-message cost of the link (latency, framing, sim
// delay, syscalls) is amortized over the whole batch — the §3.1.1 derived
// transport's "communication cost amortized over time" applied to small
// memo operations. Each entry is tagged with a caller-chosen id; responses
// are matched to requests by id, which is what lets internal/rpc pipeline
// many in-flight requests over one connection and complete them out
// of order.
//
// Layout:
//
//	byte    batchMagic (0xB1 — never a valid Op or Status, so a bare
//	        encoded message is recognised and refused, not misparsed)
//	byte    version (currently 1; decoders reject higher versions)
//	byte    kind (BatchRequest | BatchResponse)
//	uvarint entry count
//	per entry:
//	  uvarint id
//	  byte    flags (bit 0: cancel — abandon the in-flight request `id`;
//	          bit 1: heartbeat — liveness probe/echo, no payload;
//	          bit 2: token — an at-most-once dedup token follows;
//	          bit 3: trace — a request trace ID follows;
//	          bit 4: sampled — the request is span-sampled (request batches);
//	          any other bit set is a malformed frame)
//	  uvarint dedup token (present only when flag bit 2 is set)
//	  uvarint trace id (present only when flag bit 3 is set)
//	  uvarint len, then len bytes of an encoded Request or Response
//	          (empty for cancel and heartbeat entries)
//
// The token, trace, and sampled bit are flag-gated extensions rather than
// Request fields so that frames without them are byte-identical to version
// 1 frames that predate them, and the request codec stays untouched.
// Nothing rides a response entry but its message: spans stay on the node
// that recorded them (see span.go).
//
// Batch frames are the only frames of the protocol. A frame that does not
// start with the magic is a protocol error that ends the connection: the
// decoder refuses it, and rpc.Serve checks IsBatchFrame first so that the
// rejected buffer goes back to the pool.

// batchMagic marks a batch frame. Ops and Statuses are small iota constants;
// 0xB1 collides with neither.
const batchMagic byte = 0xB1

// BatchVersion is the current batch-frame version.
const BatchVersion byte = 1

// BatchKind distinguishes request batches from response batches.
type BatchKind byte

// Batch kinds.
const (
	BatchRequest  BatchKind = 1
	BatchResponse BatchKind = 2
)

func (k BatchKind) String() string {
	switch k {
	case BatchRequest:
		return "request-batch"
	case BatchResponse:
		return "response-batch"
	}
	return fmt.Sprintf("batch-kind(%d)", byte(k))
}

// BatchEntry is one message inside a batch frame.
type BatchEntry struct {
	// ID matches a response to its request within one rpc connection.
	ID uint64
	// Cancel marks a request-batch control entry: abandon in-flight
	// request ID (the batched replacement for closing a per-request
	// virtual connection). Msg is empty on cancel entries.
	Cancel bool
	// Heartbeat marks a liveness control entry. In a request batch it is a
	// probe (piggybacking on whatever frame is departing, or riding alone
	// on an otherwise idle link); in a response batch it is the echo. Msg
	// is empty; ID is echoed back verbatim.
	Heartbeat bool
	// Token carries the request's at-most-once dedup token (0 = none);
	// meaningful only in request batches.
	Token uint64
	// Trace carries the request's trace ID (0 = untraced); meaningful only
	// in request batches.
	Trace uint64
	// Sampled marks a span-sampled request; meaningful only in request
	// batches. The serving hop records its own spans under Trace.
	Sampled bool
	// Msg is an encoded Request (BatchRequest) or Response (BatchResponse).
	Msg []byte
}

const (
	entryFlagCancel    byte = 1 << 0
	entryFlagHeartbeat byte = 1 << 1
	entryFlagToken     byte = 1 << 2
	entryFlagTrace     byte = 1 << 3
	entryFlagSampled   byte = 1 << 4

	entryFlagsKnown = entryFlagCancel | entryFlagHeartbeat | entryFlagToken | entryFlagTrace | entryFlagSampled
)

// IsBatchFrame reports whether buf starts like a batch frame — the entry
// check rpc.Serve makes before decoding.
func IsBatchFrame(buf []byte) bool {
	return len(buf) > 0 && buf[0] == batchMagic
}

// AppendBatch serializes a batch frame onto dst (which is returned, possibly
// reallocated) — the encode-in-place variant: the rpc batcher appends into a
// pooled buffer, so the frame never moves again between encoder and the
// transport's send. The bytes appended are identical to EncodeBatch's
// output, after any prefix already in dst.
func AppendBatch(dst []byte, kind BatchKind, entries []BatchEntry) []byte {
	w := writer{buf: dst}
	w.byte(batchMagic)
	w.byte(BatchVersion)
	w.byte(byte(kind))
	w.u64(uint64(len(entries)))
	for _, e := range entries {
		w.u64(e.ID)
		var flags byte
		if e.Cancel {
			flags |= entryFlagCancel
		}
		if e.Heartbeat {
			flags |= entryFlagHeartbeat
		}
		if e.Token != 0 {
			flags |= entryFlagToken
		}
		if e.Trace != 0 {
			flags |= entryFlagTrace
		}
		if e.Sampled {
			flags |= entryFlagSampled
		}
		w.byte(flags)
		if e.Token != 0 {
			w.u64(e.Token)
		}
		if e.Trace != 0 {
			w.u64(e.Trace)
		}
		w.bytes(e.Msg)
	}
	return w.buf
}

// BatchOverhead conservatively bounds the encoded size of a batch frame
// carrying entries whose Msg bytes total msgBytes: frame header plus
// worst-case per-entry framing (id, flags, token, trace, message length).
func BatchOverhead(entries, msgBytes int) int {
	return 16 + msgBytes + entries*(10+1+10+10+10)
}

// EncodeBatch serializes a batch frame into a fresh buffer.
func EncodeBatch(kind BatchKind, entries []BatchEntry) []byte {
	size := 16
	for _, e := range entries {
		size += len(e.Msg) + 12
	}
	return AppendBatch(make([]byte, 0, size), kind, entries)
}

// DecodeBatch parses a batch frame. Entry messages are returned still
// encoded and ALIAS buf; callers decode them per kind (DecodeRequest /
// DecodeResponse).
func DecodeBatch(buf []byte) (BatchKind, []BatchEntry, error) {
	return DecodeBatchInto(nil, buf)
}

// DecodeBatchInto parses a batch frame, appending entries onto dst (which
// may be a reused scratch slice, typically dst[:0] of the previous frame's)
// — the steady-state read path decodes every frame into the same entry
// storage. Entry Msg bytes ALIAS buf.
func DecodeBatchInto(dst []BatchEntry, buf []byte) (BatchKind, []BatchEntry, error) {
	r := &reader{buf: buf}
	if r.byte() != batchMagic {
		return 0, nil, fmt.Errorf("wire: not a batch frame")
	}
	if v := r.byte(); r.err == nil && v != BatchVersion {
		return 0, nil, fmt.Errorf("wire: unsupported batch version %d", v)
	}
	kind := BatchKind(r.byte())
	n := r.u64()
	if r.err != nil {
		return 0, nil, r.err
	}
	if kind != BatchRequest && kind != BatchResponse {
		return 0, nil, fmt.Errorf("wire: invalid batch kind %d", byte(kind))
	}
	// Each entry costs at least 3 bytes on the wire (id, flags, length);
	// an absurd count is a hostile frame, not an allocation request.
	if n > uint64(len(buf))/3 {
		return 0, nil, ErrTruncated
	}
	entries := dst
	if uint64(cap(entries)-len(entries)) < n {
		grown := make([]BatchEntry, len(entries), uint64(len(entries))+n)
		copy(grown, entries)
		entries = grown
	}
	for i := uint64(0); i < n; i++ {
		var e BatchEntry
		e.ID = r.u64()
		flags := r.byte()
		if flags&^entryFlagsKnown != 0 {
			return 0, nil, fmt.Errorf("wire: unknown entry flags %#x", flags&^entryFlagsKnown)
		}
		e.Cancel = flags&entryFlagCancel != 0
		e.Heartbeat = flags&entryFlagHeartbeat != 0
		if flags&entryFlagToken != 0 {
			e.Token = r.u64()
		}
		if flags&entryFlagTrace != 0 {
			e.Trace = r.u64()
		}
		e.Sampled = flags&entryFlagSampled != 0
		e.Msg = r.bytes()
		if r.err != nil {
			return 0, nil, r.err
		}
		entries = append(entries, e)
	}
	if r.pos != len(buf) {
		return 0, nil, fmt.Errorf("wire: %d trailing bytes in batch", len(buf)-r.pos)
	}
	return kind, entries, nil
}
