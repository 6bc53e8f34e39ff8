package durable

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"slices"

	"repro/internal/symbol"
)

// RecType identifies a logged mutation.
type RecType byte

const (
	// RecPut adds Payload to Key's folder. Replay deliberately does NOT
	// release the folder's hidden delayed values the way a live put does:
	// each delayed entry is removed only by its own RecRelease record, so
	// an entry whose delivery was never confirmed survives recovery and is
	// re-released (deduplicated by its release token) by the next trigger.
	RecPut RecType = 1
	// RecPutDelayed hides Payload in trigger folder Key, destined for Dest.
	RecPutDelayed RecType = 2
	// RecTake removes one item byte-equal to Payload from Key's folder.
	// Folders are multisets, so "one equal item" identifies the removal
	// exactly even when the extraction rng picked a different index. A
	// non-zero Token is the take's dedup token: replay re-caches the taken
	// payload under it so a post-crash retry of the same take is answered
	// from the cache instead of consuming a second memo.
	RecTake RecType = 3
	// RecToken records an applied dedup token with no accompanying put —
	// used by snapshots to carry the token table across truncation.
	RecToken RecType = 4
	// RecRelease records that the delayed entry with release token Token
	// was durably delivered out of trigger folder Key. It is logged only
	// AFTER the re-deposit is safe (committed locally, or handed to the
	// remote dispatcher), so recovery re-releases anything still pending —
	// and the release token makes the re-delivery deduplicate instead of
	// duplicating.
	RecRelease RecType = 5
	// RecTakeCache carries a consumed-take dedup entry across snapshot
	// truncation: Token was applied by a take whose result (Key + Payload,
	// or an observed-empty miss when Empty is set) must stay answerable to
	// retries after the RecTake that produced it is compacted away. Replay
	// restores the cache entry and removes nothing.
	RecTakeCache RecType = 6
)

func (t RecType) String() string {
	switch t {
	case RecPut:
		return "put"
	case RecPutDelayed:
		return "put_delayed"
	case RecTake:
		return "take"
	case RecToken:
		return "token"
	case RecRelease:
		return "release"
	case RecTakeCache:
		return "take_cache"
	}
	return fmt.Sprintf("rec-type(%d)", byte(t))
}

// Record is one logged Store mutation. Every record describes a transition
// of exactly one folder (and therefore one shard), which is what lets replay
// apply the store's one log in order, each record under its own shard's
// lock alone.
type Record struct {
	Type RecType
	// Key is the folder: the put/take target, or put_delayed's trigger.
	Key symbol.Key
	// Dest is put_delayed's destination folder.
	Dest symbol.Key
	// Payload is the memo payload.
	Payload []byte
	// Token is the at-most-once dedup token (0 = none). For RecRelease it
	// names the released delayed entry's release token.
	Token uint64
	// Rel is a put_delayed entry's release token: the dedup token its
	// eventual re-deposit will carry, minted when the entry is hidden so
	// that a crash-recovered re-release can never deliver twice.
	Rel uint64
	// Empty marks a RecTakeCache entry whose take observed an empty folder
	// (a get_skip miss): the cached answer is "nothing", not a payload.
	Empty bool
}

// Encoding: varint conventions matching the wire codec, but deliberately
// separate — log compatibility and wire compatibility evolve independently.
// A record body is its type byte followed by the type's fields in the order
// DecodeRecord reads them.

func appendBytes(dst, b []byte) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(b)))
	return append(dst, b...)
}

func appendKey(dst []byte, k symbol.Key) []byte {
	dst = binary.AppendUvarint(dst, uint64(k.S))
	dst = binary.AppendUvarint(dst, uint64(len(k.X)))
	for _, x := range k.X {
		dst = binary.AppendUvarint(dst, uint64(x))
	}
	return dst
}

type recReader struct {
	buf []byte
	pos int
	err error
}

func (r *recReader) u64() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.buf[r.pos:])
	if n <= 0 {
		r.err = fmt.Errorf("durable: truncated record")
		return 0
	}
	r.pos += n
	return v
}

func (r *recReader) byte() byte {
	if r.err != nil {
		return 0
	}
	if r.pos >= len(r.buf) {
		r.err = fmt.Errorf("durable: truncated record")
		return 0
	}
	b := r.buf[r.pos]
	r.pos++
	return b
}

func (r *recReader) bytes() []byte {
	n := r.u64()
	if r.err != nil {
		return nil
	}
	if uint64(len(r.buf)-r.pos) < n {
		r.err = fmt.Errorf("durable: truncated record")
		return nil
	}
	if n == 0 {
		return nil
	}
	b := make([]byte, n)
	copy(b, r.buf[r.pos:r.pos+int(n)])
	r.pos += int(n)
	return b
}

func (r *recReader) key() symbol.Key {
	s := r.u64()
	n := r.u64()
	if r.err != nil {
		return symbol.Key{}
	}
	if n > uint64(len(r.buf)-r.pos) { // each element costs ≥ 1 byte
		r.err = fmt.Errorf("durable: truncated record")
		return symbol.Key{}
	}
	k := symbol.Key{S: symbol.Symbol(s)}
	if n > 0 {
		k.X = make([]uint32, n)
		for i := range k.X {
			k.X[i] = uint32(r.u64())
		}
	}
	return k
}

// AppendRecord appends rec to dst as one complete frame — header, body,
// CRC — and returns the extended slice. It is the only encoder: the WAL
// writer and the snapshot writer both call it on their own write buffers, so
// a record's bytes are produced once, in place, and nothing is allocated
// unless dst has to grow.
func AppendRecord(dst []byte, rec *Record) []byte {
	// One growth at most, however many fields follow.
	dst = slices.Grow(dst, frameHeader+recOverheadHint+len(rec.Payload))
	start := len(dst)
	var hdr [frameHeader]byte // length and CRC, filled in once the body is known
	dst = append(dst, hdr[:]...)
	dst = append(dst, byte(rec.Type))
	switch rec.Type {
	case RecPut, RecTake:
		dst = appendKey(dst, rec.Key)
		dst = appendBytes(dst, rec.Payload)
		dst = binary.AppendUvarint(dst, rec.Token)
	case RecPutDelayed:
		dst = appendKey(dst, rec.Key)
		dst = appendKey(dst, rec.Dest)
		dst = appendBytes(dst, rec.Payload)
		dst = binary.AppendUvarint(dst, rec.Token)
		dst = binary.AppendUvarint(dst, rec.Rel)
	case RecToken:
		dst = binary.AppendUvarint(dst, rec.Token)
	case RecRelease:
		dst = appendKey(dst, rec.Key)
		dst = binary.AppendUvarint(dst, rec.Token)
	case RecTakeCache:
		dst = binary.AppendUvarint(dst, rec.Token)
		dst = appendKey(dst, rec.Key)
		empty := byte(0)
		if rec.Empty {
			empty = 1
		}
		dst = append(dst, empty)
		dst = appendBytes(dst, rec.Payload)
	}
	body := dst[start+frameHeader:]
	binary.LittleEndian.PutUint32(dst[start:], uint32(len(body)))
	binary.LittleEndian.PutUint32(dst[start+4:], crc32.Checksum(body, crcTable))
	return dst
}

// DecodeRecord parses a record body. It never panics on hostile input and
// rejects trailing bytes, so a frame that passed its CRC still cannot smuggle
// a malformed record past replay.
func DecodeRecord(buf []byte) (*Record, error) {
	r := &recReader{buf: buf}
	rec := &Record{}
	rec.Type = RecType(r.byte())
	switch rec.Type {
	case RecPut:
		rec.Key = r.key()
		rec.Payload = r.bytes()
		rec.Token = r.u64()
	case RecPutDelayed:
		rec.Key = r.key()
		rec.Dest = r.key()
		rec.Payload = r.bytes()
		rec.Token = r.u64()
		rec.Rel = r.u64()
	case RecTake:
		rec.Key = r.key()
		rec.Payload = r.bytes()
		rec.Token = r.u64()
	case RecToken:
		rec.Token = r.u64()
	case RecRelease:
		rec.Key = r.key()
		rec.Token = r.u64()
	case RecTakeCache:
		rec.Token = r.u64()
		rec.Key = r.key()
		rec.Empty = r.byte() != 0
		rec.Payload = r.bytes()
	default:
		if r.err == nil {
			r.err = fmt.Errorf("durable: unknown record type %d", byte(rec.Type))
		}
	}
	if r.err != nil {
		return nil, r.err
	}
	if r.pos != len(buf) {
		return nil, fmt.Errorf("durable: %d trailing bytes in record", len(buf)-r.pos)
	}
	return rec, nil
}

// Frame format: u32le body length, u32le CRC-32C of the body, body bytes.
// A record is only as durable as its whole frame: a partial write fails the
// length or the CRC and replay stops there.

const frameHeader = 8

// recOverheadHint is a generous guess at a record body's size without its
// payload (type byte, two short keys, varint lengths and tokens): AppendRecord
// reserves it up front so a typical record grows its buffer at most once.
const recOverheadHint = 56

// maxFrameBody caps a single record frame; anything larger in a log file is
// corruption, not an allocation request.
const maxFrameBody = 1 << 28

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// nextFrame extracts the first frame's body from buf, returning the body and
// the remainder. ok is false at a clean end or a torn tail — the caller
// cannot distinguish the two, and does not need to: both mean "no further
// acknowledged records".
func nextFrame(buf []byte) (body, rest []byte, ok bool) {
	if len(buf) < frameHeader {
		return nil, buf, false
	}
	n := binary.LittleEndian.Uint32(buf[0:4])
	if n > maxFrameBody || uint64(n) > uint64(len(buf)-frameHeader) {
		return nil, buf, false
	}
	body = buf[frameHeader : frameHeader+int(n)]
	if crc32.Checksum(body, crcTable) != binary.LittleEndian.Uint32(buf[4:8]) {
		return nil, buf, false
	}
	return body, buf[frameHeader+int(n):], true
}
