package transferable

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"sync"

	"repro/internal/symbol"
)

// KeyValue wraps a folder key so keys can travel inside memos (the paper's
// applications pass folder names around, e.g. reply-to folders).
type KeyValue struct {
	K symbol.Key
}

// Tag implements Value.
func (KeyValue) Tag() Tag { return TagKey }

// UserValue is implemented by application-defined transferables. They are
// composites: identity is preserved across the wire so shared or cyclic
// references to a user value survive transfer.
type UserValue interface {
	Value
	// TypeName is the registered wire name of the type.
	TypeName() string
	// EncodeFields writes the value's payload.
	EncodeFields(e *Encoder) error
	// DecodeFields reads the payload written by EncodeFields.
	DecodeFields(d *Decoder) error
}

var userTypes struct {
	sync.RWMutex
	factory map[string]func() UserValue
}

// RegisterUserType makes a user transferable decodable. The factory must
// return a fresh zero value; name must be globally unique. Registering the
// same name twice panics, mirroring gob's behaviour for programmer errors.
func RegisterUserType(name string, factory func() UserValue) {
	userTypes.Lock()
	defer userTypes.Unlock()
	if userTypes.factory == nil {
		userTypes.factory = make(map[string]func() UserValue)
	}
	if _, dup := userTypes.factory[name]; dup {
		panic("transferable: duplicate user type " + name)
	}
	userTypes.factory[name] = factory
}

func lookupUserType(name string) (func() UserValue, bool) {
	userTypes.RLock()
	defer userTypes.RUnlock()
	f, ok := userTypes.factory[name]
	return f, ok
}

// Encoder linearizes a value graph. Composite nodes (*List, *Record, user
// values) are assigned ids in spanning-tree discovery order; revisiting a
// node emits a back-reference instead of recursing, so cyclic and shared
// structures encode in time linear in the number of nodes and edges.
type Encoder struct {
	buf  bytes.Buffer
	ids  map[any]uint64
	next uint64
}

// NewEncoder returns an empty encoder.
func NewEncoder() *Encoder {
	return &Encoder{ids: make(map[any]uint64)}
}

// Bytes returns the encoded form.
func (e *Encoder) Bytes() []byte { return e.buf.Bytes() }

func (e *Encoder) writeTag(t Tag) { e.buf.WriteByte(byte(t)) }
func (e *Encoder) writeUvarint(v uint64) {
	var tmp [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(tmp[:], v)
	e.buf.Write(tmp[:n])
}
func (e *Encoder) writeVarint(v int64) {
	var tmp [binary.MaxVarintLen64]byte
	n := binary.PutVarint(tmp[:], v)
	e.buf.Write(tmp[:n])
}
func (e *Encoder) writeString(s string) {
	e.writeUvarint(uint64(len(s)))
	e.buf.WriteString(s)
}
func (e *Encoder) writeBytes(b []byte) {
	e.writeUvarint(uint64(len(b)))
	e.buf.Write(b)
}

// WriteInt encodes a signed payload integer (for user types).
func (e *Encoder) WriteInt(v int64) { e.writeVarint(v) }

// WriteValue encodes a nested value (for user types).
func (e *Encoder) WriteValue(v Value) error { return e.Encode(v) }

// Encode appends v to the encoder's buffer.
func (e *Encoder) Encode(v Value) error {
	switch x := v.(type) {
	case nil:
		e.writeTag(TagNil)
	case Nil:
		e.writeTag(TagNil)
	case Bool:
		e.writeTag(TagBool)
		if x {
			e.buf.WriteByte(1)
		} else {
			e.buf.WriteByte(0)
		}
	case Int8:
		e.writeTag(TagInt8)
		e.writeVarint(int64(x))
	case Int16:
		e.writeTag(TagInt16)
		e.writeVarint(int64(x))
	case Int32:
		e.writeTag(TagInt32)
		e.writeVarint(int64(x))
	case Int64:
		e.writeTag(TagInt64)
		e.writeVarint(int64(x))
	case Uint8:
		e.writeTag(TagUint8)
		e.writeUvarint(uint64(x))
	case Uint16:
		e.writeTag(TagUint16)
		e.writeUvarint(uint64(x))
	case Uint32:
		e.writeTag(TagUint32)
		e.writeUvarint(uint64(x))
	case Uint64:
		e.writeTag(TagUint64)
		e.writeUvarint(uint64(x))
	case Float32:
		e.writeTag(TagFloat32)
		e.writeUvarint(uint64(math.Float32bits(float32(x))))
	case Float64:
		e.writeTag(TagFloat64)
		e.writeUvarint(math.Float64bits(float64(x)))
	case String:
		e.writeTag(TagString)
		e.writeString(string(x))
	case Bytes:
		e.writeTag(TagBytes)
		e.writeBytes([]byte(x))
	case Native:
		e.writeTag(TagNative)
		e.writeUvarint(uint64(x.Bits))
		e.writeVarint(x.V)
	case NativeFloat:
		e.writeTag(TagNativeFloat)
		e.writeUvarint(uint64(x.Bits))
		e.writeUvarint(math.Float64bits(x.V))
	case KeyValue:
		e.writeTag(TagKey)
		e.writeUvarint(uint64(x.K.S))
		e.writeUvarint(uint64(len(x.K.X)))
		for _, xi := range x.K.X {
			e.writeUvarint(uint64(xi))
		}
	case *List:
		if x == nil {
			e.writeTag(TagNil)
			return nil
		}
		if id, seen := e.ids[x]; seen {
			e.writeTag(TagRef)
			e.writeUvarint(id)
			return nil
		}
		id := e.next
		e.next++
		e.ids[x] = id
		e.writeTag(TagList)
		e.writeUvarint(id)
		e.writeUvarint(uint64(len(x.Items)))
		for _, item := range x.Items {
			if err := e.Encode(item); err != nil {
				return err
			}
		}
	case *Record:
		if x == nil {
			e.writeTag(TagNil)
			return nil
		}
		if id, seen := e.ids[x]; seen {
			e.writeTag(TagRef)
			e.writeUvarint(id)
			return nil
		}
		id := e.next
		e.next++
		e.ids[x] = id
		e.writeTag(TagRecord)
		e.writeUvarint(id)
		e.writeUvarint(uint64(len(x.fields)))
		for _, f := range x.fields {
			e.writeString(f.name)
			if err := e.Encode(f.val); err != nil {
				return err
			}
		}
	case UserValue:
		if id, seen := e.ids[x]; seen {
			e.writeTag(TagRef)
			e.writeUvarint(id)
			return nil
		}
		id := e.next
		e.next++
		e.ids[x] = id
		e.writeTag(TagUser)
		e.writeUvarint(id)
		e.writeString(x.TypeName())
		if err := x.EncodeFields(e); err != nil {
			return err
		}
	default:
		return fmt.Errorf("transferable: cannot encode %T", v)
	}
	return nil
}

// Decoder reads values written by Encoder. The Domain field gates native
// value decoding (see ErrLossy).
type Decoder struct {
	r      *bytes.Reader
	refs   map[uint64]Value
	Domain Domain
}

// NewDecoder returns a decoder over data for a host with the given domain.
func NewDecoder(data []byte, d Domain) *Decoder {
	return &Decoder{r: bytes.NewReader(data), refs: make(map[uint64]Value), Domain: d}
}

// Remaining reports how many undecoded bytes remain.
func (d *Decoder) Remaining() int { return d.r.Len() }

func (d *Decoder) readTag() (Tag, error) {
	b, err := d.r.ReadByte()
	if err != nil {
		return TagInvalid, err
	}
	return Tag(b), nil
}

func (d *Decoder) readUvarint() (uint64, error) { return binary.ReadUvarint(d.r) }
func (d *Decoder) readVarint() (int64, error)   { return binary.ReadVarint(d.r) }

func (d *Decoder) readString() (string, error) {
	n, err := d.readUvarint()
	if err != nil {
		return "", err
	}
	if n > uint64(d.r.Len()) {
		return "", errors.New("transferable: truncated string")
	}
	if n == 0 {
		return "", nil
	}
	b := make([]byte, n)
	if _, err := io.ReadFull(d.r, b); err != nil {
		return "", err
	}
	return string(b), nil
}

func (d *Decoder) readBytes() ([]byte, error) {
	n, err := d.readUvarint()
	if err != nil {
		return nil, err
	}
	if n > uint64(d.r.Len()) {
		return nil, errors.New("transferable: truncated bytes")
	}
	b := make([]byte, n)
	if n > 0 {
		if _, err := io.ReadFull(d.r, b); err != nil {
			return nil, err
		}
	}
	return b, nil
}

// ReadInt decodes a signed payload integer (for user types).
func (d *Decoder) ReadInt() (int64, error) { return d.readVarint() }

// ReadValue decodes a nested value (for user types).
func (d *Decoder) ReadValue() (Value, error) { return d.Decode() }

// Decode reads the next value.
func (d *Decoder) Decode() (Value, error) {
	tag, err := d.readTag()
	if err != nil {
		return nil, err
	}
	switch tag {
	case TagNil:
		return Nil{}, nil
	case TagBool:
		b, err := d.r.ReadByte()
		if err != nil {
			return nil, err
		}
		return Bool(b != 0), nil
	case TagInt8:
		v, err := d.readVarint()
		return Int8(v), err
	case TagInt16:
		v, err := d.readVarint()
		return Int16(v), err
	case TagInt32:
		v, err := d.readVarint()
		return Int32(v), err
	case TagInt64:
		v, err := d.readVarint()
		return Int64(v), err
	case TagUint8:
		v, err := d.readUvarint()
		return Uint8(v), err
	case TagUint16:
		v, err := d.readUvarint()
		return Uint16(v), err
	case TagUint32:
		v, err := d.readUvarint()
		return Uint32(v), err
	case TagUint64:
		v, err := d.readUvarint()
		return Uint64(v), err
	case TagFloat32:
		bits, err := d.readUvarint()
		return Float32(math.Float32frombits(uint32(bits))), err
	case TagFloat64:
		bits, err := d.readUvarint()
		return Float64(math.Float64frombits(bits)), err
	case TagString:
		s, err := d.readString()
		return String(s), err
	case TagBytes:
		b, err := d.readBytes()
		return Bytes(b), err
	case TagNative:
		bits, err := d.readUvarint()
		if err != nil {
			return nil, err
		}
		v, err := d.readVarint()
		if err != nil {
			return nil, err
		}
		if err := d.Domain.CheckInt(v); err != nil {
			return nil, err
		}
		return Native{V: v, Bits: int(bits)}, nil
	case TagNativeFloat:
		bits, err := d.readUvarint()
		if err != nil {
			return nil, err
		}
		fb, err := d.readUvarint()
		if err != nil {
			return nil, err
		}
		v := math.Float64frombits(fb)
		if err := d.Domain.CheckFloat(v); err != nil {
			return nil, err
		}
		return NativeFloat{V: v, Bits: int(bits)}, nil
	case TagKey:
		s, err := d.readUvarint()
		if err != nil {
			return nil, err
		}
		n, err := d.readUvarint()
		if err != nil {
			return nil, err
		}
		if n > uint64(d.r.Len()) {
			return nil, errors.New("transferable: truncated key")
		}
		k := symbol.Key{S: symbol.Symbol(s)}
		if n > 0 {
			k.X = make([]uint32, n)
			for i := range k.X {
				xi, err := d.readUvarint()
				if err != nil {
					return nil, err
				}
				k.X[i] = uint32(xi)
			}
		}
		return KeyValue{K: k}, nil
	case TagList:
		id, err := d.readUvarint()
		if err != nil {
			return nil, err
		}
		n, err := d.readUvarint()
		if err != nil {
			return nil, err
		}
		l := &List{}
		// Register before decoding children so cycles resolve to l.
		d.refs[id] = l
		if n > 0 {
			l.Items = make([]Value, 0, min(int(n), 1<<16))
			for i := uint64(0); i < n; i++ {
				item, err := d.Decode()
				if err != nil {
					return nil, err
				}
				l.Items = append(l.Items, item)
			}
		}
		return l, nil
	case TagRecord:
		id, err := d.readUvarint()
		if err != nil {
			return nil, err
		}
		n, err := d.readUvarint()
		if err != nil {
			return nil, err
		}
		r := NewRecord()
		d.refs[id] = r
		for i := uint64(0); i < n; i++ {
			name, err := d.readString()
			if err != nil {
				return nil, err
			}
			v, err := d.Decode()
			if err != nil {
				return nil, err
			}
			r.Set(name, v)
		}
		return r, nil
	case TagUser:
		id, err := d.readUvarint()
		if err != nil {
			return nil, err
		}
		name, err := d.readString()
		if err != nil {
			return nil, err
		}
		factory, ok := lookupUserType(name)
		if !ok {
			return nil, fmt.Errorf("transferable: unknown user type %q", name)
		}
		u := factory()
		d.refs[id] = u
		if err := u.DecodeFields(d); err != nil {
			return nil, err
		}
		return u, nil
	case TagRef:
		id, err := d.readUvarint()
		if err != nil {
			return nil, err
		}
		v, ok := d.refs[id]
		if !ok {
			return nil, fmt.Errorf("transferable: dangling back-reference %d", id)
		}
		return v, nil
	}
	return nil, fmt.Errorf("transferable: unknown tag %d", tag)
}

// Marshal encodes a single value to bytes.
func Marshal(v Value) ([]byte, error) {
	e := NewEncoder()
	if err := e.Encode(v); err != nil {
		return nil, err
	}
	return e.Bytes(), nil
}

// Unmarshal decodes a single value for a host with the given domain. Trailing
// bytes are an error: a memo holds exactly one value.
func Unmarshal(data []byte, dom Domain) (Value, error) {
	d := NewDecoder(data, dom)
	v, err := d.Decode()
	if err != nil {
		return nil, err
	}
	if d.Remaining() != 0 {
		return nil, fmt.Errorf("transferable: %d trailing bytes after value", d.Remaining())
	}
	return v, nil
}
