package stream

import (
	"encoding"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"reflect"
	"slices"
)

// This file defines the binary wire form of keys, values and column
// batches, the element layer of the frame codec (package codec). Each
// element type gets typed code built once per type, never reflection
// per row:
//
//   - int, int64 and float64 are 8 bytes little-endian (int widens to
//     int64); bool is one byte, 0 or 1; a string is its uvarint length
//     and bytes; Unit is zero bytes.
//   - Any other type T has a wire form exactly when T implements
//     encoding.BinaryAppender and *T implements WireUnmarshaler. Each
//     element is written as the uvarint length of its AppendBinary
//     bytes followed by those bytes, so UnmarshalWire receives exactly
//     one element's span.
//
// A column batch is its uvarint row count, then the key column, then
// the value column, each element after element.

// errWireCorrupt reports wire bytes that do not decode: a truncated
// element, a length or row count larger than the bytes left, a
// non-canonical bool, or bytes a type's UnmarshalWire rejects.
var errWireCorrupt = errors.New("stream: corrupt wire bytes")

// maxWireRows bounds a column batch's claimed row count, so a batch
// of zero-width rows (Unit keys and values) cannot make a decoder
// spin on a lying count.
const maxWireRows = 1 << 24

// elemWire is the typed wire code of one element type.
type elemWire[T any] struct {
	// min is the fewest bytes one element occupies; a claimed row
	// count is checked against it before anything is allocated.
	min    int
	putCol func(b []byte, s []T) ([]byte, error)
	getCol func(b []byte, s []T) ([]byte, error)
	putBox func(b []byte, v any) ([]byte, error)
	getBox func(b []byte) (any, []byte, error)
}

// wireFor returns T's wire code, nil when T has no wire form.
func wireFor[T any]() *elemWire[T] {
	var w *elemWire[T]
	switch p := any(&w).(type) {
	case **elemWire[int64]:
		*p = scalarWire(8, appendInt64, readInt64)
	case **elemWire[int]:
		*p = scalarWire(8,
			func(b []byte, v int) []byte { return appendInt64(b, int64(v)) },
			func(b []byte) (int, int, error) { v, n, err := readInt64(b); return int(v), n, err })
	case **elemWire[float64]:
		*p = scalarWire(8,
			func(b []byte, v float64) []byte { return binary.LittleEndian.AppendUint64(b, math.Float64bits(v)) },
			func(b []byte) (float64, int, error) {
				if len(b) < 8 {
					return 0, 0, errShort
				}
				return math.Float64frombits(binary.LittleEndian.Uint64(b)), 8, nil
			})
	case **elemWire[string]:
		*p = scalarWire(1,
			func(b []byte, v string) []byte { return append(binary.AppendUvarint(b, uint64(len(v))), v...) },
			func(b []byte) (string, int, error) {
				body, rest, err := readSized(b)
				return string(body), len(b) - len(rest), err
			})
	case **elemWire[bool]:
		*p = scalarWire(1,
			func(b []byte, v bool) []byte {
				if v {
					return append(b, 1)
				}
				return append(b, 0)
			},
			func(b []byte) (bool, int, error) {
				if len(b) < 1 {
					return false, 0, errShort
				}
				if b[0] > 1 {
					return false, 0, fmt.Errorf("%w: bool byte %d", errWireCorrupt, b[0])
				}
				return b[0] == 1, 1, nil
			})
	case **elemWire[Unit]:
		// Zero bytes per element: a Unit column is its row count alone.
		*p = &elemWire[Unit]{
			putCol: func(b []byte, _ []Unit) ([]byte, error) { return b, nil },
			getCol: func(b []byte, _ []Unit) ([]byte, error) { return b, nil },
			putBox: func(b []byte, _ any) ([]byte, error) { return b, nil },
			getBox: func(b []byte) (any, []byte, error) { return Unit{}, b, nil },
		}
	default:
		w = binaryWire[T]()
	}
	return w
}

var errShort = fmt.Errorf("%w: element truncated", errWireCorrupt)

func appendInt64(b []byte, v int64) []byte { return binary.LittleEndian.AppendUint64(b, uint64(v)) }

func readInt64(b []byte) (int64, int, error) {
	if len(b) < 8 {
		return 0, 0, errShort
	}
	return int64(binary.LittleEndian.Uint64(b)), 8, nil
}

// scalarWire lifts one scalar's element code to columns and boxes.
func scalarWire[T any](min int, put func([]byte, T) []byte, get func([]byte) (T, int, error)) *elemWire[T] {
	return &elemWire[T]{
		min: min,
		putCol: func(b []byte, s []T) ([]byte, error) {
			for _, v := range s {
				b = put(b, v)
			}
			return b, nil
		},
		getCol: func(b []byte, s []T) ([]byte, error) {
			for i := range s {
				v, n, err := get(b)
				if err != nil {
					return nil, err
				}
				s[i], b = v, b[n:]
			}
			return b, nil
		},
		putBox: func(b []byte, v any) ([]byte, error) { return put(b, v.(T)), nil },
		getBox: func(b []byte) (any, []byte, error) {
			v, n, err := get(b)
			if err != nil {
				return nil, nil, err
			}
			return v, b[n:], nil
		},
	}
}

// WireUnmarshaler is the decode half of a type's wire form, the
// counterpart of its encoding.BinaryAppender: UnmarshalWire decodes
// exactly the bytes one AppendBinary call appended. It is deliberately
// not encoding.BinaryUnmarshaler. gob, which operator snapshots use,
// decodes through a type's UnmarshalBinary and then demands the
// matching MarshalBinary, which hands every snapshotted value to gob
// in a fresh slice: on Query VI with recovery that added a fifth to
// the allocations per event.
type WireUnmarshaler interface {
	UnmarshalWire(b []byte) error
}

var (
	appenderType    = reflect.TypeFor[encoding.BinaryAppender]()
	unmarshalerType = reflect.TypeFor[WireUnmarshaler]()
)

// binaryWire is the wire code of a type implementing
// encoding.BinaryAppender and WireUnmarshaler; nil for any other
// type. The two
// methods are looked up reflectively once per type, as method
// expressions on *T, so rows pay one direct call each — no per-row
// reflection or interface assertion.
func binaryWire[T any]() *elemWire[T] {
	t := reflect.TypeFor[T]()
	pt := reflect.PointerTo(t)
	if t.Kind() == reflect.Interface || !t.Implements(appenderType) || !pt.Implements(unmarshalerType) {
		return nil
	}
	am, _ := pt.MethodByName("AppendBinary")
	um, _ := pt.MethodByName("UnmarshalWire")
	appendTo := am.Func.Interface().(func(*T, []byte) ([]byte, error))
	readFrom := um.Func.Interface().(func(*T, []byte) error)
	return &elemWire[T]{
		min: 1,
		putCol: func(b []byte, s []T) ([]byte, error) {
			for i := range s {
				at := len(b)
				var err error
				if b, err = appendTo(&s[i], append(b, 0)); err != nil {
					return nil, err
				}
				if n := len(b) - at - 1; n < 0x80 {
					b[at] = byte(n)
				} else {
					b = widenPrefix(b, at, n)
				}
			}
			return b, nil
		},
		getCol: func(b []byte, s []T) ([]byte, error) {
			for i := range s {
				var err error
				if b, err = readElem(b, &s[i], readFrom); err != nil {
					return nil, err
				}
			}
			return b, nil
		},
		putBox: func(b []byte, v any) ([]byte, error) {
			at := len(b)
			b, err := v.(encoding.BinaryAppender).AppendBinary(append(b, 0))
			if err != nil {
				return nil, err
			}
			return sealSized(b, at), nil
		},
		getBox: func(b []byte) (any, []byte, error) {
			p := new(T)
			b, err := readElem(b, p, readFrom)
			if err != nil {
				return nil, nil, err
			}
			return *p, b, nil
		},
	}
}

// sealSized completes an element appended behind the one length byte
// reserved at b[at] (putCol inlines the same step).
func sealSized(b []byte, at int) []byte {
	if n := len(b) - at - 1; n < 0x80 {
		b[at] = byte(n)
		return b
	}
	return widenPrefix(b, at, len(b)-at-1)
}

// readElem decodes one length-prefixed element into v and returns the
// bytes after it.
func readElem[T any](b []byte, v *T, readFrom func(*T, []byte) error) ([]byte, error) {
	var body []byte
	if len(b) > 0 && b[0] < 0x80 && int(b[0]) < len(b) {
		body, b = b[1:1+b[0]], b[1+b[0]:]
	} else {
		var err error
		if body, b, err = readSized(b); err != nil {
			return nil, err
		}
	}
	if err := readFrom(v, body); err != nil {
		return nil, fmt.Errorf("%w: %v", errWireCorrupt, err)
	}
	return b, nil
}

// widenPrefix rewrites the one-byte length reserved at b[at] as the
// n-byte element's full uvarint length, shifting the element right.
func widenPrefix(b []byte, at, n int) []byte {
	var hdr [binary.MaxVarintLen64]byte
	h := binary.PutUvarint(hdr[:], uint64(n))
	b = append(b, hdr[:h-1]...)
	copy(b[at+h:], b[at+1:at+1+n])
	copy(b[at:], hdr[:h])
	return b
}

// readSized splits one uvarint-length-prefixed span off b.
func readSized(b []byte) (body, rest []byte, err error) {
	n, k := binary.Uvarint(b)
	if k <= 0 || n > uint64(len(b)-k) {
		return nil, nil, fmt.Errorf("%w: length prefix exceeds the bytes left", errWireCorrupt)
	}
	return b[k : k+int(n)], b[k+int(n):], nil
}

// ValueWire is the boxed wire code of one type with a wire form: the
// form keys and values take outside column batches.
type ValueWire struct {
	// Name identifies the type on the wire; it is the name the type
	// takes inside column kind names.
	Name string
	Type reflect.Type
	// Append appends the wire form of v, which must hold the type.
	Append func(b []byte, v any) ([]byte, error)
	// Read decodes one value and returns the bytes after it.
	Read func(b []byte) (v any, rest []byte, err error)
}

// ValueWireFor returns T's boxed wire code; ok is false when T has no
// wire form.
func ValueWireFor[T any]() (w ValueWire, ok bool) {
	ew := wireFor[T]()
	if ew == nil {
		return ValueWire{}, false
	}
	t := reflect.TypeFor[T]()
	return ValueWire{Name: typeName(t), Type: t, Append: ew.putBox, Read: ew.getBox}, true
}

// colWire is a column kind's wire code; nil fields mean the kind's key
// or value type has no wire form.
type colWire struct {
	append func(b []byte, keys, vals any) ([]byte, error)
	read   func(b []byte) (Columns, []byte, error)
}

func newColWire[K, V any](k *ColKind) colWire {
	kw, vw := wireFor[K](), wireFor[V]()
	if kw == nil || vw == nil {
		return colWire{}
	}
	minRow := kw.min + vw.min
	return colWire{
		append: func(b []byte, keys, vals any) ([]byte, error) {
			ks, kok := keys.([]K)
			vs, vok := vals.([]V)
			if !kok || !vok || len(ks) != len(vs) {
				return nil, fmt.Errorf("stream: %s columns are %T and %T", k.name, keys, vals)
			}
			b = binary.AppendUvarint(b, uint64(len(ks)))
			b, err := kw.putCol(b, ks)
			if err != nil {
				return nil, err
			}
			return vw.putCol(b, vs)
		},
		read: func(b []byte) (Columns, []byte, error) {
			n, sz := binary.Uvarint(b)
			if sz <= 0 {
				return nil, nil, fmt.Errorf("%w: %s row count", errWireCorrupt, k.name)
			}
			b = b[sz:]
			if n > maxWireRows || (minRow > 0 && n > uint64(len(b)/minRow)) {
				return nil, nil, fmt.Errorf("%w: %s claims %d rows in %d bytes", errWireCorrupt, k.name, n, len(b))
			}
			c := k.pool.Get().(*Cols[K, V])
			c.Keys = slices.Grow(c.Keys[:0], int(n))[:n]
			c.Vals = slices.Grow(c.Vals[:0], int(n))[:n]
			b, err := kw.getCol(b, c.Keys)
			if err == nil {
				b, err = vw.getCol(b, c.Vals)
			}
			if err != nil {
				c.Release()
				return nil, nil, err
			}
			return c, b, nil
		},
	}
}

// HasWire reports whether the kind's key and value types both have a
// wire form.
func (k *ColKind) HasWire() bool { return k.wire.append != nil }

// AppendWire appends the wire form of one batch of this kind, given as
// its typed column slices ([]K, []V boxed as any, see
// Columns.Slices). It fails when the kind has no wire form or the
// slices are not the kind's.
func (k *ColKind) AppendWire(b []byte, keys, vals any) ([]byte, error) {
	if k.wire.append == nil {
		return nil, fmt.Errorf("stream: %s has no wire form", k.name)
	}
	return k.wire.append(b, keys, vals)
}

// ReadWire decodes one batch written by AppendWire straight into a
// pooled batch of this kind, which the caller owns, and returns the
// bytes after it. A row count larger than the bytes left can hold
// fails before the batch is taken from the pool.
func (k *ColKind) ReadWire(b []byte) (Columns, []byte, error) {
	if k.wire.read == nil {
		return nil, nil, fmt.Errorf("stream: %s has no wire form", k.name)
	}
	return k.wire.read(b)
}
