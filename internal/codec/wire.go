package codec

import (
	"encoding/binary"
	"fmt"
	"math"
	"reflect"
	"sync"

	"datatrace/internal/stream"
)

// This file holds the pieces every encoding in the package shares:
// the process-wide registry of boxed key/value types, the per-
// connection symbol tables, and the event and message layouts.
//
// Symbols. A boxed value names its type, and a column batch its kind,
// by a symbol reference: uvarint 0 is nil (boxed values only), r ≥ 1
// is the r-th name this connection bound. The first use of a name on
// a connection binds it: the reference is one past the last bound
// symbol and the name (uvarint length, bytes) follows. Names are
// stream.ValueWire.Name for boxed types and ColKind.Name for kinds, so
// both ends resolve them in their own registries, whatever order the
// processes registered in.
//
//	event   = tag(0 item | 1 marker) item|marker
//	item    = sym(key type) key-bytes sym(value type) value-bytes
//	marker  = varint(seq) varint(ts)
//	message = flags(1 EOS | 2 cols) varint(ch) varint(sent) cols|event
//	cols    = sym(kind) ColKind.AppendWire bytes
//	frame   = varint(dest) uvarint(count) message*

// registry holds the registered boxed types. Encoders and decoders
// consult it once per type per connection, then keep what they found
// in their symbol tables.
var registry struct {
	sync.RWMutex
	byType map[reflect.Type]*stream.ValueWire
	byName map[string]*stream.ValueWire
}

// Register declares a concrete type that travels boxed as a key or
// value (column batches need no registration: their kinds carry their
// own wire code). T must have a wire form — see stream.ValueWireFor:
// a scalar, or a type implementing encoding.BinaryAppender whose
// pointer implements stream.WireUnmarshaler; Register panics
// otherwise. Registering a type again is a no-op.
func Register[T any](v T) {
	w, ok := stream.ValueWireFor[T]()
	if !ok {
		panic(fmt.Sprintf("codec: Register(%T): type has no wire form", v))
	}
	registry.Lock()
	defer registry.Unlock()
	if registry.byType == nil {
		registry.byType = map[reflect.Type]*stream.ValueWire{}
		registry.byName = map[string]*stream.ValueWire{}
	}
	if registry.byType[w.Type] != nil {
		return
	}
	if prev := registry.byName[w.Name]; prev != nil {
		panic(fmt.Sprintf("codec: Register(%T): wire name %q already names %s", v, w.Name, prev.Type))
	}
	registry.byType[w.Type] = &w
	registry.byName[w.Name] = &w
}

func lookupType(t reflect.Type) *stream.ValueWire {
	registry.RLock()
	defer registry.RUnlock()
	return registry.byType[t]
}

func lookupName(name string) *stream.ValueWire {
	registry.RLock()
	defer registry.RUnlock()
	return registry.byName[name]
}

// encSym is one name an encoder has bound.
type encSym struct {
	ref  uint64
	box  *stream.ValueWire
	kind *stream.ColKind
}

// encoder is the sending half of a connection's symbol table. Names
// bound while encoding a unit (a frame, an event) are provisional until
// commit: rollback forgets them, so a unit that fails to encode leaves
// the table exactly as the receiver knows it.
type encoder struct {
	syms  map[any]encSym // reflect.Type of a boxed type, or a kind's name
	added []any
}

func newEncoder() *encoder { return &encoder{syms: map[any]encSym{}} }

func (e *encoder) commit() { e.added = e.added[:0] }

func (e *encoder) rollback() {
	for _, k := range e.added {
		delete(e.syms, k)
	}
	e.added = e.added[:0]
}

// bind binds a new name under key and appends its defining reference.
func (e *encoder) bind(b []byte, key any, name string, s encSym) ([]byte, encSym) {
	s.ref = uint64(len(e.syms)) + 1
	e.syms[key] = s
	e.added = append(e.added, key)
	b = binary.AppendUvarint(b, s.ref)
	b = binary.AppendUvarint(b, uint64(len(name)))
	return append(b, name...), s
}

func (e *encoder) appendBoxed(b []byte, v any) ([]byte, error) {
	if v == nil {
		return append(b, 0), nil
	}
	t := reflect.TypeOf(v)
	s, ok := e.syms[t]
	if ok {
		b = binary.AppendUvarint(b, s.ref)
	} else {
		bt := lookupType(t)
		if bt == nil {
			return nil, fmt.Errorf("%w: %s", ErrUnregisteredType, t)
		}
		b, s = e.bind(b, t, bt.Name, encSym{box: bt})
	}
	return s.box.Append(b, v)
}

func (e *encoder) appendCols(b []byte, c *WireCols) ([]byte, error) {
	s, ok := e.syms[c.Kind]
	if ok {
		b = binary.AppendUvarint(b, s.ref)
	} else {
		kind := stream.ColKindByName(c.Kind)
		if kind == nil {
			return nil, fmt.Errorf("%w: unknown column kind %q", ErrUnregisteredType, c.Kind)
		}
		if !kind.HasWire() {
			return nil, fmt.Errorf("%w: column kind %s has no wire form", ErrUnregisteredType, kind)
		}
		b, s = e.bind(b, c.Kind, c.Kind, encSym{kind: kind})
	}
	return s.kind.AppendWire(b, c.Keys, c.Vals)
}

const (
	tagItem   = 0
	tagMarker = 1

	flagEOS  = 1
	flagCols = 2

	// minEventBytes and minMsgBytes are the fewest bytes an event and a
	// message occupy; claimed counts are checked against them before
	// anything is allocated.
	minEventBytes = 3 // tag and two symbol references, or tag and two varints
	minMsgBytes   = 5 // flags, ch, sent, then a kind reference and row count
)

func (e *encoder) appendEvent(b []byte, w *WireEvent) ([]byte, error) {
	if w.IsMarker {
		b = append(b, tagMarker)
		b = binary.AppendVarint(b, w.Seq)
		return binary.AppendVarint(b, w.Ts), nil
	}
	b, err := e.appendBoxed(append(b, tagItem), w.Key)
	if err != nil {
		return nil, err
	}
	return e.appendBoxed(b, w.Value)
}

func (e *encoder) appendMsg(b []byte, m *WireMessage) ([]byte, error) {
	var fl byte
	if m.EOS {
		fl |= flagEOS
	}
	if m.Cols != nil {
		fl |= flagCols
	}
	b = append(b, fl)
	b = binary.AppendVarint(b, int64(m.Ch))
	b = binary.AppendVarint(b, m.Sent)
	if m.Cols != nil {
		return e.appendCols(b, m.Cols)
	}
	return e.appendEvent(b, &m.Ev)
}

func (e *encoder) appendFrame(b []byte, f *Frame) ([]byte, error) {
	b = binary.AppendVarint(b, int64(f.Dest))
	b = binary.AppendUvarint(b, uint64(len(f.Msgs)))
	for i := range f.Msgs {
		var err error
		if b, err = e.appendMsg(b, &f.Msgs[i]); err != nil {
			return nil, err
		}
	}
	return b, nil
}

// readCount reads a count of items that take at least min bytes each,
// failing when the bytes left cannot hold that many.
func readCount(b []byte, min int) (int, []byte, error) {
	n, k := binary.Uvarint(b)
	if k <= 0 {
		return 0, nil, fmt.Errorf("%w: bad count", ErrCorruptFrame)
	}
	if n > uint64((len(b)-k)/min) {
		return 0, nil, fmt.Errorf("%w: count %d exceeds the %d bytes left", ErrCorruptFrame, n, len(b)-k)
	}
	return int(n), b[k:], nil
}

func readVarint(b []byte) (int64, []byte, error) {
	v, k := binary.Varint(b)
	if k <= 0 {
		return 0, nil, fmt.Errorf("%w: bad varint", ErrCorruptFrame)
	}
	return v, b[k:], nil
}

func readInt32(b []byte) (int32, []byte, error) {
	v, b, err := readVarint(b)
	if err == nil && (v < math.MinInt32 || v > math.MaxInt32) {
		err = fmt.Errorf("%w: %d overflows int32", ErrCorruptFrame, v)
	}
	return int32(v), b, err
}

// decSym is one name a decoder has seen bound, resolved on first use.
type decSym struct {
	name string
	box  *stream.ValueWire
	kind *stream.ColKind
}

// decoder is the receiving half of a connection's symbol table.
type decoder struct {
	syms []decSym
}

// readSym reads a symbol reference; i is -1 for nil.
func (d *decoder) readSym(b []byte) (i int, rest []byte, err error) {
	r, k := binary.Uvarint(b)
	if k <= 0 {
		return 0, nil, fmt.Errorf("%w: bad symbol reference", ErrCorruptFrame)
	}
	b = b[k:]
	switch {
	case r == 0:
		return -1, b, nil
	case r <= uint64(len(d.syms)):
		return int(r - 1), b, nil
	case r == uint64(len(d.syms))+1:
		n, k := binary.Uvarint(b)
		if k <= 0 || n > uint64(len(b)-k) {
			return 0, nil, fmt.Errorf("%w: symbol name exceeds the bytes left", ErrCorruptFrame)
		}
		d.syms = append(d.syms, decSym{name: string(b[k : k+int(n)])})
		return len(d.syms) - 1, b[k+int(n):], nil
	}
	return 0, nil, fmt.Errorf("%w: symbol %d not bound", ErrCorruptFrame, r)
}

func (d *decoder) readBoxed(b []byte) (any, []byte, error) {
	i, b, err := d.readSym(b)
	if err != nil || i < 0 {
		return nil, b, err
	}
	s := &d.syms[i]
	if s.box == nil {
		if s.box = lookupName(s.name); s.box == nil {
			return nil, nil, fmt.Errorf("%w: %q", ErrUnregisteredType, s.name)
		}
	}
	v, b, err := s.box.Read(b)
	if err != nil {
		return nil, nil, fmt.Errorf("%w: %s: %v", ErrCorruptFrame, s.name, err)
	}
	return v, b, nil
}

// readCols decodes one column batch into a pooled batch owned by the
// caller.
func (d *decoder) readCols(b []byte, w *WireCols) ([]byte, error) {
	i, b, err := d.readSym(b)
	if err != nil {
		return nil, err
	}
	if i < 0 {
		return nil, fmt.Errorf("%w: column batch without a kind", ErrCorruptFrame)
	}
	s := &d.syms[i]
	if s.kind == nil {
		if s.kind = stream.ColKindByName(s.name); s.kind == nil {
			return nil, fmt.Errorf("%w: unknown column kind %q", ErrUnregisteredType, s.name)
		}
	}
	cols, b, err := s.kind.ReadWire(b)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrCorruptFrame, err)
	}
	w.Kind = s.name
	w.Keys, w.Vals = cols.Slices()
	w.batch = cols
	return b, nil
}

func (d *decoder) readEvent(b []byte, w *WireEvent) ([]byte, error) {
	if len(b) == 0 {
		return nil, fmt.Errorf("%w: missing event", ErrCorruptFrame)
	}
	tag, b := b[0], b[1:]
	var err error
	switch tag {
	case tagMarker:
		*w = WireEvent{IsMarker: true}
		if w.Seq, b, err = readVarint(b); err != nil {
			return nil, err
		}
		w.Ts, b, err = readVarint(b)
		return b, err
	case tagItem:
		*w = WireEvent{}
		if w.Key, b, err = d.readBoxed(b); err != nil {
			return nil, err
		}
		w.Value, b, err = d.readBoxed(b)
		return b, err
	}
	return nil, fmt.Errorf("%w: event tag %d", ErrCorruptFrame, tag)
}

// readMsg decodes one message into m; a column batch lands in cols,
// which m then points to.
func (d *decoder) readMsg(b []byte, m *WireMessage, cols *WireCols) ([]byte, error) {
	if len(b) == 0 {
		return nil, fmt.Errorf("%w: missing message", ErrCorruptFrame)
	}
	fl := b[0]
	if fl&^(flagEOS|flagCols) != 0 {
		return nil, fmt.Errorf("%w: message flags %#x", ErrCorruptFrame, fl)
	}
	*m = WireMessage{EOS: fl&flagEOS != 0}
	var err error
	if m.Ch, b, err = readInt32(b[1:]); err != nil {
		return nil, err
	}
	if m.Sent, b, err = readVarint(b); err != nil {
		return nil, err
	}
	if fl&flagCols != 0 {
		m.Cols = cols
		return d.readCols(b, cols)
	}
	return d.readEvent(b, &m.Ev)
}
