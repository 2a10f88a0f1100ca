package codec

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"datatrace/internal/stream"
)

// This file defines the length-prefixed binary framing the networked
// storm runtime puts on every inter-worker TCP connection. One frame
// carries one batched message vector (the pooled vectors of the
// batched edge transport), addressed to one destination executor:
//
//	[4-byte big-endian payload length][binary payload]
//
// The payload layout is in wire.go. A column batch travels as its
// kind, its row count and its two typed column slices, each written by
// the kind's typed code; markers, end-of-stream notices and items of
// non-columnar edges travel boxed. Each type or kind name crosses a
// connection once, when it is first used, and is referenced by a
// small index after that. A frame's payload is one Encode call, so
// FrameDecoder's single Decode call consumes it completely; leftover
// bytes mean a corrupted stream and are rejected.

// MaxFrameBytes bounds a frame's payload. The bound is enforced
// *before* any allocation, so a corrupted or hostile length prefix
// cannot make the decoder allocate unbounded memory.
const MaxFrameBytes = 16 << 20

// ErrFrameTooLarge reports a length prefix exceeding MaxFrameBytes.
var ErrFrameTooLarge = errors.New("codec: frame exceeds MaxFrameBytes")

// ErrShortFrame reports a frame truncated mid-payload (or a truncated
// length prefix with at least one byte present).
var ErrShortFrame = errors.New("codec: truncated frame")

// ErrTrailingBytes reports payload bytes left over after the frame's
// value was decoded — the stream is corrupted or was not produced by
// a FrameEncoder.
var ErrTrailingBytes = errors.New("codec: trailing bytes after frame payload")

// ErrCorruptFrame reports a payload that does not decode: a bad tag,
// an unbound symbol, or a count or length larger than the bytes left.
var ErrCorruptFrame = errors.New("codec: corrupt frame payload")

// ErrUnregisteredType reports a key or value whose type was never
// passed to Register, or a column kind whose key or value type has no
// wire form — on either end of a connection. The encoder detects it
// before any byte reaches the stream, so the networked transport
// treats it as a per-event serialization failure — eligible for the
// drop-and-log degradation policy — rather than a transport fault.
var ErrUnregisteredType = errors.New("codec: unregistered key/value type")

// WireEvent is the frame-level form of one stream event.
type WireEvent struct {
	IsMarker bool
	Seq      int64
	Ts       int64
	Key      any
	Value    any
}

// FromEvent converts a stream event to its wire form.
func FromEvent(e stream.Event) WireEvent {
	return WireEvent{IsMarker: e.IsMarker, Seq: e.Marker.Seq, Ts: e.Marker.Timestamp, Key: e.Key, Value: e.Value}
}

// Event converts the wire form back to a stream event.
func (w WireEvent) Event() stream.Event {
	if w.IsMarker {
		return stream.Mark(stream.Marker{Seq: w.Seq, Timestamp: w.Ts})
	}
	return stream.Item(w.Key, w.Value)
}

// WireCols is the frame-level form of one typed column batch: the
// batch's kind name plus its two typed column slices ([]K, []V boxed
// as any, see stream.Columns.Slices). Shipping the columns as two
// slices — instead of one WireEvent per row — is what lets networked
// edges stay columnar: the kind's typed code writes and reads the
// rows with no per-row type information.
type WireCols struct {
	Kind string
	Keys any
	Vals any
	// batch is the pooled batch a FrameDecoder decoded the columns
	// into; Keys and Vals are its slices.
	batch stream.Columns
}

// Batch returns the pooled batch a FrameDecoder decoded these columns
// into; the caller owns it. nil for columns built by hand.
func (w *WireCols) Batch() stream.Columns { return w.batch }

// WireMessage is the frame-level form of one transport message: an
// event tagged with its receiver-side channel, a typed column batch
// for that channel, or an end-of-stream notice for it. Sent carries
// the send stamp used by the observability subsystem (0 when
// observability is off).
type WireMessage struct {
	Ch   int32
	EOS  bool
	Sent int64
	Ev   WireEvent
	// Cols, when set, makes this message a column batch; Ev is unused.
	Cols *WireCols
}

// Frame is one batched message vector on the wire, addressed to the
// destination executor's global index (declaration-order executor id,
// see storm.Placement).
type Frame struct {
	Dest int32
	Msgs []WireMessage
}

// FrameEncoder writes length-prefixed frames to w, naming each type
// and kind once per connection. Not safe for concurrent use; give each
// connection its own and serialize writers above it.
type FrameEncoder struct {
	w   io.Writer
	buf []byte
	enc *encoder
}

// NewFrameEncoder creates an encoder writing to w.
func NewFrameEncoder(w io.Writer) *FrameEncoder {
	return &FrameEncoder{w: w, enc: newEncoder()}
}

// Encode writes one frame: the payload is built behind a reserved
// length prefix in the scratch buffer and the whole frame goes to the
// writer in one Write. Encoding is transactional: a failure before the
// write — ErrUnregisteredType for a key, value or kind with no wire
// form, ErrFrameTooLarge — leaves both the stream and the
// connection's symbol table untouched.
func (e *FrameEncoder) Encode(f *Frame) error {
	b, err := e.enc.appendFrame(append(e.buf[:0], 0, 0, 0, 0), f)
	if err == nil && len(b)-4 > MaxFrameBytes {
		err = fmt.Errorf("%w: %d bytes", ErrFrameTooLarge, len(b)-4)
	}
	if err != nil {
		e.enc.rollback()
		return fmt.Errorf("codec: encode frame: %w", err)
	}
	e.enc.commit()
	binary.BigEndian.PutUint32(b, uint32(len(b)-4))
	e.buf = b[:0]
	if _, err := e.w.Write(b); err != nil {
		return fmt.Errorf("codec: write frame: %w", err)
	}
	return nil
}

// FrameDecoder reads length-prefixed frames from r. Not safe for
// concurrent use.
type FrameDecoder struct {
	r       io.Reader
	dec     *decoder
	hdr     [4]byte
	payload []byte
	// cols are the WireCols the decoded frames point to, reused by
	// every Decode.
	cols []*WireCols
}

// NewFrameDecoder creates a decoder reading from r.
func NewFrameDecoder(r io.Reader) *FrameDecoder {
	return &FrameDecoder{r: r, dec: &decoder{}}
}

// Decode reads the next frame into f, reusing f.Msgs. A column batch
// is decoded straight into a pooled batch of its kind, which the
// caller owns (WireCols.Batch); the WireCols values themselves belong
// to the decoder and are overwritten by the next Decode.
//
// A clean end of stream (EOF at a frame boundary) returns io.EOF;
// truncation inside a frame returns ErrShortFrame; a length prefix
// over MaxFrameBytes returns ErrFrameTooLarge before anything is
// allocated; a malformed payload returns ErrCorruptFrame (a count or
// length larger than the bytes left fails before anything is
// allocated); a type or kind unknown on this side returns
// ErrUnregisteredType; payload bytes the frame does not account for
// return ErrTrailingBytes.
func (d *FrameDecoder) Decode(f *Frame) error {
	if _, err := io.ReadFull(d.r, d.hdr[:]); err != nil {
		if err == io.EOF {
			return io.EOF
		}
		return fmt.Errorf("%w: %v", ErrShortFrame, err)
	}
	n := int(binary.BigEndian.Uint32(d.hdr[:]))
	if n > MaxFrameBytes {
		return fmt.Errorf("%w: header claims %d bytes", ErrFrameTooLarge, n)
	}
	if err := d.readPayload(n); err != nil {
		return err
	}
	if err := d.decodePayload(f); err != nil {
		return fmt.Errorf("codec: decode frame: %w", err)
	}
	return nil
}

func (d *FrameDecoder) decodePayload(f *Frame) error {
	b := d.payload
	dest, b, err := readInt32(b)
	if err != nil {
		return err
	}
	count, b, err := readCount(b, minMsgBytes)
	if err != nil {
		return err
	}
	f.Dest = int32(dest)
	if cap(f.Msgs) < count {
		f.Msgs = make([]WireMessage, count)
	}
	f.Msgs = f.Msgs[:count]
	ncols := 0
	for i := range f.Msgs {
		if ncols == len(d.cols) {
			d.cols = append(d.cols, &WireCols{})
		}
		if b, err = d.dec.readMsg(b, &f.Msgs[i], d.cols[ncols]); err != nil {
			f.Msgs = f.Msgs[:i]
			break
		}
		if f.Msgs[i].Cols != nil {
			ncols++
		}
	}
	if err == nil && len(b) != 0 {
		err = fmt.Errorf("%w: %d of %d bytes unconsumed", ErrTrailingBytes, len(b), len(d.payload))
	}
	if err != nil {
		// The batches decoded so far go back to their pools.
		for i := range f.Msgs {
			if c := f.Msgs[i].Cols; c != nil && c.batch != nil {
				c.batch.Release()
			}
		}
		f.Msgs = f.Msgs[:0]
	}
	return err
}

// readPayload fills d.payload with n bytes from the stream. The
// scratch buffer grows in bounded steps, each taken only after the
// previous step's bytes actually arrived, so allocation tracks the
// bytes received rather than the (possibly lying) header.
func (d *FrameDecoder) readPayload(n int) error {
	const step = 64 << 10
	if cap(d.payload) >= n {
		d.payload = d.payload[:n]
		if _, err := io.ReadFull(d.r, d.payload); err != nil {
			return fmt.Errorf("%w: %v", ErrShortFrame, err)
		}
		return nil
	}
	d.payload = d.payload[:0]
	for got := 0; got < n; {
		k := n - got
		if k > step {
			k = step
		}
		d.payload = append(d.payload, make([]byte, k)...)
		if _, err := io.ReadFull(d.r, d.payload[got:]); err != nil {
			return fmt.Errorf("%w: %v", ErrShortFrame, err)
		}
		got += k
	}
	return nil
}
