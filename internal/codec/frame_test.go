package codec

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"reflect"
	"testing"

	"datatrace/internal/stream"
)

func init() {
	// The concrete key/value types the frame tests send boxed.
	Register(int64(0))
	Register("")
	Register(false)
	Register(stream.Unit{})
}

// testCols is the column kind mkMsgs batches rows of.
var testCols = stream.ColKindFor[int64, string]()

// mkMsgs deterministically derives a message vector from a byte
// string — the structured half of the fuzz target and a convenient
// generator for the property test.
func mkMsgs(data []byte) []WireMessage {
	var msgs []WireMessage
	for i := 0; i+3 < len(data); i += 4 {
		kind, ch, a, b := data[i], data[i+1], data[i+2], data[i+3]
		m := WireMessage{Ch: int32(ch % 8), Sent: int64(a) * 1000}
		switch kind % 5 {
		case 0: // item with int64 key/value
			m.Ev = WireEvent{Key: int64(a), Value: int64(b)}
		case 1: // item with string/bool payload
			m.Ev = WireEvent{Key: string(rune('a' + a%26)), Value: b%2 == 0}
		case 2: // marker
			m.Ev = WireEvent{IsMarker: true, Seq: int64(a), Ts: int64(b) * 1000}
		case 3: // end-of-stream notice
			m.EOS = true
			m.Sent = 0
		case 4: // column batch of 1..4 rows
			var keys []int64
			var vals []string
			for r := 0; r <= int(b%4); r++ {
				keys = append(keys, -int64(a)<<(8*r))
				vals = append(vals, string(data[i:i+r]))
			}
			m.Cols = &WireCols{Kind: testCols.Name(), Keys: keys, Vals: vals}
		}
		msgs = append(msgs, m)
	}
	return msgs
}

// plain strips a decoded frame of the decoder's pooled batches
// (released) and WireCols (copied), so it compares with reflect.DeepEqual
// against a hand-built frame and survives the next Decode.
func plain(f Frame) Frame {
	out := Frame{Dest: f.Dest}
	if f.Msgs != nil {
		out.Msgs = make([]WireMessage, len(f.Msgs))
	}
	for i, m := range f.Msgs {
		if c := m.Cols; c != nil {
			m.Cols = &WireCols{Kind: c.Kind, Keys: copySlice(c.Keys), Vals: copySlice(c.Vals)}
			c.batch.Release()
		}
		out.Msgs[i] = m
	}
	return out
}

func copySlice(s any) any {
	v := reflect.ValueOf(s)
	c := reflect.MakeSlice(v.Type(), v.Len(), v.Len())
	reflect.Copy(c, v)
	return c.Interface()
}

// encodeFrames runs one connection's encoder over the frames.
func encodeFrames(t *testing.T, frames []Frame) []byte {
	t.Helper()
	var buf bytes.Buffer
	enc := NewFrameEncoder(&buf)
	for i := range frames {
		if err := enc.Encode(&frames[i]); err != nil {
			t.Fatalf("encode frame %d: %v", i, err)
		}
	}
	return buf.Bytes()
}

// decodeFrames drains a stream produced by encodeFrames.
func decodeFrames(t *testing.T, b []byte) []Frame {
	t.Helper()
	dec := NewFrameDecoder(bytes.NewReader(b))
	var out []Frame
	for {
		var f Frame
		err := dec.Decode(&f)
		if err == io.EOF {
			return out
		}
		if err != nil {
			t.Fatalf("decode frame %d: %v", len(out), err)
		}
		out = append(out, plain(f))
	}
}

// TestFrameRoundTripIdentity is the transport's core property:
// encode∘decode is the identity on batched message vectors — markers,
// EOS notices, send stamps and mixed key/value types included — over
// a single persistent connection whose frames vary in size.
func TestFrameRoundTripIdentity(t *testing.T) {
	var frames []Frame
	// Frame shapes: empty vector, single event, a marker-terminated
	// batch, a large batch, and derived pseudo-random vectors.
	frames = append(frames,
		Frame{Dest: 0},
		Frame{Dest: 3, Msgs: []WireMessage{{Ch: 1, Ev: WireEvent{Key: stream.Unit{}, Value: int64(42)}}}},
		Frame{Dest: 7, Msgs: []WireMessage{
			{Ch: 0, Sent: 5, Ev: WireEvent{Key: int64(1), Value: "x"}},
			{Ch: 0, Sent: 6, Ev: WireEvent{IsMarker: true, Seq: 9, Ts: 10000}},
		}},
		Frame{Dest: 2, Msgs: []WireMessage{{Ch: 4, EOS: true}}},
	)
	big := Frame{Dest: 11}
	for i := 0; i < 500; i++ {
		big.Msgs = append(big.Msgs, WireMessage{Ch: int32(i % 5), Ev: WireEvent{Key: int64(i), Value: int64(i * i)}})
	}
	frames = append(frames, big)
	seed := []byte("the quick brown fox jumps over the lazy dog 0123456789")
	frames = append(frames, Frame{Dest: 1, Msgs: mkMsgs(seed)})

	got := decodeFrames(t, encodeFrames(t, frames))
	if len(got) != len(frames) {
		t.Fatalf("decoded %d frames, want %d", len(got), len(frames))
	}
	for i := range frames {
		want := frames[i]
		if len(want.Msgs) == 0 {
			want.Msgs = got[i].Msgs // the wire does not distinguish nil from empty
		}
		if !reflect.DeepEqual(got[i], want) {
			t.Fatalf("frame %d mismatch:\n got %+v\nwant %+v", i, got[i], frames[i])
		}
	}
}

// TestWireEventConversion checks the stream.Event ↔ WireEvent mapping
// both ways for items and markers.
func TestWireEventConversion(t *testing.T) {
	cases := []stream.Event{
		stream.Item(int64(7), "v"),
		stream.Item(stream.Unit{}, int64(-1)),
		stream.Mark(stream.Marker{Seq: 3, Timestamp: 4000}),
	}
	for _, e := range cases {
		if got := FromEvent(e).Event(); !reflect.DeepEqual(got, e) {
			t.Fatalf("round trip of %v gave %v", e, got)
		}
	}
}

func TestFrameDecoderShortFrame(t *testing.T) {
	b := encodeFrames(t, []Frame{{Dest: 1, Msgs: mkMsgs([]byte("abcdefgh"))}})
	for _, cut := range []int{1, 3, 5, len(b) / 2, len(b) - 1} {
		dec := NewFrameDecoder(bytes.NewReader(b[:cut]))
		var f Frame
		if err := dec.Decode(&f); !errors.Is(err, ErrShortFrame) {
			t.Fatalf("truncation at %d: got %v, want ErrShortFrame", cut, err)
		}
	}
}

func TestFrameDecoderOversizedLength(t *testing.T) {
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], uint32(MaxFrameBytes+1))
	dec := NewFrameDecoder(bytes.NewReader(hdr[:]))
	var f Frame
	if err := dec.Decode(&f); !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("got %v, want ErrFrameTooLarge", err)
	}
	// The claimed 16MB must not have been allocated: the scratch buffer
	// only grows with received bytes.
	if cap(dec.payload) > 1<<20 {
		t.Fatalf("oversized header caused a %d-byte allocation", cap(dec.payload))
	}
}

func TestFrameDecoderTrailingBytes(t *testing.T) {
	b := encodeFrames(t, []Frame{{Dest: 1, Msgs: mkMsgs([]byte("abcdefgh"))}})
	n := binary.BigEndian.Uint32(b[:4])
	junk := append(append([]byte(nil), b...), 0xde, 0xad, 0xbe)
	binary.BigEndian.PutUint32(junk[:4], n+3)
	dec := NewFrameDecoder(bytes.NewReader(junk))
	var f Frame
	if err := dec.Decode(&f); !errors.Is(err, ErrTrailingBytes) {
		t.Fatalf("got %v, want ErrTrailingBytes", err)
	}
}

// unregisteredValue is deliberately never passed to Register.
type unregisteredValue struct{ X int }

func TestEncodeUnregisteredTypeIsTyped(t *testing.T) {
	c := New()
	if _, err := c.Encode(stream.Item(stream.Unit{}, unregisteredValue{X: 1})); !errors.Is(err, ErrUnregisteredType) {
		t.Fatalf("Codec.Encode: got %v, want ErrUnregisteredType", err)
	}
	var buf bytes.Buffer
	enc := NewFrameEncoder(&buf)
	f := Frame{Msgs: []WireMessage{{Ev: WireEvent{Key: stream.Unit{}, Value: unregisteredValue{X: 2}}}}}
	if err := enc.Encode(&f); !errors.Is(err, ErrUnregisteredType) {
		t.Fatalf("FrameEncoder.Encode: got %v, want ErrUnregisteredType", err)
	}
	if buf.Len() != 0 {
		t.Fatalf("failed encode leaked %d bytes into the stream", buf.Len())
	}
	// The connection stays usable for registered types after the
	// classified failure.
	ok := Frame{Msgs: []WireMessage{{Ev: WireEvent{Key: int64(1), Value: int64(2)}}}}
	if err := enc.Encode(&ok); err != nil {
		t.Fatalf("encoder unusable after unregistered-type error: %v", err)
	}
	got := decodeFrames(t, buf.Bytes())
	if len(got) != 1 || !reflect.DeepEqual(got[0], ok) {
		t.Fatalf("post-error frame did not round-trip: %+v", got)
	}
}

// decodeSideA is registered under its wire name, "codec.decodeSideA";
// the test patches that name in the encoded bytes, producing a stream
// that names a type the decode side has never registered — the
// cross-process shape of the error (sender and receiver binaries
// disagreeing on registrations), reproduced in one process where the
// registry is global.
type decodeSideA struct{ N int64 }

func (d decodeSideA) AppendBinary(b []byte) ([]byte, error) {
	return binary.LittleEndian.AppendUint64(b, uint64(d.N)), nil
}

func (d *decodeSideA) UnmarshalWire(b []byte) error {
	if len(b) != 8 {
		return errors.New("decodeSideA: want 8 bytes")
	}
	d.N = int64(binary.LittleEndian.Uint64(b))
	return nil
}

func TestDecodeUnregisteredTypeIsTyped(t *testing.T) {
	Register(decodeSideA{})
	c := New()
	b, err := c.Encode(stream.Item(stream.Unit{}, decodeSideA{N: 5}))
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	patched := bytes.ReplaceAll(b, []byte("codec.decodeSideA"), []byte("codec.decodeSideZ"))
	if bytes.Equal(patched, b) {
		t.Fatal("type name not found in encoded stream; patching failed")
	}
	if _, err := c.Decode(patched); !errors.Is(err, ErrUnregisteredType) {
		t.Fatalf("Codec.Decode: got %v, want ErrUnregisteredType", err)
	}
}

// FuzzWireFrame fuzzes the framing from both ends: (1) structured —
// a message vector derived from the input must survive encode∘decode
// bit-exactly, split across several frames of one connection; (2) raw
// — the input bytes themselves are fed to a decoder, which must
// reject garbage with an error (typed for oversized lengths and
// truncations) and never panic or over-allocate.
func FuzzWireFrame(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 0})
	f.Add([]byte("item marker eos mixed 0123456789 payload"))
	// A valid two-frame stream as a seed, so mutation explores near the
	// real wire format.
	var buf bytes.Buffer
	enc := NewFrameEncoder(&buf)
	seed := mkMsgs([]byte("seed corpus frame one"))
	_ = enc.Encode(&Frame{Dest: 1, Msgs: seed})
	_ = enc.Encode(&Frame{Dest: 2, Msgs: mkMsgs([]byte("and frame two right behind"))})
	f.Add(buf.Bytes())
	// Its truncations, hitting the header and payload boundaries.
	for _, cut := range []int{1, 3, 4, 7, buf.Len() - 2} {
		if cut > 0 && cut < buf.Len() {
			f.Add(append([]byte(nil), buf.Bytes()[:cut]...))
		}
	}
	// An oversized length prefix.
	huge := make([]byte, 8)
	binary.BigEndian.PutUint32(huge, 1<<31)
	f.Add(huge)

	f.Fuzz(func(t *testing.T, data []byte) {
		// Structured: derive, encode across three frames, decode, compare.
		msgs := mkMsgs(data)
		var frames []Frame
		for i := 0; i < len(msgs) || i == 0; i += 7 {
			end := i + 7
			if end > len(msgs) {
				end = len(msgs)
			}
			frames = append(frames, Frame{Dest: int32(i), Msgs: msgs[i:end]})
		}
		var wire bytes.Buffer
		enc := NewFrameEncoder(&wire)
		for i := range frames {
			if err := enc.Encode(&frames[i]); err != nil {
				t.Fatalf("encode: %v", err)
			}
		}
		dec := NewFrameDecoder(bytes.NewReader(wire.Bytes()))
		for i := range frames {
			var f Frame
			if err := dec.Decode(&f); err != nil {
				t.Fatalf("decode frame %d: %v", i, err)
			}
			got, want := plain(f), frames[i]
			if len(want.Msgs) == 0 {
				want.Msgs = got.Msgs
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("frame %d: got %+v want %+v", i, got, want)
			}
		}
		var extra Frame
		if err := dec.Decode(&extra); err != io.EOF {
			t.Fatalf("stream not exhausted: %v", err)
		}

		// Raw: the input itself is a (usually malformed) stream; the
		// decoder must fail cleanly, not panic, and not trust the header
		// for allocations.
		raw := NewFrameDecoder(bytes.NewReader(data))
		for i := 0; i < 64; i++ {
			var f Frame
			err := raw.Decode(&f)
			if err == io.EOF {
				break
			}
			if err != nil {
				if errors.Is(err, ErrFrameTooLarge) && cap(raw.payload) > len(data)+(64<<10) {
					t.Fatalf("oversized header trusted for allocation: %d", cap(raw.payload))
				}
				break
			}
		}
	})
}
