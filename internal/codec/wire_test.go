package codec

import (
	"bytes"
	"errors"
	"io"
	"runtime"
	"testing"

	"datatrace/internal/stream"
	"datatrace/internal/workload"
)

// yahooCols is the kind of Query IV's source edge, the hottest wire.
var yahooCols = stream.ColKindFor[stream.Unit, workload.YahooEvent]()

// TestConnAmortizesTypeInfo: a Conn names each type once, so after
// the first event every event is smaller than the first.
func TestConnAmortizesTypeInfo(t *testing.T) {
	conn := NewConn()
	var first int
	for i := 0; i < 100; i++ {
		e := stream.Item(int64(i), float64(i)*1.5)
		got, err := conn.RoundTrip(e)
		if err != nil {
			t.Fatal(err)
		}
		if got != e {
			t.Fatalf("round trip changed %s into %s", e, got)
		}
		if i == 0 {
			first = len(conn.buf)
		} else if len(conn.buf) >= first {
			t.Fatalf("event %d took %d bytes, the first took %d", i, len(conn.buf), first)
		}
	}
}

// noWire has no wire form: it implements neither half of the binary
// pair.
type noWire struct{ X int }

// TestEncodeColumnKindWithoutWireFormIsTyped: a column batch whose
// value type has no wire form fails at Encode with
// ErrUnregisteredType, leaves the stream byte-identical — even though
// the failing frame bound a new type before reaching the batch — and
// the next well-typed frame, which binds that type again, decodes.
func TestEncodeColumnKindWithoutWireFormIsTyped(t *testing.T) {
	bad := stream.ColKindFor[int64, noWire]()
	var buf bytes.Buffer
	enc := NewFrameEncoder(&buf)
	first := Frame{Dest: 1, Msgs: []WireMessage{{Ev: WireEvent{Key: int64(1), Value: int64(2)}}}}
	if err := enc.Encode(&first); err != nil {
		t.Fatal(err)
	}
	before := bytes.Clone(buf.Bytes())
	f := Frame{Dest: 2, Msgs: []WireMessage{
		{Ev: WireEvent{Key: "new", Value: true}},
		{Cols: &WireCols{Kind: bad.Name(), Keys: []int64{1}, Vals: []noWire{{X: 1}}}},
	}}
	if err := enc.Encode(&f); !errors.Is(err, ErrUnregisteredType) {
		t.Fatalf("got %v, want ErrUnregisteredType", err)
	}
	if !bytes.Equal(buf.Bytes(), before) {
		t.Fatalf("failed encode changed the stream: %d bytes, was %d", buf.Len(), len(before))
	}
	next := Frame{Dest: 3, Msgs: []WireMessage{
		{Ev: WireEvent{Key: "new", Value: true}},
		{Cols: &WireCols{Kind: testCols.Name(), Keys: []int64{7}, Vals: []string{"x"}}},
	}}
	if err := enc.Encode(&next); err != nil {
		t.Fatalf("encoder unusable after the typed failure: %v", err)
	}
	got := decodeFrames(t, buf.Bytes())
	if len(got) != 2 || got[1].Dest != 3 || got[1].Msgs[0].Ev.Value != true || got[1].Msgs[1].Cols.Vals.([]string)[0] != "x" {
		t.Fatalf("frames after the failure did not round-trip: %+v", got)
	}
}

// frameBytes frames one payload the way FrameEncoder does.
func frameBytes(payload []byte) []byte {
	n := len(payload)
	return append([]byte{byte(n >> 24), byte(n >> 16), byte(n >> 8), byte(n)}, payload...)
}

// lyingRowsFrame is a frame whose one column batch claims far more
// YahooEvent rows than its payload holds.
func lyingRowsFrame() []byte {
	p := []byte{2, 1, flagCols, 0, 0, 1, byte(len(yahooCols.Name()))}
	p = append(p, yahooCols.Name()...)
	p = append(p, 0x80, 0x80, 0x80, 0x08) // 1<<24 rows
	return frameBytes(append(p, make([]byte, 40)...))
}

// unknownKindFrame names a column kind no process created.
func unknownKindFrame() []byte {
	name := "cols[int64,codec.nowhere]"
	p := append([]byte{2, 1, flagCols, 0, 0, 1, byte(len(name))}, name...)
	return frameBytes(append(p, 0))
}

// TestLyingCountsFailBeforeAllocating: a row count larger than the
// payload can hold fails typed, before the batch or its columns are
// allocated.
func TestLyingCountsFailBeforeAllocating(t *testing.T) {
	cases := []struct {
		name string
		in   []byte
		want error
	}{
		{"rows", lyingRowsFrame(), ErrCorruptFrame},
		{"messages", frameBytes([]byte{2, 0xff, 0xff, 0x03}), ErrCorruptFrame},
		{"kind", unknownKindFrame(), ErrUnregisteredType},
	}
	for _, c := range cases {
		var ms0, ms1 runtime.MemStats
		runtime.ReadMemStats(&ms0)
		var f Frame
		err := NewFrameDecoder(bytes.NewReader(c.in)).Decode(&f)
		runtime.ReadMemStats(&ms1)
		if !errors.Is(err, c.want) {
			t.Fatalf("%s: got %v, want %v", c.name, err, c.want)
		}
		if grew := ms1.TotalAlloc - ms0.TotalAlloc; grew > 16<<10 {
			t.Fatalf("%s: decoding the lying frame allocated %d bytes", c.name, grew)
		}
	}
}

// FuzzFrameDecoderBytes feeds arbitrary bytes to a decoder: every
// Decode must return a frame or one of the package's typed errors,
// never panic, and never size its messages by a count the bytes
// cannot hold.
func FuzzFrameDecoderBytes(f *testing.F) {
	var buf bytes.Buffer
	enc := NewFrameEncoder(&buf)
	_ = enc.Encode(&Frame{Dest: 1, Msgs: mkMsgs([]byte("seed corpus frame one, with columns"))})
	rows := yahooCols.Get()
	for i := range 3 {
		rows.AppendEvent(stream.Item(stream.Unit{}, workload.YahooEvent{UserID: int64(i), AdID: -1, EventTime: 1 << 40}))
	}
	k, v := rows.Slices()
	_ = enc.Encode(&Frame{Dest: 2, Msgs: []WireMessage{{Cols: &WireCols{Kind: yahooCols.Name(), Keys: k, Vals: v}}}})
	rows.Release()
	f.Add(buf.Bytes())
	f.Add(lyingRowsFrame())
	f.Add(unknownKindFrame())
	typed := []error{io.EOF, ErrShortFrame, ErrFrameTooLarge, ErrTrailingBytes, ErrCorruptFrame, ErrUnregisteredType}
	f.Fuzz(func(t *testing.T, data []byte) {
		dec := NewFrameDecoder(bytes.NewReader(data))
		var fr Frame
		for i := 0; i < 64; i++ {
			err := dec.Decode(&fr)
			if err == nil {
				if cap(fr.Msgs) > len(data) {
					t.Fatalf("%d message slots from %d input bytes", cap(fr.Msgs), len(data))
				}
				plain(fr) // releases the decoded batches
				continue
			}
			ok := false
			for _, want := range typed {
				ok = ok || errors.Is(err, want)
			}
			if !ok {
				t.Fatalf("untyped error: %v", err)
			}
			return
		}
	})
}

// BenchmarkFrameCols64 encodes and decodes 64-row column frames of
// Query IV's source edge (unit keys, YahooEvent values) over one
// connection, the networked runtime's hottest wire.
func BenchmarkFrameCols64(b *testing.B) {
	const rows = 64
	src := yahooCols.Get()
	for i := range rows {
		src.AppendEvent(stream.Item(stream.Unit{}, workload.YahooEvent{
			UserID: int64(i * 7919), PageID: int64(i * 104729), AdID: int64(i % 1000),
			Type: workload.EventType(i % 3), EventTime: 1_700_000_000_000 + int64(i),
		}))
	}
	k, v := src.Slices()
	frame := Frame{Msgs: []WireMessage{{Cols: &WireCols{Kind: yahooCols.Name(), Keys: k, Vals: v}}}}
	var buf bytes.Buffer
	enc, dec := NewFrameEncoder(&buf), NewFrameDecoder(&buf)
	var got Frame
	b.ReportAllocs()
	b.ResetTimer()
	for range b.N {
		if err := enc.Encode(&frame); err != nil {
			b.Fatal(err)
		}
		if err := dec.Decode(&got); err != nil {
			b.Fatal(err)
		}
		got.Msgs[0].Cols.Batch().Release()
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*rows), "ns/event")
}
