package workload

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"
)

// Binary wire forms of the generated event types (AppendBinary /
// UnmarshalWire, see stream.WireUnmarshaler), so the frame codec moves
// them with no reflection.
//
// A YahooEvent packs its four integers: a two-byte header of 4-bit
// byte widths, Type, then the zigzag-encoded UserID, PageID, AdID and
// EventTime, each little-endian in its width. Ids and millisecond
// times take 1–5 bytes instead of 8, so an event is about 11 bytes
// where fixed-width fields take 33. On Query IV's source edge that
// trades about 25 ns/event more encode plus decode CPU in a hot loop
// for a third of the bytes, which the codec probe's encode time tracks.

// AppendBinary implements encoding.BinaryAppender.
func (e YahooEvent) AppendBinary(b []byte) ([]byte, error) {
	u0, u1, u2, u3 := zigzag(e.UserID), zigzag(e.PageID), zigzag(e.AdID), zigzag(e.EventTime)
	w0, w1, w2, w3 := width(u0), width(u1), width(u2), width(u3)
	b = append(b, byte(w0|w1<<4), byte(w2|w3<<4), byte(e.Type))
	b = appendWidth(b, u0, w0)
	b = appendWidth(b, u1, w1)
	b = appendWidth(b, u2, w2)
	return appendWidth(b, u3, w3), nil
}

// UnmarshalWire implements stream.WireUnmarshaler.
func (e *YahooEvent) UnmarshalWire(b []byte) error {
	if len(b) < 3 {
		return fmt.Errorf("workload: YahooEvent wire form of %d bytes", len(b))
	}
	w0, w1, w2, w3 := int(b[0]&15), int(b[0]>>4), int(b[1]&15), int(b[1]>>4)
	if max(w0, w1, w2, w3) > 8 || len(b) != 3+w0+w1+w2+w3 {
		return fmt.Errorf("workload: YahooEvent header does not match its %d bytes", len(b))
	}
	e.Type = EventType(b[2])
	p := 3
	e.UserID = unzigzag(readWidth(b, p, w0))
	p += w0
	e.PageID = unzigzag(readWidth(b, p, w1))
	p += w1
	e.AdID = unzigzag(readWidth(b, p, w2))
	p += w2
	e.EventTime = unzigzag(readWidth(b, p, w3))
	return nil
}

func zigzag(v int64) uint64   { return uint64(v<<1) ^ uint64(v>>63) }
func unzigzag(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }
func width(u uint64) int      { return (bits.Len64(u) + 7) / 8 }

func appendWidth(b []byte, u uint64, w int) []byte {
	n := len(b)
	return binary.LittleEndian.AppendUint64(b, u)[:n+w]
}

// readWidth reads the w-byte little-endian integer at b[p:]. Where b's
// capacity reaches 8 bytes past p it loads 8 and masks; bytes past
// len(b) are never interpreted.
func readWidth(b []byte, p, w int) uint64 {
	if cap(b)-p >= 8 {
		return binary.LittleEndian.Uint64(b[p:p+8]) & (1<<(8*w) - 1)
	}
	var x uint64
	for i := p + w - 1; i >= p; i-- {
		x = x<<8 | uint64(b[i])
	}
	return x
}

// plugMeasurementWireSize is the length of a PlugMeasurement's binary
// form.
const plugMeasurementWireSize = 5 * 8

// AppendBinary implements encoding.BinaryAppender.
func (m PlugMeasurement) AppendBinary(b []byte) ([]byte, error) {
	b = binary.LittleEndian.AppendUint64(b, uint64(m.Timestamp))
	b = binary.LittleEndian.AppendUint64(b, math.Float64bits(m.Value))
	b = binary.LittleEndian.AppendUint64(b, uint64(m.Key.Building))
	b = binary.LittleEndian.AppendUint64(b, uint64(m.Key.Unit))
	return binary.LittleEndian.AppendUint64(b, uint64(m.Key.Plug)), nil
}

// UnmarshalWire implements stream.WireUnmarshaler.
func (m *PlugMeasurement) UnmarshalWire(b []byte) error {
	if len(b) != plugMeasurementWireSize {
		return wireSizeError("PlugMeasurement", plugMeasurementWireSize, len(b))
	}
	m.Timestamp = int64(binary.LittleEndian.Uint64(b))
	m.Value = math.Float64frombits(binary.LittleEndian.Uint64(b[8:]))
	m.Key.Building = int(int64(binary.LittleEndian.Uint64(b[16:])))
	m.Key.Unit = int(int64(binary.LittleEndian.Uint64(b[24:])))
	m.Key.Plug = int(int64(binary.LittleEndian.Uint64(b[32:])))
	return nil
}

func wireSizeError(typ string, want, got int) error {
	return fmt.Errorf("workload: %s wire form is %d bytes, got %d", typ, want, got)
}
