package queries

import (
	"encoding/binary"
	"fmt"
	"math"
)

// Binary wire forms of the types the queries put on edges
// (AppendBinary / UnmarshalWire, see stream.WireUnmarshaler):
// fixed-width little-endian fields, an embedded YahooEvent last, so
// the frame codec moves them with no reflection.

const (
	featuresWireSize       = 4 * 8
	userFeaturesWireSize   = 8 + featuresWireSize
	clusterSummaryWireSize = 3 * 8
)

func appendI64(b []byte, v int64) []byte { return binary.LittleEndian.AppendUint64(b, uint64(v)) }
func appendF64(b []byte, v float64) []byte {
	return binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
}
func i64At(b []byte, off int) int64 { return int64(binary.LittleEndian.Uint64(b[off:])) }
func f64At(b []byte, off int) float64 {
	return math.Float64frombits(binary.LittleEndian.Uint64(b[off:]))
}

func checkWireSize(typ string, want int, b []byte) error {
	if len(b) != want {
		return fmt.Errorf("queries: %s wire form is %d bytes, got %d", typ, want, len(b))
	}
	return nil
}

// AppendBinary implements encoding.BinaryAppender.
func (e Enriched) AppendBinary(b []byte) ([]byte, error) {
	return e.Ev.AppendBinary(appendI64(b, e.Campaign))
}

// UnmarshalWire implements stream.WireUnmarshaler.
func (e *Enriched) UnmarshalWire(b []byte) error {
	if len(b) < 8 {
		return checkWireSize("Enriched", 8, b)
	}
	e.Campaign = i64At(b, 0)
	return e.Ev.UnmarshalWire(b[8:])
}

// AppendBinary implements encoding.BinaryAppender.
func (l Located) AppendBinary(b []byte) ([]byte, error) {
	return l.Ev.AppendBinary(appendI64(b, l.Location))
}

// UnmarshalWire implements stream.WireUnmarshaler.
func (l *Located) UnmarshalWire(b []byte) error {
	if len(b) < 8 {
		return checkWireSize("Located", 8, b)
	}
	l.Location = i64At(b, 0)
	return l.Ev.UnmarshalWire(b[8:])
}

// AppendBinary implements encoding.BinaryAppender.
func (f Features) AppendBinary(b []byte) ([]byte, error) {
	b = appendF64(b, f.Views)
	b = appendF64(b, f.Clicks)
	b = appendF64(b, f.Purchases)
	return appendI64(b, f.Location), nil
}

// UnmarshalWire implements stream.WireUnmarshaler.
func (f *Features) UnmarshalWire(b []byte) error {
	if err := checkWireSize("Features", featuresWireSize, b); err != nil {
		return err
	}
	f.Views, f.Clicks, f.Purchases, f.Location = f64At(b, 0), f64At(b, 8), f64At(b, 16), i64At(b, 24)
	return nil
}

// AppendBinary implements encoding.BinaryAppender.
func (u UserFeatures) AppendBinary(b []byte) ([]byte, error) {
	return u.F.AppendBinary(appendI64(b, u.User))
}

// UnmarshalWire implements stream.WireUnmarshaler.
func (u *UserFeatures) UnmarshalWire(b []byte) error {
	if err := checkWireSize("UserFeatures", userFeaturesWireSize, b); err != nil {
		return err
	}
	u.User = i64At(b, 0)
	return u.F.UnmarshalWire(b[8:])
}

// AppendBinary implements encoding.BinaryAppender.
func (c ClusterSummary) AppendBinary(b []byte) ([]byte, error) {
	b = appendI64(b, int64(c.K))
	b = appendI64(b, int64(c.Size))
	return appendF64(b, c.Inertia), nil
}

// UnmarshalWire implements stream.WireUnmarshaler.
func (c *ClusterSummary) UnmarshalWire(b []byte) error {
	if err := checkWireSize("ClusterSummary", clusterSummaryWireSize, b); err != nil {
		return err
	}
	c.K, c.Size, c.Inertia = int(i64At(b, 0)), int(i64At(b, 8)), f64At(b, 16)
	return nil
}

// AppendBinary implements encoding.BinaryAppender: the uvarint entry
// count plus one (0 for a nil map), then the entries in map order.
func (m UserFeatureMap) AppendBinary(b []byte) ([]byte, error) {
	if m == nil {
		return append(b, 0), nil
	}
	b = binary.AppendUvarint(b, uint64(len(m))+1)
	for u, f := range m {
		b, _ = UserFeatures{User: u, F: f}.AppendBinary(b)
	}
	return b, nil
}

// UnmarshalWire implements stream.WireUnmarshaler. It always
// builds a fresh map: the map it replaces may be shared (a decoder
// recycles pooled column rows whose old values operators kept).
func (m *UserFeatureMap) UnmarshalWire(b []byte) error {
	n, k := binary.Uvarint(b)
	if k <= 0 || n > uint64(len(b)-k)/userFeaturesWireSize+1 {
		return fmt.Errorf("queries: UserFeatureMap entry count does not fit its %d bytes", len(b))
	}
	if err := checkWireSize("UserFeatureMap", k+int(max(n, 1)-1)*userFeaturesWireSize, b); err != nil {
		return err
	}
	if n == 0 {
		*m = nil
		return nil
	}
	out := make(UserFeatureMap, n-1)
	for b = b[k:]; len(b) > 0; b = b[userFeaturesWireSize:] {
		var uf UserFeatures
		if err := uf.UnmarshalWire(b[:userFeaturesWireSize]); err != nil {
			return err
		}
		out[uf.User] = uf.F
	}
	if uint64(len(out)) != n-1 {
		return fmt.Errorf("queries: UserFeatureMap repeats a user")
	}
	*m = out
	return nil
}
