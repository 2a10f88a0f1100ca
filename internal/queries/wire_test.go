package queries

import (
	"bytes"
	"encoding/gob"
	"math"
	"reflect"
	"strings"
	"testing"

	"datatrace/internal/codec"
	"datatrace/internal/stream"
	"datatrace/internal/workload"
)

// bitEqual is reflect.DeepEqual with floats compared by their bits,
// so NaN equals itself and -0 differs from +0.
func bitEqual(a, b reflect.Value) bool {
	if a.Type() != b.Type() {
		return false
	}
	switch a.Kind() {
	case reflect.Float32, reflect.Float64:
		return math.Float64bits(a.Float()) == math.Float64bits(b.Float())
	case reflect.Struct:
		for i := range a.NumField() {
			if !bitEqual(a.Field(i), b.Field(i)) {
				return false
			}
		}
		return true
	case reflect.Map:
		if a.IsNil() != b.IsNil() || a.Len() != b.Len() {
			return false
		}
		for _, k := range a.MapKeys() {
			if v := b.MapIndex(k); !v.IsValid() || !bitEqual(a.MapIndex(k), v) {
				return false
			}
		}
		return true
	}
	return reflect.DeepEqual(a.Interface(), b.Interface())
}

// wireRoundTrip checks that encode then decode is the identity on vals
// as a column batch (vals as both columns of a [T,T] kind) over a frame
// connection and boxed as an item's key and value through the one-shot
// codec, and that gob still takes each value.
func wireRoundTrip[T any](t *testing.T, vals ...T) {
	t.Helper()
	name := reflect.TypeFor[T]().String()
	same := func(a, b T) bool { return bitEqual(reflect.ValueOf(a), reflect.ValueOf(b)) }

	kind := stream.ColKindFor[T, T]()
	var buf bytes.Buffer
	frame := codec.Frame{Msgs: []codec.WireMessage{{Cols: &codec.WireCols{Kind: kind.Name(), Keys: vals, Vals: vals}}}}
	if err := codec.NewFrameEncoder(&buf).Encode(&frame); err != nil {
		t.Fatalf("%s: encode columns: %v", name, err)
	}
	var got codec.Frame
	if err := codec.NewFrameDecoder(&buf).Decode(&got); err != nil {
		t.Fatalf("%s: decode columns: %v", name, err)
	}
	cols := got.Msgs[0].Cols.Batch().(*stream.Cols[T, T])
	if len(cols.Keys) != len(vals) || len(cols.Vals) != len(vals) {
		t.Fatalf("%s: %d rows came back as %d keys, %d values", name, len(vals), len(cols.Keys), len(cols.Vals))
	}
	for i, v := range vals {
		if !same(cols.Keys[i], v) || !same(cols.Vals[i], v) {
			t.Fatalf("%s: column row %d: %#v came back as key %#v, value %#v", name, i, v, cols.Keys[i], cols.Vals[i])
		}
	}
	cols.Release()

	c := codec.New()
	for _, v := range vals {
		b, err := c.Encode(stream.Item(v, v))
		if err != nil {
			t.Fatalf("%s: encode boxed %#v: %v", name, v, err)
		}
		e, err := c.Decode(b)
		if err != nil {
			t.Fatalf("%s: decode boxed %#v: %v", name, v, err)
		}
		k, kok := e.Key.(T)
		w, vok := e.Value.(T)
		if !kok || !vok || !same(k, v) || !same(w, v) {
			t.Fatalf("%s: boxed %#v came back as key %#v, value %#v", name, v, e.Key, e.Value)
		}

		// The wire methods must leave gob, which snapshots use, working
		// (gob decodes through an UnmarshalBinary it finds). gob itself
		// drops -0, so only the error is checked.
		var gb bytes.Buffer
		if err := gob.NewEncoder(&gb).Encode(&v); err != nil {
			t.Fatalf("%s: gob encode %#v: %v", name, v, err)
		}
		var g T
		if err := gob.NewDecoder(&gb).Decode(&g); err != nil {
			t.Fatalf("%s: gob decode %#v: %v", name, v, err)
		}
	}
}

// TestWireTypesRoundTrip covers every type RegisterWireTypes registers,
// at the extremes of its fields.
func TestWireTypesRoundTrip(t *testing.T) {
	RegisterWireTypes()
	nan, negZero, inf := math.NaN(), math.Copysign(0, -1), math.Inf(1)
	ev := workload.YahooEvent{UserID: -1, PageID: math.MaxInt64, AdID: math.MinInt64, Type: workload.Purchase, EventTime: -5}
	odd := Features{Views: nan, Clicks: negZero, Purchases: -inf, Location: math.MaxInt64}

	wireRoundTrip(t, stream.Unit{}, stream.Unit{})
	wireRoundTrip(t, 0, -1, math.MaxInt, math.MinInt)
	wireRoundTrip(t, int64(0), -1, math.MaxInt64, math.MinInt64)
	wireRoundTrip(t, 0, negZero, nan, inf, -inf, -1.5, math.MaxFloat64, math.SmallestNonzeroFloat64)
	wireRoundTrip(t, "", "x", "héllo\x00", strings.Repeat("long ", 60))
	wireRoundTrip(t, workload.YahooEvent{}, ev)
	wireRoundTrip(t, Enriched{}, Enriched{Ev: ev, Campaign: math.MinInt64})
	wireRoundTrip(t, Located{}, Located{Ev: ev, Location: -1})
	wireRoundTrip(t, FeaturesID(), Features{}, odd)
	wireRoundTrip(t, UserFeatures{User: math.MinInt64, F: FeaturesID()}, UserFeatures{User: 3, F: odd})
	wireRoundTrip(t, ClusterSummary{}, ClusterSummary{K: -1, Size: math.MaxInt, Inertia: nan})
	big := UserFeatureMap{}
	for u := int64(-5); u < 5; u++ {
		big[u*math.MaxInt32] = Features{Views: float64(u), Location: u}
	}
	wireRoundTrip(t, UserFeatureMap(nil), UserFeatureMap{}, UserFeatureMap{1: FeaturesID(), -7: odd}, big)
}
