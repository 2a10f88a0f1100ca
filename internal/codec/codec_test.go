package codec_test

import (
	"math/rand"
	"sync/atomic"
	"testing"
	"testing/quick"

	"datatrace/internal/codec"
	"datatrace/internal/storm"
	"datatrace/internal/stream"
	"datatrace/internal/workload"
)

func init() {
	codec.Register(workload.YahooEvent{})
	codec.Register(workload.PlugMeasurement{})
	codec.Register(stream.Unit{})
	codec.Register(int(0))
	codec.Register(int64(0))
	codec.Register(float64(0))
	codec.Register("")
}

func TestRoundTripBasics(t *testing.T) {
	c := codec.New()
	cases := []stream.Event{
		stream.Item(int64(3), "hello"),
		stream.Item("key", 3.5),
		stream.Item(stream.Unit{}, workload.YahooEvent{UserID: 1, AdID: 2, Type: workload.Click, EventTime: 99}),
		stream.Mark(stream.Marker{Seq: 7, Timestamp: 8000}),
	}
	for _, e := range cases {
		b, err := c.Encode(e)
		if err != nil {
			t.Fatalf("encode %s: %v", e, err)
		}
		got, err := c.Decode(b)
		if err != nil {
			t.Fatalf("decode %s: %v", e, err)
		}
		if got.String() != e.String() {
			t.Fatalf("round trip changed %s into %s", e, got)
		}
	}
}

func TestRoundTripProperty(t *testing.T) {
	c := codec.New()
	cfg := &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(91))}
	f := func(key int64, value float64, marker bool, seq int64, ts int64) bool {
		var e stream.Event
		if marker {
			e = stream.Mark(stream.Marker{Seq: seq, Timestamp: ts})
		} else {
			e = stream.Item(key, value)
		}
		b, err := c.Encode(e)
		if err != nil {
			return false
		}
		got, err := c.Decode(b)
		return err == nil && got == e
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func TestDecodeGarbageFails(t *testing.T) {
	c := codec.New()
	if _, err := c.Decode([]byte("not gob")); err == nil {
		t.Fatal("garbage must not decode")
	}
}

func TestUnregisteredTypeFailsLoudly(t *testing.T) {
	type secret struct{ X int }
	c := codec.New()
	if _, err := c.Encode(stream.Item(int64(1), secret{X: 1})); err == nil {
		t.Fatal("unregistered concrete type must fail to encode")
	}
}

// TestSerializedTopologyPreservesTrace runs a parallel pipeline with
// every connection serialized and checks the trace is unchanged — the
// runtime analogue of Storm's Kryo boundary.
func TestSerializedTopologyPreservesTrace(t *testing.T) {
	var in []stream.Event
	for b := 0; b < 3; b++ {
		for i := 0; i < 15; i++ {
			in = append(in, stream.Item(int64(i%4), float64(i)))
		}
		in = append(in, stream.Mark(stream.Marker{Seq: int64(b), Timestamp: int64(b + 1)}))
	}
	build := func(serialize bool) (*storm.Result, error) {
		top := storm.NewTopology("wire")
		if serialize {
			top.SetSerializer(func() storm.Serializer { return codec.NewConn() })
		}
		top.AddSpout("src", 1, func(int) storm.Spout { return storm.SliceSpout(in) })
		top.AddBolt("scale", 3, func(int) storm.Bolt {
			return storm.BoltFunc(func(e stream.Event, emit func(stream.Event)) {
				if e.IsMarker {
					emit(e)
					return
				}
				emit(stream.Item(e.Key, e.Value.(float64)*2))
			})
		}).FieldsGrouping("src", true)
		top.AddSink("sink", "scale")
		return top.Run()
	}
	plain, err := build(false)
	if err != nil {
		t.Fatal(err)
	}
	wired, err := build(true)
	if err != nil {
		t.Fatal(err)
	}
	if !stream.Equivalent(stream.U("Int64", "Float"), plain.Sinks["sink"], wired.Sinks["sink"]) {
		t.Fatal("serialization changed the output trace")
	}
}

// TestSerializationFailureSurfacesAsError: an unserializable value in
// a serialized topology fails the run instead of hanging it.
func TestSerializationFailureSurfacesAsError(t *testing.T) {
	type hidden struct{ F func() } // functions cannot be encoded
	in := []stream.Event{stream.Item(int64(1), hidden{})}
	top := storm.NewTopology("bad")
	top.SetSerializer(func() storm.Serializer { return codec.NewConn() })
	top.AddSpout("src", 1, func(int) storm.Spout { return storm.SliceSpout(in) })
	top.AddBolt("id", 1, func(int) storm.Bolt {
		return storm.BoltFunc(func(e stream.Event, emit func(stream.Event)) { emit(e) })
	}).ShuffleGrouping("src", true)
	top.AddSink("sink", "id")
	_, err := top.Run()
	if err == nil {
		t.Fatal("unserializable tuple must fail the topology")
	}
}

// countingSerializer wraps a Conn and counts round trips (atomically:
// each producer executor gets its own serializer, but they share the
// counter).
type countingSerializer struct {
	conn *codec.Conn
	n    *atomic.Int64
}

func (c countingSerializer) RoundTrip(e stream.Event) (stream.Event, error) {
	c.n.Add(1)
	return c.conn.RoundTrip(e)
}

// TestWorkerPlacementSkipsLocalHops: with all executors on one
// worker, no send pays the wire format; with two workers, some do —
// and the trace is preserved either way.
func TestWorkerPlacementSkipsLocalHops(t *testing.T) {
	var in []stream.Event
	for b := 0; b < 2; b++ {
		for i := 0; i < 10; i++ {
			in = append(in, stream.Item(int64(i%3), float64(i)))
		}
		in = append(in, stream.Mark(stream.Marker{Seq: int64(b), Timestamp: int64(b + 1)}))
	}
	run := func(workers int) (int64, []stream.Event) {
		var count atomic.Int64
		top := storm.NewTopology("placed")
		top.SetSerializer(func() storm.Serializer {
			return countingSerializer{conn: codec.NewConn(), n: &count}
		})
		top.SetWorkers(workers)
		top.AddSpout("src", 1, func(int) storm.Spout { return storm.SliceSpout(in) })
		top.AddBolt("id", 2, func(int) storm.Bolt {
			return storm.BoltFunc(func(e stream.Event, emit func(stream.Event)) { emit(e) })
		}).ShuffleGrouping("src", true)
		top.AddSink("sink", "id")
		res, err := top.Run()
		if err != nil {
			t.Fatal(err)
		}
		return count.Load(), res.Sinks["sink"]
	}
	oneWorker, outOne := run(1)
	if oneWorker != 0 {
		t.Fatalf("single-worker placement paid %d round trips, want 0", oneWorker)
	}
	twoWorkers, outTwo := run(2)
	if twoWorkers == 0 {
		t.Fatal("two-worker placement paid no round trips")
	}
	if !stream.Equivalent(stream.U("Int64", "Float"), outOne, outTwo) {
		t.Fatal("placement changed the output trace")
	}
}
