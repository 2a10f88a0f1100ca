// Package codec serializes stream events, modelling the
// tuple-serialization boundary a real distributed deployment has on
// every inter-worker connection (the paper's §2 pipeline exists
// precisely because deserialization is the expensive stage worth
// parallelizing). The storm runtime can be configured to encode and
// decode every routed event (Topology.SetSerializer), which both
// charges a realistic per-hop cost and enforces that all keys and
// values are actually serializable — as Apache Storm's Kryo boundary
// does.
//
// One binary codec serves every boundary: the TCP frames of the
// networked runtime (frame.go), the in-process Conn, the one-shot
// Codec and the sink output workers stream to their coordinator.
// Column batches are written by the typed per-kind code of
// stream.ColKind; boxed keys and values by the code of their
// registered type (Register), named once per connection and
// referenced by a small index after that (wire.go).
package codec

import (
	"encoding/binary"
	"fmt"
	"sync"

	"datatrace/internal/stream"
)

// Codec encodes and decodes events one at a time, each encoding self-
// contained (see Conn for the amortized form). Safe for concurrent use.
type Codec struct{}

// New creates a codec.
func New() *Codec { return &Codec{} }

// Encode serializes one event. An unregistered key or value type is
// reported as ErrUnregisteredType.
func (c *Codec) Encode(e stream.Event) ([]byte, error) {
	w := FromEvent(e)
	return newEncoder().appendEvent(nil, &w)
}

// Decode deserializes one event produced by Encode. An event whose
// concrete key or value type is not registered on this side is
// reported as ErrUnregisteredType, so transports can degrade per the
// drop-and-log policy instead of treating it as stream corruption.
func (c *Codec) Decode(b []byte) (stream.Event, error) {
	var w WireEvent
	var dec decoder
	rest, err := dec.readEvent(b, &w)
	if err != nil {
		return stream.Event{}, fmt.Errorf("codec: decode: %w", err)
	}
	if len(rest) != 0 {
		return stream.Event{}, fmt.Errorf("%w: %d of %d bytes unconsumed", ErrTrailingBytes, len(rest), len(b))
	}
	return w.Event(), nil
}

// AppendEvents appends the self-contained encoding of evs to b: their
// count, then each event, with every type named at its first use.
func (c *Codec) AppendEvents(b []byte, evs []stream.Event) ([]byte, error) {
	enc := newEncoder()
	b = binary.AppendUvarint(b, uint64(len(evs)))
	for i := range evs {
		w := FromEvent(evs[i])
		var err error
		if b, err = enc.appendEvent(b, &w); err != nil {
			return nil, err
		}
	}
	return b, nil
}

// DecodeEvents decodes an AppendEvents payload, appending the events
// to out.
func (c *Codec) DecodeEvents(b []byte, out []stream.Event) ([]stream.Event, error) {
	dec := &decoder{}
	n, b, err := readCount(b, minEventBytes)
	if err != nil {
		return out, err
	}
	for ; n > 0; n-- {
		var w WireEvent
		if b, err = dec.readEvent(b, &w); err != nil {
			return out, err
		}
		out = append(out, w.Event())
	}
	if len(b) != 0 {
		return out, fmt.Errorf("%w: %d bytes after the events", ErrTrailingBytes, len(b))
	}
	return out, nil
}

// Conn is a long-lived encode/decode pair for one logical connection:
// each type is named once per Conn and referenced by index after
// that, as on a TCP connection between workers.
type Conn struct {
	mu  sync.Mutex
	buf []byte
	enc *encoder
	dec *decoder
}

// NewConn creates a connected encoder/decoder pair (loopback).
func NewConn() *Conn { return &Conn{enc: newEncoder(), dec: &decoder{}} }

// RoundTrip encodes the event into the connection and decodes it back
// — the cost one serialized hop pays.
func (c *Conn) RoundTrip(e stream.Event) (stream.Event, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	w := FromEvent(e)
	b, err := c.enc.appendEvent(c.buf[:0], &w)
	if err != nil {
		c.enc.rollback()
		return stream.Event{}, fmt.Errorf("codec: conn encode %s: %w", e, err)
	}
	c.enc.commit()
	c.buf = b
	var got WireEvent
	if _, err := c.dec.readEvent(b, &got); err != nil {
		return stream.Event{}, fmt.Errorf("codec: conn decode: %w", err)
	}
	return got.Event(), nil
}
