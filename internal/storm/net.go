package storm

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"sync"

	"datatrace/internal/codec"
)

// This file is the data plane of the networked runtime: the TCP form
// of the vectorSink seam. Each ordered pair of workers that exchange
// traffic shares one directed TCP connection (a netLink); a flushed
// message vector crossing a worker boundary is serialized into one
// length-prefixed frame (codec.Frame) addressed to the destination
// executor's global index and written synchronously, so TCP's flow
// control is the backpressure, standing in for the in-process
// transport's bounded channel. Per-(sender,channel) FIFO order is
// preserved: one directed connection per worker pair, frames written
// atomically under the link lock, and the receiving dispatcher
// delivers frames in stream order.
//
// Failure model: a link write error poisons the link; every executor
// that subsequently flushes into it panics, which the guard converts
// into executor failure and — via the worker's Done report — into a
// cluster-level attempt failure the coordinator recovers from by
// restarting all workers (see netcoord.go). The one typed exception
// is codec.ErrUnregisteredType: it is detected before any bytes reach
// the stream, leaves the link healthy, and fails only the emitting
// executor, which may then degrade per the drop-and-log policy.

// toWireMsgs converts one transport vector into frame messages,
// reusing scratch. A column batch ships as its kind's name and its two
// typed column slices, which the kind's typed code writes row by row —
// no per-row boxing on the wire.
func toWireMsgs(msgs []message, scratch []codec.WireMessage) []codec.WireMessage {
	scratch = scratch[:0]
	for i := range msgs {
		m := &msgs[i]
		w := codec.WireMessage{Ch: int32(m.ch), EOS: m.eos, Sent: m.sent}
		if m.cols != nil {
			keys, vals := m.cols.Slices()
			w.Cols = &codec.WireCols{Kind: m.cols.Kind().Name(), Keys: keys, Vals: vals}
		} else {
			w.Ev = codec.FromEvent(m.ev)
		}
		scratch = append(scratch, w)
	}
	return scratch
}

// frameToBatch converts a received frame's messages into a pooled
// transport vector, ready for an inbox channel. A column message's
// batch was decoded straight into a pooled batch of its kind; the
// vector takes ownership of it.
func frameToBatch(ws []codec.WireMessage) *[]message {
	bp := getBatch()
	b := (*bp)[:0]
	for i := range ws {
		w := &ws[i]
		if w.Cols != nil {
			b = append(b, message{ch: int(w.Ch), sent: w.Sent, cols: w.Cols.Batch()})
			continue
		}
		b = append(b, message{ch: int(w.Ch), eos: w.EOS, sent: w.Sent, ev: w.Ev.Event()})
	}
	*bp = b
	return bp
}

// netLink is one directed data connection to a peer worker. send is
// called by every local executor that has a destination on the peer,
// so the link serializes writers; the per-connection frame encoder
// names each type and column kind once across the link's lifetime.
type netLink struct {
	mu      sync.Mutex
	conn    net.Conn
	bw      *bufio.Writer
	enc     *codec.FrameEncoder
	scratch []codec.WireMessage
	err     error
}

// dialLink connects to a peer's data address and identifies this
// worker with a fixed-size preamble.
func dialLink(addr string, self int) (*netLink, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], uint32(self))
	if _, err := conn.Write(hdr[:]); err != nil {
		conn.Close()
		return nil, err
	}
	bw := bufio.NewWriter(conn)
	return &netLink{conn: conn, bw: bw, enc: codec.NewFrameEncoder(bw)}, nil
}

// send frames one vector for the destination executor and writes it
// out. The write is synchronous: a slow or congested peer blocks the
// sender here, which is the networked form of inbox backpressure.
func (l *netLink) send(dest int, msgs []message) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.err != nil {
		return l.err
	}
	l.scratch = toWireMsgs(msgs, l.scratch)
	f := codec.Frame{Dest: int32(dest), Msgs: l.scratch}
	if err := l.enc.Encode(&f); err != nil {
		if !errors.Is(err, codec.ErrUnregisteredType) {
			l.err = err
		}
		return err
	}
	if err := l.bw.Flush(); err != nil {
		l.err = err
		return err
	}
	return nil
}

func (l *netLink) close() {
	l.conn.Close()
}

// netSink is the vectorSink of a remote destination: it serializes
// the vector onto the destination worker's link and recycles the box
// (nothing downstream in this process will consume it). A send error
// panics in the calling executor, whose guard applies the configured
// degradation or failure policy.
type netSink struct {
	link *netLink
	dest int
}

func (s netSink) deliver(b *[]message) {
	err := s.link.send(s.dest, *b)
	// Column batches are released only after send returns: the frame
	// encoder reads their slices during Encode, inside send's lock.
	for i := range *b {
		if c := (*b)[i].cols; c != nil {
			(*b)[i].cols = nil
			c.Release()
		}
	}
	putBatch(b)
	if err != nil {
		panic(fmt.Errorf("net transport: send to executor %d: %w", s.dest, err))
	}
}

// Control-plane messages, gob-encoded over each worker's coordinator
// connection. netEnvelope is the single top-level frame; exactly one
// field is set per message. Stream data inside it (netSinkData) is
// already encoded by the codec, so gob sees only fixed structs and
// bytes.
type netEnvelope struct {
	Hello    *netHello
	Start    *netStart
	Sink     *netSinkData
	Done     *netDone
	Shutdown bool
}

// netHello is the worker's first message: its identity, the data
// address peers should dial, and the attempt cookie the coordinator
// uses to reject stragglers from a killed attempt.
type netHello struct {
	Worker   int
	Attempt  int
	DataAddr string
}

// netStart releases the workers once all have checked in; Peers[i] is
// worker i's data address.
type netStart struct {
	Peers []string
}

// netSinkData streams a slice of one sink's collected output, in
// arrival order, as a codec.AppendEvents payload. The coordinator
// treats each marker as a committed cut boundary.
type netSinkData struct {
	Sink   string
	Events []byte
}

// netSummary is one executor's final counters.
type netSummary struct {
	Component string
	Instance  int
	Executed  int64
	Emitted   int64
	BusyNs    int64
	Restarts  int64
	Replayed  int64
	Dropped   int64
	CombIn    int64
	CombOut   int64
	Cuts      int64
}

// netDone reports a worker's run completion; Failure carries the
// executor error text when the local run failed.
type netDone struct {
	Summaries []netSummary
	Failure   string
}
