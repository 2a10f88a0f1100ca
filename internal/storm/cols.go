package storm

import (
	"fmt"

	"datatrace/internal/stream"
)

// This file is the columnar (struct-of-arrays) hot path of the batched
// edge transport. An edge declared columnar — by the compiler, when
// both endpoint templates expose the same concrete column kind — moves
// items as typed Columns batches instead of boxed events: the emitter
// appends rows to a per-destination column buffer, seals a full buffer
// into a single cols message, and the receiver hands the whole batch to
// a ColProcessor bolt in one call. Boxed and columnar edges coexist
// message-by-message on the same channels: a message either carries one
// boxed event or one column batch.
//
// Markers never enter a column batch. The emitter's push seals the
// open column buffer before appending any boxed message (sealCols in
// transport.go), so on every channel a marker still follows all the
// rows emitted before it — the FIFO discipline the MRG alignment and
// the marker-cut protocols rely on. Because flushAll also drains and
// seals column state, every point at which the recovery and rescale
// protocols prove the transport empty (committed cuts, barriers, EOS)
// still has nothing buffered anywhere: the columnar layer adds buffer
// capacity, not new retention points.
//
// Everything here preserves the data-trace semantics for the same
// reason batching did (PR 3): a Columns batch denotes exactly its row
// sequence, rows keep their per-channel order, and under U(K,V) the
// per-channel interleaving is all that is observable.

// ColSpout is an optional Spout extension: a source that can produce
// typed column batches directly, skipping per-event boxing. The
// executor calls NextCols while items are available and falls back to
// Next at punctuation points.
type ColSpout interface {
	Spout
	// ColKind is the kind of batches NextCols fills; nil disables the
	// columnar path for this spout instance.
	ColKind() *stream.ColKind
	// NextCols appends up to max item rows to out and returns how many
	// it appended. It returns 0 exactly when the next event is a marker
	// or end-of-stream — the executor then calls Next, so markers and
	// EOS always travel the boxed path.
	NextCols(out stream.Columns, max int) int
}

// ColProcessor is an optional Bolt extension: a bolt that can consume
// (and possibly produce) typed column batches. The executor uses
// ProcessCols for every arriving batch whose kind matches InColKind,
// and falls back to per-event Next calls otherwise, so a bolt behind a
// mixed set of edges still sees every event exactly once.
type ColProcessor interface {
	Bolt
	// InColKind is the kind of batch ProcessCols accepts; nil disables
	// the columnar receive path for this bolt.
	InColKind() *stream.ColKind
	// OutColKind is the kind of batch ProcessCols fills, nil when the
	// bolt emits only boxed events.
	OutColKind() *stream.ColKind
	// ProcessCols consumes every row of in, appending output rows to
	// out (non-nil exactly when OutColKind is non-nil). The
	// implementation must not retain in, out or their column slices
	// past the call (dttlint rule DTT007).
	ProcessCols(in, out stream.Columns)
}

// ColCombinerSpec configures typed sender-side combining on one
// columnar input edge of a bolt (see BoltDecl.ColCombineWith): the
// columnar counterpart of CombinerSpec. The edge carries batches of
// OutKind — each drain ships one (key, partial aggregate) row per
// distinct key — while the producer emits batches of InKind.
type ColCombinerSpec struct {
	// InKind is the kind of rows the combiner folds (the producer's
	// output kind); OutKind is the kind of rows it drains (the kind the
	// edge carries and the consumer accepts).
	InKind  *stream.ColKind
	OutKind *stream.ColKind
	// New builds one combining buffer per (subscription, destination).
	New func() stream.ColCombiner
	// Cap bounds the distinct keys a buffer holds before draining.
	Cap int
}

// validate checks a spec at topology validation time.
func (s *ColCombinerSpec) validate(bolt, from string, g Grouping) error {
	if s.InKind == nil || s.OutKind == nil || s.New == nil {
		return fmt.Errorf("storm: columnar combiner on edge %s→%s needs InKind, OutKind and New", from, bolt)
	}
	if s.Cap < 1 {
		return fmt.Errorf("storm: columnar combiner on edge %s→%s needs a positive key cap, got %d", from, bolt, s.Cap)
	}
	if g != Fields {
		return fmt.Errorf("storm: columnar combiner on edge %s→%s requires fields grouping, got %s (combining re-times items, which only a key-partitioned unordered edge tolerates)", from, bolt, g)
	}
	return nil
}

// ColumnarWith declares the bolt's most recently declared input edge
// columnar: items on it travel as typed batches of the given kind.
// The producer must emit batches of exactly this kind (pointer
// equality — kinds are canonical) and the consumer must accept them;
// the compiler checks both before selecting the columnar transport,
// and the runtime falls back to boxed events row-by-row on any
// mismatch, so a wrong declaration degrades performance, not
// semantics.
func (d *BoltDecl) ColumnarWith(kind *stream.ColKind) *BoltDecl {
	if len(d.c.inputs) == 0 {
		panic(fmt.Sprintf("storm: ColumnarWith on %q before any input is declared", d.c.name))
	}
	if kind == nil {
		panic(fmt.Sprintf("storm: ColumnarWith on %q with a nil kind", d.c.name))
	}
	d.c.inputs[len(d.c.inputs)-1].cols = kind
	return d
}

// ColCombineWith attaches a typed sender-side combining buffer to the
// bolt's most recently declared input edge and declares the edge
// columnar with the combiner's output kind. The edge must use fields
// grouping; validation enforces it at Run.
func (d *BoltDecl) ColCombineWith(spec ColCombinerSpec) *BoltDecl {
	if len(d.c.inputs) == 0 {
		panic(fmt.Sprintf("storm: ColCombineWith on %q before any input is declared", d.c.name))
	}
	in := &d.c.inputs[len(d.c.inputs)-1]
	in.colComb = &spec
	in.cols = spec.OutKind
	return d
}

// ---------------------------------------------------------------------------
// Emitter-side columnar routing.
// ---------------------------------------------------------------------------

// emitCols routes one batch of emitted rows to every subscription,
// taking ownership of the batch (it is released before returning). A
// subscription whose edge is columnar with a matching kind receives
// rows by typed row append (or typed combiner fold) — no boxing; any
// other subscription receives the rows boxed one by one through the
// ordinary route/wire/push path. The serialization round-trip
// (SetSerializer) has no typed form, so its presence forces the boxed
// fallback; the networked transport serializes whole column batches at
// the link layer instead (net.go).
func (em *emitter) emitCols(cols stream.Columns) {
	n := cols.Len()
	if n == 0 {
		cols.Release()
		return
	}
	em.stats.AddEmitted(int64(n))
	kind := cols.Kind()
	for si := range em.rc.subs {
		sub := &em.rc.subs[si]
		base := em.bufBase[si]
		nd := len(sub.to.inboxes)
		switch {
		case sub.colComb != nil && sub.colComb.InKind == kind && em.ser == nil:
			// Typed combining: fold each row into its destination's
			// buffer. The grouping is Fields (validated), so the
			// destination comes from the row's key hash.
			for i := 0; i < n; i++ {
				em.faults.onSend(em.rc.name, em.instance, sub.to.name)
				b := &em.bufs[base+cols.HashAt(i)%nd]
				c := b.colComb
				before := c.Len()
				if !c.Fold(cols, i) {
					c.FoldEvent(cols.EventAt(i))
				}
				em.colpending += c.Len() - before
				if c.Len() >= b.colCap {
					em.drainColComb(b)
				}
			}
		case sub.cols == kind && em.ser == nil:
			switch sub.grouping {
			case Shuffle:
				k := em.rrNext[si]
				for i := 0; i < n; i++ {
					em.faults.onSend(em.rc.name, em.instance, sub.to.name)
					em.appendCol(&em.bufs[base+k], cols, i)
					k = (k + 1) % nd
				}
				em.rrNext[si] = k
			case Fields:
				for i := 0; i < n; i++ {
					em.faults.onSend(em.rc.name, em.instance, sub.to.name)
					em.appendCol(&em.bufs[base+cols.HashAt(i)%nd], cols, i)
				}
			case Global:
				b := &em.bufs[base]
				for i := 0; i < n; i++ {
					em.faults.onSend(em.rc.name, em.instance, sub.to.name)
					em.appendCol(b, cols, i)
				}
			case Broadcast:
				for k := 0; k < nd; k++ {
					b := &em.bufs[base+k]
					for i := 0; i < n; i++ {
						em.faults.onSend(em.rc.name, em.instance, sub.to.name)
						em.appendCol(b, cols, i)
					}
				}
			}
		default:
			// Boxed fallback for this subscription only: kind mismatch,
			// boxed edge, or a serializer that needs boxed events.
			for i := 0; i < n; i++ {
				em.emitRowTo(si, sub, cols.EventAt(i))
			}
		}
	}
	cols.Release()
}

// emitRowTo delivers one row of a columnar emission to one
// subscription through the boxed route/wire/push path. AddEmitted was
// already counted for the whole batch by emitCols.
func (em *emitter) emitRowTo(si int, sub *subscription, e stream.Event) {
	ch := sub.chBase + em.instance
	switch sub.grouping {
	case Shuffle:
		k := em.rrNext[si]
		em.rrNext[si] = (k + 1) % len(sub.to.inboxes)
		em.pushRouted(sub, si, k, ch, e)
	case Fields:
		em.pushRouted(sub, si, em.hash(e.Key)%len(sub.to.inboxes), ch, e)
	case Global:
		em.pushRouted(sub, si, 0, ch, e)
	case Broadcast:
		for k := range sub.to.inboxes {
			em.pushRouted(sub, si, k, ch, e)
		}
	}
}

// pushRouted wires and pushes one already-resolved routed message.
func (em *emitter) pushRouted(sub *subscription, si, target, ch int, e stream.Event) {
	r := routedMsg{sub: sub, si: si, target: target, ch: ch, e: e}
	em.wire(&r)
	em.push(&r)
}

// appendCol appends one row of src to a destination's column buffer,
// sealing and flushing when the buffer reaches the batch size — one
// full column batch per flushed vector, which keeps the in-flight
// bound (ChannelCap × BatchSize events per edge) intact.
func (em *emitter) appendCol(b *outBuf, src stream.Columns, i int) {
	cb := b.colBuf
	if cb == nil {
		cb = b.colKind.Get()
		b.colBuf = cb
	}
	cb.AppendRow(src, i)
	em.colpending++
	if cb.Len() >= em.batchSize {
		em.sealCols(b)
		em.flushBuf(b)
	}
}

// sealCols closes a destination's open column buffer into one cols
// message on the transport buffer. Nil-safe and a no-op when nothing
// is buffered. Ownership of the batch passes to the message; the
// receiver (or the net sink, after serializing) releases it.
func (em *emitter) sealCols(b *outBuf) {
	cb := b.colBuf
	if cb == nil {
		return
	}
	if cb.Len() == 0 {
		return
	}
	b.colBuf = nil
	em.colpending -= cb.Len()
	em.appendRaw(b, message{ch: b.colCh, cols: cb, sent: em.now})
}

// colCombine folds one boxed event into a columnar combining buffer
// (the marker-free fallback rows of a columnar combined edge), with
// the same cap discipline as the typed fold in emitCols.
func (em *emitter) colCombine(b *outBuf, e stream.Event) {
	c := b.colComb
	before := c.Len()
	c.FoldEvent(e)
	em.colpending += c.Len() - before
	if c.Len() >= b.colCap {
		em.drainColComb(b)
	}
}

// drainColComb drains a columnar combining buffer into its
// destination's column buffer — one (key, partial aggregate) row per
// distinct key, in first-seen key order — sealing and flushing if the
// drain filled a batch. Nil-safe and a no-op when nothing is buffered.
func (em *emitter) drainColComb(b *outBuf) {
	c := b.colComb
	if c == nil || c.Len() == 0 {
		return
	}
	keys := c.Len()
	if b.colBuf == nil {
		b.colBuf = b.colKind.Get()
	}
	ins, outs := c.Drain(b.colBuf)
	em.stats.AddCombinedIn(int64(ins))
	em.stats.AddCombinedOut(int64(outs))
	// Buffered keys became buffered rows; both count toward colpending,
	// so the net change is outs - keys (zero: a drain moves every key).
	em.colpending += outs - keys
	if b.colBuf.Len() >= em.batchSize {
		em.sealCols(b)
		em.flushBuf(b)
	}
}

// ---------------------------------------------------------------------------
// Receiver-side columnar MRG alignment.
// ---------------------------------------------------------------------------

// colEntry is one buffered unit of a colMerge channel: a boxed event
// (item or marker) or a column batch of items.
type colEntry struct {
	ev   stream.Event
	cols stream.Columns
}

// rows is the number of events the entry denotes.
func (it colEntry) rows() int {
	if it.cols != nil {
		return it.cols.Len()
	}
	return 1
}

type colBlock struct {
	items []colEntry
	mark  stream.Marker
}

// colMerge is the runtime's MRG merger. It follows the reference merger
// of internal/stream, which its differential fuzz target compares it
// against: blocks close on markers, a block flushes when every channel
// closed it, and the merged marker carries the maximum timestamp. It
// buffers column batches whole, so alignment does not force reboxing,
// and it pops a block only after the block and its marker were fully
// delivered, releasing the block's batches then. Until that pop every
// received entry stays valid in Pending, which makes the merger the
// replay buffer of marker-cut recovery.
type colMerge struct {
	n      int
	queued [][]colBlock
	open   [][]colEntry
	// dev/dcols deliver one merged boxed event / column batch; dcols
	// must not release the batch (the merger does).
	dev   func(stream.Event)
	dcols func(stream.Columns)
}

func newColMerge(n int, dev func(stream.Event), dcols func(stream.Columns)) *colMerge {
	return &colMerge{
		n:      n,
		queued: make([][]colBlock, n),
		open:   make([][]colEntry, n),
		dev:    dev,
		dcols:  dcols,
	}
}

// Next consumes one entry from channel ch, taking ownership of a
// column batch. A marker closes the channel's open block and flushes
// every block that is then complete on all channels.
func (m *colMerge) Next(ch int, it colEntry) {
	if it.cols != nil || !it.ev.IsMarker {
		m.open[ch] = append(m.open[ch], it)
		return
	}
	m.queued[ch] = append(m.queued[ch], colBlock{items: m.open[ch], mark: it.ev.Marker})
	m.open[ch] = nil
	for m.complete() {
		mark := m.queued[0][0].mark
		for ch := range m.queued {
			b := m.queued[ch][0]
			m.deliver(b.items)
			if b.mark.Timestamp > mark.Timestamp {
				mark = b.mark
			}
		}
		m.dev(stream.Mark(mark))
		for ch := range m.queued {
			for _, it := range m.queued[ch][0].items {
				if it.cols != nil {
					it.cols.Release()
				}
			}
			m.queued[ch][0] = colBlock{}
			m.queued[ch] = m.queued[ch][1:]
		}
	}
}

// complete reports whether every channel has closed its head block.
func (m *colMerge) complete() bool {
	for _, q := range m.queued {
		if len(q) == 0 {
			return false
		}
	}
	return true
}

func (m *colMerge) deliver(items []colEntry) {
	for _, it := range items {
		if it.cols != nil {
			m.dcols(it.cols)
		} else {
			m.dev(it.ev)
		}
	}
}

// Trailing delivers every entry still buffered at end-of-stream —
// closed-but-incomplete blocks, then each channel's open block —
// without synthesizing the missing markers, as the reference merger's
// Trailing does. Nothing is popped, so Pending still returns the
// input if the delivery fails.
func (m *colMerge) Trailing() {
	for _, q := range m.queued {
		for _, b := range q {
			m.deliver(b.items)
		}
	}
	for _, open := range m.open {
		m.deliver(open)
	}
}

// Pending returns, per channel, every entry the merger has not yet
// flushed: the items and markers of the queued blocks followed by the
// open block's items. Feeding each sequence into a fresh merger on the
// same channel reproduces this merger's state; the batches move with
// the entries, so the old merger must not be used afterwards.
func (m *colMerge) Pending() [][]colEntry {
	out := make([][]colEntry, m.n)
	for ch := range out {
		for _, b := range m.queued[ch] {
			out[ch] = append(out[ch], b.items...)
			out[ch] = append(out[ch], colEntry{ev: stream.Mark(b.mark)})
		}
		out[ch] = append(out[ch], m.open[ch]...)
	}
	return out
}
