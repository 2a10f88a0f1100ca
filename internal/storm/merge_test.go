package storm

import (
	"fmt"
	"testing"

	"datatrace/internal/stream"
)

// mergeOp is one step of a differential merger script: an entry fed
// on channel ch, and its boxed expansion (the rows of a batch, or the
// single event).
type mergeOp struct {
	ch   int
	it   colEntry
	rows []stream.Event
}

// decodeMergeScript turns fuzz input into per-channel entries in one
// interleaving: byte b feeds channel b%n a boxed item, a column batch
// of 1–4 rows, or the channel's next marker (timestamps vary across
// channels so the merged marker's maximum is exercised).
func decodeMergeScript(n int, script []byte) []mergeOp {
	kind := stream.ColKindFor[int, int]()
	seqs := make([]int64, n)
	ops := make([]mergeOp, 0, len(script))
	for i, b := range script {
		ch := int(b) % n
		switch (b / 4) % 4 {
		case 0, 1:
			e := stream.Item(int(b)%5, i)
			ops = append(ops, mergeOp{ch: ch, it: colEntry{ev: e}, rows: []stream.Event{e}})
		case 2:
			c := kind.Get()
			var rows []stream.Event
			for r := 0; r < 1+int(b/16)%4; r++ {
				e := stream.Item(int(b+byte(r))%5, 1000*i+r)
				c.AppendEvent(e)
				rows = append(rows, e)
			}
			ops = append(ops, mergeOp{ch: ch, it: colEntry{cols: c}, rows: rows})
		case 3:
			e := stream.Mark(stream.Marker{Seq: seqs[ch], Timestamp: 10*seqs[ch] + int64(b/16)%7})
			seqs[ch]++
			ops = append(ops, mergeOp{ch: ch, it: colEntry{ev: e}, rows: []stream.Event{e}})
		}
	}
	return ops
}

// mergeBlocks cuts a merged output at its markers: per block, the item
// multiset and the closing marker. Items after the last marker form a
// final block with a zero marker.
func mergeBlocks(out []stream.Event) ([]map[stream.Event]int, []stream.Marker) {
	items := []map[stream.Event]int{{}}
	var marks []stream.Marker
	for _, e := range out {
		if e.IsMarker {
			marks = append(marks, e.Marker)
			items = append(items, map[stream.Event]int{})
			continue
		}
		items[len(items)-1][e]++
	}
	return items, marks
}

func sameMergeOutput(got, want []stream.Event) error {
	gi, gm := mergeBlocks(got)
	wi, wm := mergeBlocks(want)
	if len(gm) != len(wm) {
		return fmt.Errorf("%d merged markers, reference has %d", len(gm), len(wm))
	}
	for b := range gi {
		if b < len(gm) && gm[b] != wm[b] {
			return fmt.Errorf("block %d: merged marker %v, reference %v", b, gm[b], wm[b])
		}
		if fmt.Sprint(gi[b]) != fmt.Sprint(wi[b]) {
			return fmt.Errorf("block %d: items %v, reference %v", b, gi[b], wi[b])
		}
	}
	return nil
}

// unboxEntries expands entries to the events they denote.
func unboxEntries(its []colEntry) []stream.Event {
	var out []stream.Event
	for _, it := range its {
		if it.cols == nil {
			out = append(out, it.ev)
			continue
		}
		for i := 0; i < it.cols.Len(); i++ {
			out = append(out, it.cols.EventAt(i))
		}
	}
	return out
}

// FuzzColMergeMatchesMergeState checks the runtime's MRG merger
// against stream.MergeState, its reference. Per-channel sequences of
// boxed items, column batches and markers are fed in a fuzzed
// interleaving — whole batches to colMerge, their rows to the
// reference. After every step both must have delivered the same item
// multiset per block and the same merged markers, and colMerge's
// Pending must unbox to the reference's. At a fuzzed step the merger
// is replaced by a fresh one fed its Pending — the marker-cut replay —
// which must then reproduce the rest of the reference output,
// trailing items included.
func FuzzColMergeMatchesMergeState(f *testing.F) {
	f.Add(uint8(1), uint16(3), []byte{0, 8, 12, 40, 0, 1, 9, 13, 41})
	f.Add(uint8(2), uint16(5), []byte{8, 9, 12, 13, 44, 1, 0, 45, 12, 13, 9})
	f.Add(uint8(3), uint16(0), []byte{12, 13, 14, 24, 25, 26, 60, 61, 62, 0, 1})
	f.Fuzz(func(t *testing.T, nch uint8, split uint16, script []byte) {
		if len(script) > 256 {
			script = script[:256]
		}
		n := 1 + int(nch)%4
		ops := decodeMergeScript(n, script)
		cut := int(split) % (len(ops) + 1)

		ref := stream.NewMergeState(n)
		var want []stream.Event
		refEmit := func(e stream.Event) { want = append(want, e) }
		var got []stream.Event
		newMerge := func() *colMerge {
			return newColMerge(n, func(e stream.Event) { got = append(got, e) }, func(c stream.Columns) {
				got = append(got, unboxEntries([]colEntry{{cols: c}})...)
			})
		}
		cur, off := newMerge(), 0
		check := func(step string) {
			t.Helper()
			if err := sameMergeOutput(got, want[off:]); err != nil {
				t.Fatalf("%s: %v", step, err)
			}
			pend, refPend := cur.Pending(), ref.Pending()
			for ch := range pend {
				if g, w := unboxEntries(pend[ch]), refPend[ch]; fmt.Sprint(g) != fmt.Sprint(w) {
					t.Fatalf("%s: channel %d pending %v, reference %v", step, ch, g, w)
				}
			}
		}
		for i := 0; i <= len(ops); i++ {
			if i == cut {
				pend := cur.Pending()
				cur, off, got = newMerge(), len(want), nil
				for ch, its := range pend {
					for _, it := range its {
						cur.Next(ch, it)
					}
				}
				check(fmt.Sprintf("replay of pending at step %d", i))
			}
			if i == len(ops) {
				break
			}
			op := ops[i]
			cur.Next(op.ch, op.it)
			for _, e := range op.rows {
				ref.Next(op.ch, e, refEmit)
			}
			check(fmt.Sprintf("step %d", i))
		}
		cur.Trailing()
		want = append(want, ref.Trailing()...)
		if err := sameMergeOutput(got, want[off:]); err != nil {
			t.Fatalf("trailing: %v", err)
		}
	})
}
