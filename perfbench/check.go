package main

import (
	"fmt"
	"reflect"

	"datatrace/internal/core"
	"datatrace/internal/queries"
	"datatrace/internal/stream"
)

// The output check compares every marker-delimited block of a run's
// sink stream with the same block of the query's denotation. The
// denotation is what Def.Reference computes — the DAG evaluated
// sequentially, one instance per operator — but streamed block by
// block, so a run of millions of events is checked without
// materializing its input.

// referenceBlocks evaluates def's DAG sequentially over the first
// blocks blocks of the merged source stream of the workload's seed,
// calling fn with each sink block's items (marker excluded).
func referenceBlocks(w spec, seed int64, blocks int, fn func(b int, items []stream.Event)) error {
	def, err := queries.ByName(w.query)
	if err != nil {
		return err
	}
	env, err := queries.NewEnv(w.yahooConfig(seed, blocks), 0)
	if err != nil {
		return err
	}
	var ops []core.Instance
	for _, n := range def.DAG(env, 1).Nodes() {
		if len(n.Inputs) > 1 {
			return fmt.Errorf("reference: node %s has %d inputs; only linear DAGs stream", n.Name, len(n.Inputs))
		}
		if n.Kind == core.OpNode {
			ops = append(ops, n.Op.New())
		}
	}
	var items []stream.Event
	b := 0
	emit := func(e stream.Event) {
		if !e.IsMarker {
			items = append(items, e)
			return
		}
		fn(b, items)
		b++
		items = items[:0]
	}
	for i := len(ops) - 1; i >= 0; i-- {
		op, next := ops[i], emit
		emit = func(e stream.Event) { op.Next(e, next) }
	}
	it := env.Gen.Iter()
	if def.KeyedSource {
		it = queries.KeyByUser(it)
	}
	for e, ok := it(); ok; e, ok = it() {
		emit(e)
	}
	if b != blocks {
		return fmt.Errorf("reference produced %d blocks, want %d", b, blocks)
	}
	return nil
}

// splitBlocks cuts a sink stream at its markers. Items after the last
// marker form one more, unterminated block.
func splitBlocks(events []stream.Event) [][]stream.Event {
	var out [][]stream.Event
	start := 0
	for i, e := range events {
		if e.IsMarker {
			out = append(out, events[start:i])
			start = i + 1
		}
	}
	if start < len(events) {
		out = append(out, events[start:])
	}
	return out
}

// refBlocks is the denotation's sink output, cut into blocks.
type refBlocks struct {
	typ    stream.Type
	blocks [][]stream.Event
}

// reference computes the sink blocks of a run of blocks blocks.
func reference(w spec, seed int64, blocks int) (*refBlocks, error) {
	def, err := queries.ByName(w.query)
	if err != nil {
		return nil, err
	}
	env, err := queries.NewEnv(w.yahooConfig(seed, 1), 0)
	if err != nil {
		return nil, err
	}
	ref := &refBlocks{typ: def.SinkType(env)}
	err = referenceBlocks(w, seed, blocks, func(_ int, items []stream.Event) {
		ref.blocks = append(ref.blocks, append([]stream.Event(nil), items...))
	})
	if err != nil {
		return nil, err
	}
	return ref, nil
}

// check compares a run's sink stream, block by block, with the
// reference as data traces of the sink's type. It returns how many
// blocks differ, are missing or are extra.
func (r *refBlocks) check(got []stream.Event) (failed int) {
	gotBlocks := splitBlocks(got)
	for b, ref := range r.blocks {
		if b >= len(gotBlocks) || !r.equivalent(gotBlocks[b], ref) {
			failed++
		}
	}
	return failed + max(0, len(gotBlocks)-len(r.blocks))
}

// equivalent compares two blocks. Within a block of an unordered
// type U(K,V) — the sinks of Queries IV and VI — every item commutes
// with every other, so the traces are equal exactly when the items
// are equal as multisets; that is checked directly, since the general
// normal form stream.Equivalent computes is quadratic in the block.
// Other types, and items that cannot be map keys, take
// stream.Equivalent.
func (r *refBlocks) equivalent(got, ref []stream.Event) bool {
	if r.typ.Kind != stream.Unordered {
		return stream.Equivalent(r.typ, got, ref)
	}
	if len(got) != len(ref) {
		return false
	}
	type item struct{ k, v any }
	count := make(map[item]int, len(ref))
	for _, e := range ref {
		if !hashable(e.Key) || !hashable(e.Value) {
			return stream.Equivalent(r.typ, got, ref)
		}
		count[item{e.Key, e.Value}]++
	}
	for _, e := range got {
		if !hashable(e.Key) || !hashable(e.Value) {
			return false
		}
		it := item{e.Key, e.Value}
		if count[it] == 0 {
			return false
		}
		count[it]--
	}
	return true
}

func hashable(v any) bool { return v == nil || reflect.TypeOf(v).Comparable() }
