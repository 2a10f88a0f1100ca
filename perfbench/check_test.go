package main

import (
	"testing"
	"time"

	"datatrace/internal/queries"
	"datatrace/internal/stream"
)

// TestReferenceMatchesDefReference: the streamed, block-by-block
// reference is the query's denotation as Def.Reference computes it.
func TestReferenceMatchesDefReference(t *testing.T) {
	for _, name := range []string{"q4-dense", "q6-paced"} {
		w, _ := workloadByName(name)
		const blocks = 12
		env := mustEnv(t, w, 3, blocks)
		def := mustDef(t, w)
		want, err := def.Reference(env)
		if err != nil {
			t.Fatal(err)
		}
		wantBlocks := splitBlocks(want["sink"])
		if len(wantBlocks) != blocks {
			t.Fatalf("%s: Def.Reference has %d blocks, want %d", name, len(wantBlocks), blocks)
		}
		typ := def.SinkType(env)
		n := 0
		err = referenceBlocks(w, 3, blocks, func(b int, items []stream.Event) {
			n++
			if !stream.Equivalent(typ, items, wantBlocks[b]) {
				t.Errorf("%s block %d: streamed reference %s, Def.Reference %s", name, b, stream.Render(items), stream.Render(wantBlocks[b]))
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		if n != blocks {
			t.Fatalf("%s: %d reference blocks, want %d", name, n, blocks)
		}
	}
}

// TestCheckCountsCorruptedBlock runs each in-process workload briefly,
// then corrupts one block of its sink output: the clean output passes
// the check, the corrupted one fails exactly that block, and a
// truncated one fails the missing blocks.
func TestCheckCountsCorruptedBlock(t *testing.T) {
	for _, name := range []string{"q4-dense", "q6-paced"} {
		w, _ := workloadByName(name)
		w.blocksPerSecond = 20
		out, err := runInProcess(w, 5, time.Second, w.recovery, nil)
		if err != nil {
			t.Fatal(err)
		}
		ref, err := reference(w, 5, out.blocks)
		if err != nil {
			t.Fatal(err)
		}
		if len(ref.blocks) != 20 {
			t.Fatalf("%s: %d reference blocks, want 20", name, len(ref.blocks))
		}
		if failed := ref.check(out.sink); failed != 0 {
			t.Fatalf("%s clean run: %d failed blocks, want 0", name, failed)
		}

		corrupt := append([]stream.Event(nil), out.sink...)
		marks := 0
		for i, e := range corrupt {
			if e.IsMarker {
				marks++
				continue
			}
			if marks == 7 {
				corrupt[i].Key = int64(-1)
				break
			}
		}
		if failed := ref.check(corrupt); failed != 1 {
			t.Fatalf("%s with block 7 corrupted: %d failed blocks, want 1", name, failed)
		}

		half := out.sink[:len(out.sink)/2]
		if failed, missing := ref.check(half), 20-len(splitBlocks(half)); failed < missing || missing == 0 {
			t.Fatalf("%s with half the output: %d failed blocks, want at least %d", name, failed, missing)
		}
	}
}

func BenchmarkReference(b *testing.B) {
	w, _ := workloadByName("q4-dense")
	for b.Loop() {
		if err := referenceBlocks(w, 1, 100, func(int, []stream.Event) {}); err != nil {
			b.Fatal(err)
		}
	}
}

func mustEnv(t *testing.T, w spec, seed int64, blocks int) *queries.Env {
	t.Helper()
	env, err := queries.NewEnv(w.yahooConfig(seed, blocks), 0)
	if err != nil {
		t.Fatal(err)
	}
	return env
}

func mustDef(t *testing.T, w spec) queries.Def {
	t.Helper()
	def, err := queries.ByName(w.query)
	if err != nil {
		t.Fatal(err)
	}
	return def
}
