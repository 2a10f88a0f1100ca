package queries

import (
	"testing"
	"time"

	"datatrace/internal/compile"
	"datatrace/internal/storm"
	"datatrace/internal/stream"
)

// TestColumnarEquivalenceDifferential proves the columnar transport
// semantics-preserving at the query level: every generated query I–VI
// runs with the columnar (struct-of-arrays) edges on — the default —
// and with NoColumnar set, at parallelism {1, 2, 4} × transport batch
// size {1, 64}, and the two sink outputs must be equal as data
// traces. The boxed run is the oracle: it exercises the same
// operators through the per-event path that predates this transport.
// Run under -race (scripts/check.sh does) so batch recycling through
// the arena pools is exercised under real executor concurrency.
func TestColumnarEquivalenceDifferential(t *testing.T) {
	for _, def := range All() {
		def := def
		t.Run("Query"+def.Name, func(t *testing.T) {
			env := testEnv(t)
			sinkType := def.SinkType(env)
			run := func(par, batch int, boxed bool) []stream.Event {
				t.Helper()
				// Fresh env per run: Query II mutates the DB.
				runEnv := testEnv(t)
				res, err := Run(runEnv, Spec{
					Query: def.Name, Variant: Generated, Par: par, SourcePar: 2,
					NoColumnar: boxed,
					Transport:  &storm.TransportOptions{BatchSize: batch},
				})
				if err != nil {
					t.Fatalf("par=%d batch=%d boxed=%v: %v", par, batch, boxed, err)
				}
				return res.Sinks["sink"]
			}
			for _, par := range []int{1, 2, 4} {
				for _, batch := range []int{1, 64} {
					oracle := run(par, batch, true)
					got := run(par, batch, false)
					if !stream.Equivalent(sinkType, got, oracle) {
						t.Fatalf("par=%d batch=%d: columnar trace differs from boxed oracle (%d vs %d events)",
							par, batch, len(got), len(oracle))
					}
				}
			}
		})
	}
}

// TestColumnarPlanSelectsTypedEdges pins the compiler's edge-type
// selection on the flagship pipeline so the differential tests above
// (and the default-path chaos/rescale tests) cannot pass vacuously:
// with a columnar source, Query IV's plan must carry the source edge
// as columnar and the combined fields edge as typed, and setting
// NoColumnar must remove both.
func TestColumnarPlanSelectsTypedEdges(t *testing.T) {
	env := testEnv(t)
	cols := env.Gen.ColPartitions(1, false)
	build := func(opts *compile.Options) *compile.Plan {
		t.Helper()
		dag := QueryIVDAG(env, 2)
		_, plan, err := compile.CompileWithPlan(dag, map[string]compile.SourceSpec{
			"yahoo": {
				Parallelism: 1,
				Cols:        cols[0].ColKind(),
				Factory:     func(int) storm.Spout { return cols[0] },
			},
		}, opts)
		if err != nil {
			t.Fatal(err)
		}
		return plan
	}

	plan := build(nil) // nil options = all passes on, columnar on
	if len(plan.ColumnarEdges) == 0 {
		t.Fatalf("no columnar edges selected, plan:\n%s", plan)
	}
	src := plan.ColumnarEdges[0]
	if src.From != "yahoo" || src.To != "Project" {
		t.Fatalf("columnar edge = %+v, want yahoo→Project (fused Filter+Project), plan:\n%s", src, plan)
	}
	if len(plan.CombinedEdges) != 1 || !plan.CombinedEdges[0].Columnar {
		t.Fatalf("expected the Project→Count combined edge to be typed, plan:\n%s", plan)
	}

	boxed := build(&compile.Options{FuseSort: true, FuseChains: true, Combiners: true, NoColumnar: true})
	if len(boxed.ColumnarEdges) != 0 {
		t.Fatalf("NoColumnar plan still selected columnar edges:\n%s", boxed)
	}
	if len(boxed.CombinedEdges) != 1 || boxed.CombinedEdges[0].Columnar {
		t.Fatalf("NoColumnar plan still selected a typed combined edge:\n%s", boxed)
	}
}

// TestColumnarRescaleAtCut rescales Query IV at marker-cut barriers
// while its hot edges move typed batches: scale-out and scale-in at
// batch sizes 1 and 64, each compared against a fixed-parallelism
// BOXED oracle. Columnar buffers are sealed and flushed before every
// marker enters the transport, so state migration at the cut sees
// empty edges — this test is the query-level proof, with the oracle
// on the other transport so a columnar-specific loss or duplication
// cannot cancel out.
func TestColumnarRescaleAtCut(t *testing.T) {
	env := testEnv(t)
	def, err := ByName("IV")
	if err != nil {
		t.Fatal(err)
	}
	sinkType := def.SinkType(env)
	base := Spec{Query: "IV", Variant: Generated, SourcePar: 2,
		Recovery: true, NoCombiners: true}

	probeSpec := base
	probeSpec.Par = 2
	target, _ := rescaleProbe(t, def, probeSpec)

	oracleSpec := base
	oracleSpec.Par = 2
	oracleSpec.NoColumnar = true
	oracleEnv := testEnv(t)
	oracle, err := Run(oracleEnv, oracleSpec)
	if err != nil {
		t.Fatalf("boxed fixed-par oracle: %v", err)
	}

	scenarios := []struct {
		name string
		par  int
		plan func(target string) *storm.RescalePlan
	}{
		{"up", 2, func(c string) *storm.RescalePlan {
			return storm.NewRescalePlan().RescaleAt(c, 4, 3)
		}},
		{"down", 4, func(c string) *storm.RescalePlan {
			return storm.NewRescalePlan().RescaleAt(c, 1, 3)
		}},
	}
	for _, sc := range scenarios {
		for _, batch := range []int{1, 64} {
			spec := base
			spec.Par = sc.par
			spec.Transport = &storm.TransportOptions{BatchSize: batch}
			spec.Rescale = sc.plan(target)
			runEnv := testEnv(t)
			res, err := Run(runEnv, spec)
			if err != nil {
				t.Fatalf("%s batch=%d: %v", sc.name, batch, err)
			}
			if !stream.Equivalent(sinkType, res.Sinks["sink"], oracle.Sinks["sink"]) {
				t.Fatalf("%s batch=%d: columnar rescaled trace differs from boxed fixed-par oracle (%d vs %d events)",
					sc.name, batch, len(res.Sinks["sink"]), len(oracle.Sinks["sink"]))
			}
		}
	}
}

// TestColumnarCrashRecovery crashes recoverable bolts in process while
// their input arrives as column batches: generated Queries IV and VI
// with recovery and the columnar transport on, one injected crash per
// run on instance 0 of each aligned bolt at a few event indices. The
// merger holds the batches whole as its replay buffer, so a restart
// replays them; every recovered sink trace must equal the crash-free
// boxed (NoColumnar) oracle. The plan must select columnar edges and
// every run must restart, so the pass is not vacuous.
func TestColumnarCrashRecovery(t *testing.T) {
	for _, q := range []string{"IV", "VI"} {
		t.Run("Query"+q, func(t *testing.T) {
			def, err := ByName(q)
			if err != nil {
				t.Fatal(err)
			}
			spec := Spec{Query: q, Variant: Generated, Par: 2, SourcePar: 2, Recovery: true}
			oracleSpec := spec
			oracleSpec.NoColumnar = true
			oracle, err := Run(testEnv(t), oracleSpec)
			if err != nil {
				t.Fatalf("boxed oracle: %v", err)
			}
			build := func() *storm.Topology {
				t.Helper()
				env := testEnv(t)
				top, plan, err := buildWith(env, spec, def, def.Sources(env, spec.SourcePar), def.ColSources(env, spec.SourcePar), 0)
				if err != nil {
					t.Fatal(err)
				}
				if len(plan.ColumnarEdges) == 0 {
					t.Fatalf("no columnar edges selected, plan:\n%s", plan)
				}
				return top
			}
			sinkType := def.SinkType(testEnv(t))
			for _, c := range build().Components() {
				if c.Kind == "spout" {
					continue // compiled bolts and sinks are all aligned
				}
				for _, at := range []int64{1, 9, 60} {
					top := build()
					top.SetFaultPlan(storm.NewFaultPlan().CrashAt(c.Name, 0, at))
					res, err := top.Run()
					if err != nil {
						t.Fatalf("crash of %s at %d: %v", c.Name, at, err)
					}
					if restarts, _, _ := res.Stats.Recovery(); restarts < 1 {
						t.Fatalf("crash of %s at %d: no restart recorded", c.Name, at)
					}
					if !stream.Equivalent(sinkType, res.Sinks["sink"], oracle.Sinks["sink"]) {
						t.Fatalf("crash of %s at %d: recovered columnar trace differs from the boxed oracle (%d vs %d events)",
							c.Name, at, len(res.Sinks["sink"]), len(oracle.Sinks["sink"]))
					}
				}
			}
		})
	}
}

// TestColumnarChaosWorkerKill SIGKILLs a worker of a networked Query
// IV cluster whose edges are columnar (the default) and checks that
// the recovered, replayed, spliced output equals an undisturbed BOXED
// in-process run — crossing both the process/recovery boundary and
// the transport-representation boundary at once. Batches cross worker
// links as typed WireCols frames, and recovery replays from committed
// marker cuts, which the columnar transport must leave exactly where
// the boxed one does.
func TestColumnarChaosWorkerKill(t *testing.T) {
	requireNet(t)
	cfg := netTestCfg()
	spec := Spec{Query: "IV", Variant: Generated, Par: 2, SourcePar: 2}
	// The DB delay stretches the run so the kill (after 3 of the 12
	// marker cuts commit) lands mid-flight rather than after the
	// stream has drained.
	const opDelay = 500 * time.Microsecond

	env, err := NewEnv(cfg, opDelay)
	if err != nil {
		t.Fatal(err)
	}
	oracleSpec := spec
	oracleSpec.NoColumnar = true
	oracle, err := Run(env, oracleSpec)
	if err != nil {
		t.Fatal(err)
	}

	res, err := RunNetworked(NetSpec{Spec: spec, Workers: 3, Cfg: cfg, OpDelay: opDelay},
		func(o *storm.NetOptions) {
			o.Kill = &storm.KillPlan{Worker: 1, AfterCuts: 3}
			o.Logf = t.Logf
		})
	if err != nil {
		t.Fatalf("networked columnar run did not recover: %v", err)
	}
	if res.WorkerRestarts < 1 {
		t.Fatalf("kill plan fired but the cluster reports %d restarts", res.WorkerRestarts)
	}
	if res.ReplayedCuts < 3 {
		t.Fatalf("restart replayed only %d committed cuts, want ≥ 3", res.ReplayedCuts)
	}
	def, err := ByName("IV")
	if err != nil {
		t.Fatal(err)
	}
	got, want := res.Sinks["sink"], oracle.Sinks["sink"]
	if !stream.Equivalent(def.SinkType(env), got, want) {
		t.Fatalf("post-recovery columnar trace differs from boxed undisturbed run\n got %d events\n want %d events",
			len(got), len(want))
	}
	t.Logf("recovered: %d restarts, %d replayed cuts, wall %v", res.WorkerRestarts, res.ReplayedCuts, res.Wall)
}
