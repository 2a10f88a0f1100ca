package main

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"syscall"
	"time"

	"datatrace/internal/codec"
	"datatrace/internal/compile"
	"datatrace/internal/ml"
	"datatrace/internal/queries"
	"datatrace/internal/storm"
	"datatrace/internal/stream"
	"datatrace/internal/workload"
)

// The traced run measures each layer from outside: it times the
// harness's own calls into the layer's public functions, records a
// span around each, and reads the runtime's per-executor counters.
// Nothing inside the system is instrumented, and its observability
// subsystem stays off.

// Probe sizes. They are fixed, so a layer figure depends only on the
// layer's code, not on how long the measured run was.
const (
	probeEvents    = 1 << 20 // generator, lookup and hash probes
	evalEvents     = 200_000 // sequential DAG.Eval probe
	kmeansReps     = 2000
	codecFrames    = 4096
	codecFrameRows = 64
	hopEvents      = 200_000
	hopBlock       = 1000
	netSpawnReps   = 3
	// recoveryProbeRuns is the number of paced Query VI sub-runs,
	// alternately with recovery on and off.
	recoveryProbeRuns = 6
)

// tracedLayers is every layer the traced run has spans for; each gets
// a self-time metric.
var tracedLayers = []string{"perfbench", "queries", "compile", "storm", "workload", "db", "stream", "core", "ml", "codec"}

// measureLayers is the traced run. The workload's sub-runs alternate
// untraced and traced, so the tracing overhead comes from interleaved
// pairs; then a paced Query VI probe with recovery on and off, and one
// probe per layer.
func measureLayers(w spec, seed int64, d time.Duration, outDir string) (*result, error) {
	tr := newTracer(fmt.Sprintf("%s-seed%d-pid%d", w.name, seed, os.Getpid()))
	res := &result{}

	// Set-up: environment and compilation in process (every workload,
	// for the plan's counts), worker spawn for the networked path.
	var envT, compT []time.Duration
	var plan *compile.Plan
	for range setupReps {
		j, err := setUp(w, seed, newSchedule(sourcePar, 1, w.period), w.recovery, tr)
		if err != nil {
			return nil, err
		}
		n := len(tr.spans)
		envT = append(envT, spanDur(tr.spans[n-2]))
		compT = append(compT, spanDur(tr.spans[n-1]))
		plan = j.plan
	}
	var spawnT []time.Duration
	for range netSpawnReps {
		sp := tr.start("storm.net_spawn")
		_, err := netRun(w, seed, 1, "")
		tr.end(sp)
		if err != nil {
			return nil, fmt.Errorf("networked one-block run: %w", err)
		}
		spawnT = append(spawnT, spanDur(tr.spans[sp]))
	}
	res.add("queries.env_ms", ms(medianDuration(envT)), "ms")
	res.add("compile.compile_ms", ms(medianDuration(compT)), "ms")
	res.add("storm.net_spawn_s", medianDuration(spawnT).Seconds(), "s")
	fused := 0
	for _, b := range plan.Bolts {
		if len(b.Stages) > 1 {
			fused++
		}
	}
	res.add("compile.fused_bolts", float64(fused), "count")
	res.add("compile.columnar_edges", float64(len(plan.ColumnarEdges)), "count")
	res.add("compile.combined_edges", float64(len(plan.CombinedEdges)), "count")

	// The workload's sub-runs, odd ones traced.
	ref, err := reference(w, seed, w.blocks(subRun))
	if err != nil {
		return nil, err
	}
	if !w.net {
		if _, err := runInProcess(w, seed, warmUp, w.recovery, nil); err != nil {
			return nil, fmt.Errorf("warm-up: %w", err)
		}
	}
	var plain, traced []*runOut
	outs, err := series(subRuns(d), ref, res, func(i int) (*runOut, error) {
		if i%2 == 0 {
			return w.run(seed, subRun, outDir, nil)
		}
		sp := tr.start("perfbench.run")
		defer tr.end(sp)
		return w.run(seed, subRun, outDir, tr)
	})
	if err != nil {
		return nil, err
	}
	for i, o := range outs {
		if i%2 == 0 {
			plain = append(plain, o)
		} else {
			traced = append(traced, o)
		}
	}
	runCPU := medianOf(traced, cpuPerEvent)
	res.add("trace.overhead_ratio", runCPU/medianOf(plain, cpuPerEvent), "ratio")
	addStats(res, traced)

	// Open-loop figures: from the traced sub-runs when the workload is
	// paced, otherwise from the paced Query VI probe; recovery's cost
	// from that probe's interleaved sub-runs with recovery on and off.
	q6, _ := workloadByName("q6-paced")
	probeRef, err := reference(q6, seed, q6.blocks(subRun))
	if err != nil {
		return nil, err
	}
	var on, off []*runOut
	sp := tr.start("perfbench.recovery_probe")
	probe, err := series(recoveryProbeRuns, probeRef, res, func(i int) (*runOut, error) {
		return runInProcess(q6, seed, subRun, i%2 == 0, tr)
	})
	tr.end(sp)
	if err != nil {
		return nil, fmt.Errorf("recovery probe: %w", err)
	}
	for i, o := range probe {
		if i%2 == 0 {
			on = append(on, o)
		} else {
			off = append(off, o)
		}
	}
	paced := on
	if w.period > 0 {
		paced = traced
	}
	lat, late := pacedFigures(paced)
	latOn, _ := pacedFigures(on)
	latOff, _ := pacedFigures(off)
	res.add("workload.lateness_p50_ms", ms(quantile(late, 0.5)), "ms")
	res.add("sink.latency_p50_ms", ms(quantile(lat, 0.5)), "ms")
	res.add("sink.latency_p99_ms", ms(quantile(lat, 0.99)), "ms")
	res.add("storm.recovery_cpu_ratio", medianOf(on, cpuPerEvent)/medianOf(off, cpuPerEvent), "ratio")
	res.add("storm.recovery_latency_ms", ms(quantile(latOn, 0.5)-quantile(latOff, 0.5)), "ms")
	res.add("storm.cuts", medianOf(on, func(o *runOut) float64 {
		var cuts int64
		for _, is := range o.stats.Instances() {
			cuts += is.Cuts()
		}
		return float64(cuts)
	}), "count")

	if err := probeLayers(res, w, seed, runCPU, tr); err != nil {
		return nil, err
	}

	self := tr.selfTimes()
	for _, l := range tracedLayers {
		if _, ok := self[l]; !ok {
			return nil, fmt.Errorf("no spans for layer %s", l)
		}
		res.add("self_ms."+l, ms(self[l]), "ms")
	}
	spans := filepath.Join(outDir, fmt.Sprintf("%s-seed%d-spans.json", w.name, seed))
	if err := tr.write(spans); err != nil {
		return nil, err
	}
	fmt.Printf("%d spans written to %s\n", len(tr.spans), spans)
	return res, nil
}

func spanDur(s span) time.Duration { return time.Duration(s.End - s.Start) }

// addStats derives the runtime's layer figures from the per-executor
// counters of each sub-run, as medians over the sub-runs.
func addStats(res *result, outs []*runOut) {
	res.add("storm.busy_ns_per_event", medianOf(outs, func(o *runOut) float64 {
		return perEvent(o.stats.TotalBusy(), o.events)
	}), "ns")
	res.add("storm.bottleneck_busy_share", medianOf(outs, func(o *runOut) float64 {
		var busiest time.Duration
		for _, is := range o.stats.Instances() {
			busiest = max(busiest, is.Busy())
		}
		return busiest.Seconds() / o.win.wall.Seconds()
	}), "ratio")
	res.add("storm.items_per_event", medianOf(outs, func(o *runOut) float64 {
		var executed int64
		for _, is := range o.stats.Instances() {
			executed += is.Executed()
		}
		return float64(executed) / float64(o.events)
	}), "count")
	res.add("storm.combine_ratio", medianOf(outs, func(o *runOut) float64 {
		in, out := o.stats.Combined()
		if out == 0 {
			return 1
		}
		return float64(in) / float64(out)
	}), "ratio")
}

// probeLayers times each layer's public functions on inputs drawn from
// the workload.
func probeLayers(res *result, w spec, seed int64, runCPU float64, tr *tracer) error {
	def, err := queries.ByName(w.query)
	if err != nil {
		return err
	}

	// workload: drain the columnar generator of every source partition.
	genBlocks := max(1, probeEvents/w.blockEvents)
	env, err := queries.NewEnv(w.yahooConfig(seed, genBlocks), 0)
	if err != nil {
		return err
	}
	sp := tr.start("workload.YahooColSource.NextCols")
	for _, src := range def.ColSources(env, sourcePar) {
		drain(src, func(stream.Columns) {})
	}
	tr.end(sp)
	res.add("workload.gen_ns_per_event", perEvent(spanDur(tr.spans[sp]), int64(genBlocks*w.blockEvents)), "ns")

	// db: the campaign lookup every Query IV event makes, over the ad
	// ids of one partition.
	var ads, usersK []int64
	drain(def.ColSources(env, 1)[0], func(c stream.Columns) {
		if tc, ok := c.(*stream.Cols[stream.Unit, workload.YahooEvent]); ok {
			for _, ev := range tc.Vals {
				ads = append(ads, ev.AdID)
				usersK = append(usersK, ev.UserID)
			}
		}
	})
	if len(ads) == 0 {
		return errors.New("generator probe produced no unit-keyed rows")
	}
	campaigns := make([]int64, len(ads))
	sp = tr.start("db.Env.CampaignOf")
	for i, ad := range ads {
		campaigns[i] = env.CampaignOf(ad)
	}
	tr.end(sp)
	res.add("db.lookup_ns", perEvent(spanDur(tr.spans[sp]), int64(len(ads))), "ns")

	// stream: the fields-grouping hash on campaign and user keys.
	keys := make([]any, 0, 2*len(ads))
	for i := range campaigns {
		keys = append(keys, campaigns[i], usersK[i])
	}
	sp = tr.start("stream.DefaultHash")
	for _, k := range keys {
		hashSink += stream.DefaultHash(k)
	}
	tr.end(sp)
	res.add("stream.hash_ns", perEvent(spanDur(tr.spans[sp]), int64(len(keys))), "ns")

	// core: the sequential denotation on a prefix of the workload.
	evalBlocks := max(1, evalEvents/w.blockEvents)
	evalEnv, err := queries.NewEnv(w.yahooConfig(seed, evalBlocks), 0)
	if err != nil {
		return err
	}
	input := def.ReferenceInput(evalEnv)
	dag := def.DAG(evalEnv, 1)
	cpu0 := cpuTime(syscall.RUSAGE_SELF)
	sp = tr.start("core.DAG.Eval")
	_, err = dag.Eval(map[string][]stream.Event{"yahoo": input})
	tr.end(sp)
	evalCPU := cpuTime(syscall.RUSAGE_SELF) - cpu0
	if err != nil {
		return err
	}
	evalN := int64(evalBlocks * w.blockEvents)
	res.add("core.eval_ns_per_event", perEvent(spanDur(tr.spans[sp]), evalN), "ns")
	res.add("core.engine_overhead", runCPU/perEvent(evalCPU, evalN), "ratio")

	// ml: k-means at the Cluster stage's size, one location's users.
	r := rand.New(rand.NewSource(seed))
	points := make([][]float64, users/10)
	for i := range points {
		points[i] = []float64{float64(r.Intn(500)), float64(r.Intn(500)), float64(r.Intn(500))}
	}
	sp = tr.start("ml.KMeans")
	for range kmeansReps {
		if _, err := ml.KMeans(points, queries.ClusterK, 50, 7); err != nil {
			tr.end(sp)
			return err
		}
	}
	tr.end(sp)
	res.add("ml.kmeans_us", float64(spanDur(tr.spans[sp]).Microseconds())/kmeansReps, "us")

	if err := probeCodec(res, seed, tr); err != nil {
		return err
	}
	if err := probeHop(res, tr); err != nil {
		return err
	}
	return nil
}

// hashSink keeps the hash probe's calls from being optimized away.
var hashSink int

// drain pulls every event out of a columnar source, handing each
// filled batch to fn before recycling it.
func drain(src *workload.YahooColSource, fn func(stream.Columns)) {
	cols := src.ColKind().Get()
	defer func() { cols.Release() }()
	for {
		if src.NextCols(cols, 256) == 0 {
			if _, ok := src.Next(); !ok {
				return
			}
			continue
		}
		fn(cols)
		cols.Release()
		cols = src.ColKind().Get()
	}
}

// probeCodec encodes and decodes 64-row column frames of Query IV's
// source edge with the networked runtime's frame codec.
func probeCodec(res *result, seed int64, tr *tracer) error {
	q4, _ := workloadByName("q4-dense")
	def, _ := queries.ByName(q4.query)
	blocks := codecFrames*codecFrameRows/q4.blockEvents + 1
	env, err := queries.NewEnv(q4.yahooConfig(seed, blocks), 0)
	if err != nil {
		return err
	}
	queries.RegisterWireTypes()
	src := def.ColSources(env, 1)[0]
	frames := make([]codec.Frame, 0, codecFrames)
	var batches []stream.Columns
	for len(frames) < codecFrames {
		cols := src.ColKind().Get()
		if src.NextCols(cols, codecFrameRows) < codecFrameRows {
			cols.Release()
			if _, ok := src.Next(); !ok {
				return errors.New("codec probe: generator exhausted")
			}
			continue
		}
		k, v := cols.Slices()
		frames = append(frames, codec.Frame{Msgs: []codec.WireMessage{{Cols: &codec.WireCols{Kind: cols.Kind().Name(), Keys: k, Vals: v}}}})
		batches = append(batches, cols)
	}
	defer func() {
		for _, b := range batches {
			b.Release()
		}
	}()
	var buf bytes.Buffer
	enc := codec.NewFrameEncoder(&buf)
	sp := tr.start("codec.FrameEncoder.Encode")
	for i := range frames {
		if err := enc.Encode(&frames[i]); err != nil {
			tr.end(sp)
			return fmt.Errorf("codec probe: %w", err)
		}
	}
	tr.end(sp)
	rows := int64(codecFrames * codecFrameRows)
	res.add("codec.encode_ns_per_event", perEvent(spanDur(tr.spans[sp]), rows), "ns")
	res.add("codec.bytes_per_event", float64(buf.Len())/float64(rows), "B")
	dec := codec.NewFrameDecoder(&buf)
	var f codec.Frame
	sp = tr.start("codec.FrameDecoder.Decode")
	for range frames {
		if err := dec.Decode(&f); err != nil {
			tr.end(sp)
			return fmt.Errorf("codec probe: %w", err)
		}
	}
	tr.end(sp)
	res.add("codec.decode_ns_per_event", perEvent(spanDur(tr.spans[sp]), rows), "ns")
	return nil
}

// probeHop runs spout → pass-through bolt → sink, built with the
// public storm API, over boxed events.
func probeHop(res *result, tr *tracer) error {
	events := make([]stream.Event, 0, hopEvents+hopEvents/hopBlock)
	for i := range hopEvents {
		events = append(events, stream.Item(stream.Unit{}, int64(i)))
		if (i+1)%hopBlock == 0 {
			events = append(events, stream.Mark(stream.Marker{Seq: int64(i / hopBlock)}))
		}
	}
	top := storm.NewTopology("perfbench-hop")
	top.AddSpout("src", 1, func(int) storm.Spout { return storm.SliceSpout(events) })
	top.AddBolt("pass", 1, func(int) storm.Bolt {
		return storm.BoltFunc(func(e stream.Event, emit func(stream.Event)) { emit(e) })
	}).ShuffleGrouping("src", true)
	top.AddSink("sink", "pass")
	sp := tr.start("storm.hop")
	r, err := top.Run()
	tr.end(sp)
	if err != nil {
		return fmt.Errorf("hop probe: %w", err)
	}
	if got := len(r.Sinks["sink"]); got != len(events) {
		return fmt.Errorf("hop probe: sink got %d events, want %d", got, len(events))
	}
	res.add("storm.hop_ns_per_event", perEvent(spanDur(tr.spans[sp]), hopEvents), "ns")
	return nil
}
