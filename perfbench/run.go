package main

import (
	"fmt"
	"os"
	"sort"
	"time"

	"datatrace/internal/compile"
	"datatrace/internal/metrics"
	"datatrace/internal/queries"
	"datatrace/internal/storm"
	"datatrace/internal/stream"
	"datatrace/internal/workload"
)

// Every workload runs the generated (compiled) variant at per-stage
// parallelism 2 over 2 source partitions, with 200 users and no
// modelled database delay.
const (
	par        = 2
	sourcePar  = 2
	users      = 200
	netWorkers = 2
)

// spec describes one workload.
type spec struct {
	name  string
	why   string
	query string
	// blockEvents is the number of events between two markers.
	blockEvents int
	// net runs the job on netWorkers worker processes over localhost
	// TCP instead of in process.
	net bool
	// period, when set, releases one block per period (open loop);
	// zero drains the sources as fast as backpressure allows.
	period time.Duration
	// recovery turns marker-cut checkpointing on.
	recovery bool
	// blocksPerSecond sizes runs: a run of s seconds has
	// s·blocksPerSecond blocks. For the closed-loop workloads it is
	// about the measured saturated rate on a 2-core machine, so a run
	// lasts about s seconds there.
	blocksPerSecond int
}

var workloads = []spec{
	{
		name: "q4-dense", query: "IV", blockEvents: 10000, blocksPerSecond: 600,
		why: "Query IV in process, closed loop at saturation: executor loop, batched columnar transport, fusion and combiners",
	},
	{
		name: "q4-tcp", query: "IV", blockEvents: 10000, net: true, blocksPerSecond: 200,
		why: "Query IV on 2 worker processes over localhost TCP, closed loop: frame codec, socket writes and worker spawn",
	},
	{
		name: "q6-paced", query: "VI", blockEvents: 500, period: 2500 * time.Microsecond, recovery: true, blocksPerSecond: 400,
		why: "Query VI in process with recovery, open loop at 200k events/s: keyed-state snapshots, recovery executor, k-means",
	},
}

func workloadByName(name string) (spec, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return spec{}, fmt.Errorf("unknown workload %q", name)
}

func (w spec) yahooConfig(seed int64, blocks int) workload.YahooConfig {
	cfg := workload.DefaultYahooConfig()
	cfg.Users = users
	cfg.EventsPerSecond = w.blockEvents
	cfg.Seconds = blocks
	cfg.Seed = seed
	return cfg
}

// runOut is what one measured run produced.
type runOut struct {
	blocks int
	events int64
	win    window
	// peakRSS is the summed peak resident memory of the run's
	// processes, read before the output check.
	peakRSS int64
	sink    []stream.Event
	stats   *metrics.Stats
	// In-process runs only: block release times, aligned marker
	// arrivals beside the sink, and open-loop generator lateness.
	release  []time.Time
	arrivals []time.Time
	lateness []time.Duration
}

// job is one compiled in-process topology, ready to run.
type job struct {
	top   *storm.Topology
	plan  *compile.Plan
	sched *schedule
	srcs  []*source
	tap   *tap
}

// setUp builds the environment for a stream of sched's blocks and
// compiles the workload's DAG with the compiler's default passes,
// source partitions under sched, and a tap beside the sink.
func setUp(w spec, seed int64, sched *schedule, recovery bool, tr *tracer) (*job, error) {
	def, err := queries.ByName(w.query)
	if err != nil {
		return nil, err
	}
	sp := tr.start("queries.NewEnv")
	env, err := queries.NewEnv(w.yahooConfig(seed, sched.stop), 0)
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	parts := def.ColSources(env, sourcePar)
	srcs := make([]*source, len(parts))
	for i, g := range parts {
		srcs[i] = &source{gen: g, sched: sched, part: i}
	}
	opts := &compile.Options{FuseSort: true, FuseChains: true, Combiners: true}
	if recovery {
		opts.Recovery = &storm.RecoveryPolicy{Enabled: true}
	}
	sp = tr.start("compile.CompileWithPlan")
	top, plan, err := compile.CompileWithPlan(def.DAG(env, par), map[string]compile.SourceSpec{
		"yahoo": {
			Parallelism: sourcePar,
			Cols:        parts[0].ColKind(),
			Factory:     func(i int) storm.Spout { return srcs[i] },
		},
	}, opts)
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	in := top.Inputs("sink")
	if len(in) != 1 {
		return nil, fmt.Errorf("compiled topology's sink has inputs %v, want one", in)
	}
	t := &tap{}
	top.AddBolt("perfbench-tap", 1, func(int) storm.Bolt { return t }).GlobalGrouping(in[0], true)
	return &job{top: top, plan: plan, sched: sched, srcs: srcs, tap: t}, nil
}

// blocks is the block count of a run of d.
func (w spec) blocks(d time.Duration) int {
	return max(1, int(d.Seconds()*float64(w.blocksPerSecond)))
}

// runInProcess sets up and runs one in-process job of d's blocks.
func runInProcess(w spec, seed int64, d time.Duration, recovery bool, tr *tracer) (*runOut, error) {
	blocks := w.blocks(d)
	j, err := setUp(w, seed, newSchedule(sourcePar, blocks, w.period), recovery, tr)
	if err != nil {
		return nil, err
	}
	if w.period > 0 {
		for _, src := range j.srcs {
			if src.wake, err = newWaker(); err != nil {
				return nil, err
			}
			defer src.wake.close()
		}
	}
	m := startMeter()
	sp := tr.start("storm.Topology.Run")
	res, err := j.top.Run()
	tr.end(sp)
	win := m.stop()
	if err != nil {
		return nil, fmt.Errorf("%s run: %w", w.name, err)
	}
	rss, err := peakRSS()
	if err != nil {
		return nil, err
	}
	return &runOut{
		blocks:   blocks,
		events:   int64(blocks) * int64(w.blockEvents),
		win:      win,
		peakRSS:  rss,
		sink:     res.Sinks["sink"],
		stats:    res.Stats,
		release:  j.sched.releases(),
		arrivals: j.tap.arrivals,
		lateness: j.sched.lateness,
	}, nil
}

// netRun runs the workload's query on a localhost TCP cluster over a
// stream of blocks blocks. statsDir, when set, collects the workers'
// allocation and memory samples.
func netRun(w spec, seed int64, blocks int, statsDir string) (*storm.NetResult, error) {
	ns := queries.NetSpec{
		Spec:    queries.Spec{Query: w.query, Variant: queries.Generated, Par: par, SourcePar: sourcePar, Recovery: w.recovery},
		Workers: netWorkers,
		Cfg:     w.yahooConfig(seed, blocks),
	}
	return queries.RunNetworked(ns, func(o *storm.NetOptions) {
		// A failed worker is an error here, not something to recover
		// from and hide.
		o.MaxRestarts = -1
		if statsDir != "" {
			o.Env = append(os.Environ(), envWorkerStats+"="+statsDir)
		}
	})
}

// runNetworked runs one networked job of d's blocks.
func runNetworked(w spec, seed int64, d time.Duration, scratch string, tr *tracer) (*runOut, error) {
	blocks := w.blocks(d)
	statsDir, err := os.MkdirTemp(scratch, "workers-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(statsDir)
	m := startMeter()
	sp := tr.start("queries.RunNetworked")
	res, err := netRun(w, seed, blocks, statsDir)
	tr.end(sp)
	win := m.stop()
	if err != nil {
		return nil, fmt.Errorf("%s run: %w", w.name, err)
	}
	rss, err := peakRSS()
	if err != nil {
		return nil, err
	}
	samples, err := readWorkerSamples(statsDir)
	if err != nil {
		return nil, err
	}
	if len(samples) != netWorkers {
		return nil, fmt.Errorf("%d worker samples, want %d", len(samples), netWorkers)
	}
	for _, s := range samples {
		win.allocs += s.allocs
		win.allocBytes += s.allocBytes
		rss += s.peakRSS
	}
	return &runOut{
		blocks:  blocks,
		events:  int64(blocks) * int64(w.blockEvents),
		win:     win,
		peakRSS: rss,
		sink:    res.Sinks["sink"],
		stats:   res.Stats,
	}, nil
}

// run dispatches to the workload's runtime.
func (w spec) run(seed int64, d time.Duration, scratch string, tr *tracer) (*runOut, error) {
	if w.net {
		return runNetworked(w, seed, d, scratch, tr)
	}
	return runInProcess(w, seed, d, w.recovery, tr)
}

// setupReps is how many set-ups measureSetup times in process, and
// netSetupReps how many networked ones; it reports the median.
const (
	setupReps    = 21
	netSetupReps = 9
)

// measureSetup times the workload's set-up: environment plus
// compilation in process; worker spawn, rendezvous and a one-block run
// for the networked workload, whose workers build their own
// environment and topology.
func (w spec) measureSetup(seed int64) (time.Duration, error) {
	reps := setupReps
	if w.net {
		reps = netSetupReps
	}
	times := make([]time.Duration, reps)
	for i := range times {
		t0 := time.Now()
		if w.net {
			if _, err := netRun(w, seed, 1, ""); err != nil {
				return 0, fmt.Errorf("networked set-up: %w", err)
			}
		} else if _, err := setUp(w, seed, newSchedule(sourcePar, 1, w.period), w.recovery, nil); err != nil {
			return 0, err
		}
		times[i] = time.Since(t0)
	}
	return medianDuration(times), nil
}

func medianDuration(ds []time.Duration) time.Duration {
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return s[len(s)/2]
}
