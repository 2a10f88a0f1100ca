// Command perfbench is the repository's benchmark. One invocation
// measures one workload once and prints every metric by name with its
// unit; the last line of its output is a JSON summary. With -trace 1
// it reports per-layer metrics instead of end-to-end ones. See
// README.md in this directory.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"datatrace/internal/queries"
)

// metric is one named measurement.
type metric struct {
	name  string
	value float64
	unit  string
}

// result is one invocation's outcome.
type result struct {
	attempted, failed int
	metrics           []metric
	// subRuns keeps each sub-run's main figures for the run record.
	subRuns []subRunFigures
}

type subRunFigures struct {
	EventsPerS         float64 `json:"events_per_s"`
	CPUNsPerEvent      float64 `json:"cpu_ns_per_event"`
	AllocsPerEvent     float64 `json:"allocs_per_event"`
	AllocBytesPerEvent float64 `json:"alloc_bytes_per_event"`
	PeakRSSMB          float64 `json:"peak_rss_mb"`
}

func (r *result) add(name string, value float64, unit string) {
	r.metrics = append(r.metrics, metric{name, value, unit})
}

func main() {
	// Networked runs re-execute this binary as their worker processes;
	// in a worker, RunWorkerIfSpawned serves and exits.
	startWorkerSampler()
	queries.RunWorkerIfSpawned()

	name := flag.String("workload", "", "workload to run: q4-dense, q4-tcp or q6-paced")
	seed := flag.Int64("seed", 1, "seed of the generated workload")
	seconds := flag.Int("seconds", 20, "length of the measured run in seconds: that many one-second sub-runs")
	trace := flag.Int("trace", 0, "1 reports per-layer metrics from a traced run, 0 end-to-end metrics")
	out := flag.String("out", ".bench_build/out", "directory for run records, span files and worker samples")
	flag.Parse()

	if err := run(*name, *seed, *seconds, *trace, *out); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(name string, seed int64, seconds, trace int, outDir string) error {
	w, err := workloadByName(name)
	if err != nil {
		return err
	}
	if seconds < 1 {
		return fmt.Errorf("-seconds must be at least 1, got %d", seconds)
	}
	if trace != 0 && trace != 1 {
		return fmt.Errorf("-trace must be 0 or 1, got %d", trace)
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	d := time.Duration(seconds) * time.Second
	fmt.Printf("workload %s (%s)\nseed %d, run %v, trace %d\n", w.name, w.why, seed, d, trace)

	var res *result
	if trace == 1 {
		res, err = measureLayers(w, seed, d, outDir)
	} else {
		res, err = measureEndToEnd(w, seed, d, outDir)
	}
	if err != nil {
		return err
	}
	for _, m := range res.metrics {
		fmt.Printf("%-34s %16.6g %s\n", m.name, m.value, m.unit)
	}
	fmt.Printf("%-34s %16.6g (%d of %d blocks)\n", "failed_block_ratio", float64(res.failed)/float64(max(1, res.attempted)), res.failed, res.attempted)
	return emit(res, filepath.Join(outDir, fmt.Sprintf("%s-seed%d-trace%d.json", w.name, seed, trace)), w.name, seed, seconds)
}

// emit writes the run record and prints the JSON summary line.
func emit(res *result, record, workload string, seed int64, seconds int) error {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	ms := make(map[string]value, len(res.metrics))
	for _, m := range res.metrics {
		ms[m.name] = value{m.value, m.unit}
	}
	summary := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{res.failed == 0, res.attempted, res.failed, ms}
	line, err := json.Marshal(summary)
	if err != nil {
		return err
	}
	rec, err := json.MarshalIndent(struct {
		Workload string          `json:"workload"`
		Seed     int64           `json:"seed"`
		Seconds  int             `json:"seconds"`
		Result   any             `json:"result"`
		SubRuns  []subRunFigures `json:"sub_runs,omitempty"`
	}{workload, seed, seconds, summary, res.subRuns}, "", " ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(record, rec, 0o644); err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// warmUp is how long an in-process workload runs before the measured
// sub-runs, so that heap growth, pools and lazy set-up do not land in
// them.
const warmUp = 2 * time.Second

// subRun is the nominal length of one sub-run. A run of d is d/subRun
// sub-runs of the workload's job, each over the same input, and every
// end-to-end figure is the median over them: on a shared host,
// one-second windows swing by ±10% or more, and a single sub-run's
// memory peak by more (it rises whenever a stall backs data up).
const subRun = time.Second

// subRuns is how many sub-runs a run of d makes: at least two, so
// that a traced run has an untraced and a traced one to compare.
func subRuns(d time.Duration) int { return max(2, int(d/subRun)) }

// measureEndToEnd measures the workload with tracing off: set-up, a
// warm-up (in process), then the measured sub-runs, each checked
// after its timed window.
func measureEndToEnd(w spec, seed int64, d time.Duration, outDir string) (*result, error) {
	setup, err := w.measureSetup(seed)
	if err != nil {
		return nil, err
	}
	ref, err := reference(w, seed, w.blocks(subRun))
	if err != nil {
		return nil, err
	}
	if !w.net {
		if _, err := runInProcess(w, seed, warmUp, w.recovery, nil); err != nil {
			return nil, fmt.Errorf("warm-up: %w", err)
		}
	}
	res := &result{}
	outs, err := series(subRuns(d), ref, res, func(int) (*runOut, error) { return w.run(seed, subRun, outDir, nil) })
	if err != nil {
		return nil, err
	}
	res.add("events_per_s", medianOf(outs, eventsPerSecond), "1/s")
	res.add("cpu_ns_per_event", medianOf(outs, cpuPerEvent), "ns")
	res.add("allocs_per_event", medianOf(outs, allocsPerEvent), "count")
	res.add("alloc_bytes_per_event", medianOf(outs, allocBytesPerEvent), "B")
	res.add("peak_rss_mb", medianOf(outs, peakRSSMB), "MB")
	res.add("setup_s", setup.Seconds(), "s")
	for _, o := range outs {
		res.subRuns = append(res.subRuns, subRunFigures{eventsPerSecond(o), cpuPerEvent(o), allocsPerEvent(o), allocBytesPerEvent(o), peakRSSMB(o)})
	}
	fmt.Printf("%d sub-runs of %d blocks, %d events each\n", len(outs), outs[0].blocks, outs[0].events)
	if w.period > 0 {
		lat, late := pacedFigures(outs)
		fmt.Printf("open-loop latency p50 %.3f ms, p99 %.3f ms over %d blocks; generator lateness p50 %.3f ms\n",
			ms(quantile(lat, 0.5)), ms(quantile(lat, 0.99)), len(lat), ms(quantile(late, 0.5)))
	}
	return res, nil
}

// series runs n sub-runs and checks each one's sink output against
// the reference right after it, outside its timed window; the output
// is then dropped, so it does not pile up across sub-runs. Before each
// sub-run the heap is returned to the operating system and the peak
// RSS reset, so every sub-run's memory figure is its own.
func series(n int, ref *refBlocks, res *result, run func(i int) (*runOut, error)) ([]*runOut, error) {
	outs := make([]*runOut, n)
	for i := range outs {
		if err := resetPeakRSS(); err != nil {
			return nil, err
		}
		out, err := run(i)
		if err != nil {
			return nil, err
		}
		res.attempted += len(ref.blocks)
		res.failed += ref.check(out.sink)
		out.sink = nil
		outs[i] = out
	}
	return outs, nil
}
