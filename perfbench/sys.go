package main

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"runtime/debug"
	"runtime/metrics"
	"strconv"
	"strings"
	"syscall"
	"time"

	"datatrace/internal/storm"
)

// This file holds the process-level meters: CPU from getrusage (the
// children figure covers reaped worker processes), heap allocation
// counters, and peak resident memory from /proc. Worker processes of
// a networked run are this binary re-executed; they sample their own
// allocation counters and peak RSS into a small file the coordinator
// sums after the run.

// envWorkerStats names the directory worker processes write their
// sample files into. Set only on workers of a measured networked run.
const envWorkerStats = "PERFBENCH_WORKER_STATS"

// workerSampleEvery is the worker sampling period. A worker's last
// sample is at most this old when it exits; by then its executors
// have finished, so only process teardown goes unsampled.
const workerSampleEvery = 5 * time.Millisecond

// cpuTime returns the user+system CPU time of this process
// (RUSAGE_SELF) or of its reaped children (RUSAGE_CHILDREN).
func cpuTime(who int) time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(who, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// allocSamples are the runtime counters allocCounters reads. Unlike
// runtime.ReadMemStats they are read without stopping the world, so a
// worker can sample them often.
var allocSamples = []metrics.Sample{
	{Name: "/gc/heap/allocs:objects"},
	{Name: "/gc/heap/tiny/allocs:objects"},
	{Name: "/gc/heap/allocs:bytes"},
}

// allocCounters returns the cumulative heap allocation count (tiny
// allocations included, as runtime.MemStats.Mallocs counts them) and
// bytes of this process. Callers must not run it concurrently.
func allocCounters() (objects, bytes uint64) {
	metrics.Read(allocSamples)
	return allocSamples[0].Value.Uint64() + allocSamples[1].Value.Uint64(), allocSamples[2].Value.Uint64()
}

// peakRSS returns this process's peak resident set size (VmHWM).
func peakRSS() (int64, error) {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("reading peak RSS: %w", err)
	}
	sc := bufio.NewScanner(bytes.NewReader(data))
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "VmHWM:") {
			continue
		}
		f := strings.Fields(line)
		if len(f) < 2 {
			break
		}
		kb, err := strconv.ParseInt(f[1], 10, 64)
		if err != nil {
			return 0, fmt.Errorf("parsing VmHWM %q: %w", line, err)
		}
		return kb << 10, nil
	}
	return 0, fmt.Errorf("no VmHWM line in /proc/self/status")
}

// resetPeakRSS returns the free heap to the operating system and
// resets the process's peak RSS to its current RSS, so a following
// peakRSS reading covers only what ran in between.
func resetPeakRSS() error {
	debug.FreeOSMemory()
	// "5" resets the peak RSS (Linux 4.0+, proc(5) clear_refs).
	if err := os.WriteFile("/proc/self/clear_refs", []byte("5"), 0); err != nil {
		return fmt.Errorf("resetting peak RSS: %w", err)
	}
	return nil
}

// meter brackets one measured window of this process and its
// children.
type meter struct {
	start                time.Time
	self, children       time.Duration
	allocObjs, allocByte uint64
}

func startMeter() meter {
	objs, byt := allocCounters()
	return meter{
		start:     time.Now(),
		self:      cpuTime(syscall.RUSAGE_SELF),
		children:  cpuTime(syscall.RUSAGE_CHILDREN),
		allocObjs: objs,
		allocByte: byt,
	}
}

// window is what a meter measured.
type window struct {
	wall       time.Duration
	cpu        time.Duration // self + reaped children
	allocs     uint64
	allocBytes uint64
}

func (m meter) stop() window {
	wall := time.Since(m.start)
	objs, byt := allocCounters()
	return window{
		wall:       wall,
		cpu:        cpuTime(syscall.RUSAGE_SELF) - m.self + cpuTime(syscall.RUSAGE_CHILDREN) - m.children,
		allocs:     objs - m.allocObjs,
		allocBytes: byt - m.allocByte,
	}
}

// workerSample is one worker's last self-report.
type workerSample struct {
	allocs, allocBytes uint64
	peakRSS            int64
}

const workerSampleSize = 24

// startWorkerSampler runs in a spawned worker before it starts
// serving: a goroutine rewrites the worker's sample file every
// workerSampleEvery until the process exits. It does nothing when
// this process is not a worker of a measured run.
func startWorkerSampler() {
	dir := os.Getenv(envWorkerStats)
	if dir == "" {
		return
	}
	if _, _, ok := storm.WorkerEnvConfig(); !ok {
		return
	}
	f, err := os.Create(filepath.Join(dir, fmt.Sprintf("worker-%d.stats", os.Getpid())))
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench worker: stats file:", err)
		return
	}
	// The goroutine lives as long as the process: the worker exits
	// through os.Exit once its run is served, and the file is closed by
	// the exit.
	go func() {
		var buf [workerSampleSize]byte
		var rss int64
		for i := 0; ; i++ {
			// Reading /proc costs more than the counters, so the peak
			// RSS is refreshed every fourth sample.
			if i%4 == 0 {
				if r, err := peakRSS(); err == nil {
					rss = r
				}
			}
			objs, byt := allocCounters()
			binary.LittleEndian.PutUint64(buf[0:], objs)
			binary.LittleEndian.PutUint64(buf[8:], byt)
			binary.LittleEndian.PutUint64(buf[16:], uint64(rss))
			if _, err := f.WriteAt(buf[:], 0); err != nil {
				return
			}
			time.Sleep(workerSampleEvery)
		}
	}()
}

// readWorkerSamples reads every sample file in dir.
func readWorkerSamples(dir string) ([]workerSample, error) {
	names, err := filepath.Glob(filepath.Join(dir, "worker-*.stats"))
	if err != nil {
		return nil, err
	}
	out := make([]workerSample, 0, len(names))
	for _, n := range names {
		b, err := os.ReadFile(n)
		if err != nil {
			return nil, fmt.Errorf("reading worker sample: %w", err)
		}
		if len(b) != workerSampleSize {
			return nil, fmt.Errorf("worker sample %s: %d bytes, want %d", n, len(b), workerSampleSize)
		}
		out = append(out, workerSample{
			allocs:     binary.LittleEndian.Uint64(b[0:]),
			allocBytes: binary.LittleEndian.Uint64(b[8:]),
			peakRSS:    int64(binary.LittleEndian.Uint64(b[16:])),
		})
	}
	return out, nil
}
