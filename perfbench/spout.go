package main

import (
	"fmt"
	"sync"
	"time"

	"datatrace/internal/storm"
	"datatrace/internal/stream"
	"datatrace/internal/workload"
)

// A block is the run of items between two markers of a Yahoo source
// partition, closed by its marker. Every partition carries every
// marker, so block b is complete when all partitions have emitted
// marker b.

// schedule is the release control every source partition of one
// in-process run shares; the run has a fixed number of blocks. Open
// loop (period > 0): block b is released at start + b·period on every
// partition, whether or not the topology keeps up. Closed loop
// (period == 0): partitions start blocks as fast as backpressure lets
// them.
type schedule struct {
	period time.Duration
	// stop is the number of blocks the run emits.
	stop int

	mu    sync.Mutex
	start time.Time
	// begun[p] counts the blocks partition p has started.
	begun []int
	// release[b] is block b's release time: scheduled (open loop) or
	// the first partition's actual start (closed loop).
	release []time.Time
	// lateness holds, per partition start of an open-loop block, how
	// long after its scheduled release the partition began it.
	lateness []time.Duration
}

// newSchedule releases blocks blocks to parts partitions, one every
// period, or as fast as they are taken when period is 0.
func newSchedule(parts, blocks int, period time.Duration) *schedule {
	return &schedule{period: period, stop: blocks, begun: make([]int, parts)}
}

// begin starts partition p's next block and returns its scheduled
// release time (zero in closed loop); ok is false when the run has no
// more blocks for p.
func (s *schedule) begin(p int) (due time.Time, ok bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	now := time.Now()
	if s.start.IsZero() {
		s.start = now
	}
	b := s.begun[p]
	if b >= s.stop {
		return time.Time{}, false
	}
	s.begun[p] = b + 1
	if s.period == 0 {
		if b == len(s.release) {
			s.release = append(s.release, now)
		}
		return time.Time{}, true
	}
	return s.start.Add(time.Duration(b) * s.period), true
}

// late records how long after its scheduled release a partition
// started an open-loop block.
func (s *schedule) late(d time.Duration) {
	s.mu.Lock()
	s.lateness = append(s.lateness, d)
	s.mu.Unlock()
}

// releases returns the blocks' release times; call it after the run.
func (s *schedule) releases() []time.Time {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.period == 0 {
		return s.release
	}
	rel := make([]time.Time, s.stop)
	for b := range rel {
		rel[b] = s.start.Add(time.Duration(b) * s.period)
	}
	return rel
}

// source is one Yahoo source partition under a schedule. It keeps the
// generator's columnar form, so the compiled topology's source edges
// stay columnar; blocks start through the schedule, and the stream
// ends after the schedule's last block.
type source struct {
	gen   *workload.YahooColSource
	sched *schedule
	part  int
	// wake, set for open-loop runs, waits for block releases.
	wake *waker
	// inBlock is true between a block's start and its marker.
	inBlock bool
	done    bool
}

var _ storm.ColSpout = (*source)(nil)

func (s *source) ColKind() *stream.ColKind { return s.gen.ColKind() }

// enter starts the next block if none is open; false ends the stream.
func (s *source) enter() bool {
	if s.done {
		return false
	}
	if !s.inBlock {
		due, ok := s.sched.begin(s.part)
		if !ok {
			s.done = true
			return false
		}
		if !due.IsZero() {
			if err := s.wake.until(due); err != nil {
				panic(fmt.Sprintf("perfbench: source partition %d: %v", s.part, err))
			}
			s.sched.late(time.Since(due))
		}
		s.inBlock = true
	}
	return true
}

func (s *source) NextCols(out stream.Columns, max int) int {
	if !s.enter() {
		return 0
	}
	return s.gen.NextCols(out, max)
}

func (s *source) Next() (stream.Event, bool) {
	if !s.enter() {
		return stream.Event{}, false
	}
	e, ok := s.gen.Next()
	if !ok {
		// The generator ran out before the schedule did: the config
		// holds too few blocks for the run.
		panic(fmt.Sprintf("perfbench: source partition %d exhausted inside a block", s.part))
	}
	if e.IsMarker {
		s.inBlock = false
	}
	return e, true
}

// tap is a bolt wired beside the sink, on the sink's input with
// marker alignment: it records when each block's aligned marker
// arrives there.
type tap struct {
	arrivals []time.Time
}

func (t *tap) Next(e stream.Event, _ func(stream.Event)) {
	if !e.IsMarker {
		return
	}
	seq := int(e.Marker.Seq)
	for len(t.arrivals) <= seq {
		t.arrivals = append(t.arrivals, time.Time{})
	}
	//lint:ignore DTT002 a latency probe, not an operator: the tap emits nothing, so the arrival time it records never enters a sink's trace
	t.arrivals[seq] = time.Now()
}
