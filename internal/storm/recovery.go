package storm

import (
	"fmt"
	"time"

	"datatrace/internal/stream"
)

// This file is the recovery strategy of the bolt executor (runBolt):
// the runtime half of the paper's §1 claim that marker-delimited cuts
// give a principled point for checkpointing and recovery, plus the
// drop-and-log degradation every bolt executor shares.
//
// An aligned bolt executor only mutates its operator instance when
// the MRG merger flushes a complete block (items of block i from
// every input channel, then marker i) — between cuts the instance is
// untouched. The recovery strategy exploits exactly that:
//
//   - Emissions are buffered per block and sent downstream only when
//     the block's cut completes, with every serialization performed
//     before the first send. Downstream therefore never observes a
//     partially processed block: the flush is transactional. Column
//     batches reach the bolt row by row, so their output is buffered
//     the same way.
//   - At each completed cut the executor snapshots its instance
//     (Recoverable — core.Snapshotter under the compile adapters)
//     and records the round-robin cursors. The MRG merger itself is
//     the replay buffer: it pops a block, releasing its batches, only
//     after the block and its marker were fully delivered, so at any
//     crash point colMerge.Pending is exactly the per-channel input —
//     boxed events and whole batches — received since each channel's
//     last flushed block.
//   - On a crash (a real bug or an injected fault) the executor
//     builds a fresh instance, restores the last snapshot, rebuilds
//     the merger by replaying the pending input, and resumes.
//     Replayed events are re-delivered at least once; because the
//     state was rolled back to the same marker cut the re-delivery is
//     effectively exactly-once, and the run's output is
//     trace-equivalent to a failure-free run.
//
// Executors that cannot recover (no recovery policy, an unaligned or
// unsnapshottable bolt, or an exhausted restart budget) degrade per
// RecoveryPolicy.OnUnrecoverable: abort the topology, or drop items
// and keep forwarding sequence-deduplicated markers so downstream
// alignment still progresses.

// Recoverable is the optional Bolt extension enabling marker-cut
// recovery: a snapshot taken at a cut restores an equivalent bolt on
// a fresh instance. The compile package adapts core.Snapshotter
// instances to this interface; handcrafted bolts may implement it
// directly. Snapshot must return an isolated copy (later mutation of
// the live bolt cannot corrupt it).
type Recoverable interface {
	Snapshot() ([]byte, error)
	Restore([]byte) error
}

// recovery is the marker-cut recovery state of a bolt executor; rec
// is false (and the rest unused) unless the strategy is selected.
type recovery struct {
	rec bool
	// outBuf holds the current block's pending output: bolt emissions
	// (for sinks: delivered events), flushed at the cut.
	outBuf []stream.Event
	// snap/rrSnap are the committed checkpoint: instance state and
	// round-robin cursors at the last completed cut. hasSnap is false
	// until the first cut (restart then uses a fresh instance).
	snap     []byte
	hasSnap  bool
	rrSnap   []int
	restarts int
	// markerSeen maps a marker sequence number to the wall time
	// (UnixNano) its first copy arrived at this executor; the entry
	// survives restarts, so the marker-cut lag recorded at the cut's
	// completion includes any recovery time spent in between. nil when
	// observability is disabled.
	markerSeen map[int64]int64
}

// startRecovery selects the recovery strategy: the bolt's emissions
// go to the block buffer from here on.
func (x *boltExec) startRecovery() {
	x.rec = true
	x.rrSnap = make([]int, len(x.rc.subs))
	x.emitFn = func(e stream.Event) { x.outBuf = append(x.outBuf, e) }
	if x.obs {
		x.markerSeen = map[int64]int64{}
	}
}

// completeCut runs when the merger has flushed a complete block and
// its marker through deliver: snapshot the instance at the cut, flush
// the block's buffered output transactionally, then commit the
// checkpoint. A panic before the flush's first send (snapshot error,
// serialization failure, injected corruption) rolls back to the
// previous cut with nothing delivered; after the sends only
// executor-local bookkeeping remains. The merger pops the flushed
// block itself once the cut's marker delivery returns, so no replay
// trimming is needed here. seq is the cut's marker sequence number,
// used to record the marker-cut lag (first marker arrival to this
// commit, recovery time included).
func (x *boltExec) completeCut(seq int64) {
	var snap []byte
	snapped := x.rc.isSink
	if r, ok := x.bolt.(Recoverable); ok {
		b, err := r.Snapshot()
		if err != nil {
			panic(fmt.Sprintf("snapshot failed at marker cut: %v", err))
		}
		snap, snapped = b, true
	}
	x.flushOut()
	if snapped {
		x.snap, x.hasSnap = snap, true
	}
	x.rrSnap = append(x.rrSnap[:0], x.em.rrNext...)
	// The buffered events were copied on send (or into the sink's
	// output), so the backing array is reused for the next block.
	x.outBuf = x.outBuf[:0]
	if x.markerSeen != nil {
		if first, ok := x.markerSeen[seq]; ok {
			x.is.ObserveMarkerLag(time.Duration(time.Now().UnixNano() - first))
			delete(x.markerSeen, seq)
		}
	}
	x.is.AddCuts(1)
	// The cut is committed: enter the reconfiguration barrier last, so
	// a rescale at this cut sees the snapshot and an empty transport
	// (nothing runs between here and the next input). A true return
	// means a rescale replaced this executor's instance set.
	if x.g != nil && x.cg.cutDone(x.g) {
		x.retired = true
	}
}

// flushOut sends the buffered block downstream (or appends it to the
// sink's collected output).
func (x *boltExec) flushOut() {
	if len(x.outBuf) == 0 {
		return
	}
	if x.rc.isSink {
		x.rc.appendSink(x.outBuf...)
		return
	}
	x.em.sendBlock(x.outBuf)
}

// recoverFrom restarts the executor after a crash: restore the last
// checkpoint and replay pending, the in-flight input captured from
// the crashed merger. It retries up to the policy's restart budget (a
// deterministic bug re-panics during replay) and returns (nil, nil)
// on success, or the still-pending input with the terminal error so a
// drop-and-log caller can drain it.
func (x *boltExec) recoverFrom(cause error, pending [][]colEntry) ([][]colEntry, error) {
	if _, ok := x.bolt.(Recoverable); !ok && !x.rc.isSink {
		return pending, fmt.Errorf("%w (bolt is not snapshottable)", cause)
	}
	for {
		x.restarts++
		if x.restarts > x.pol.maxRestarts() {
			return pending, fmt.Errorf("%w (restart budget of %d exhausted)", cause, x.pol.maxRestarts())
		}
		x.is.AddRestarts(1)
		x.pol.logf("storm: restarting %s[%d] from its last marker cut after: %v", x.rc.name, x.instance, cause)
		if err := x.restart(); err != nil {
			return pending, fmt.Errorf("storm: restart of %s[%d] failed: %w", x.rc.name, x.instance, err)
		}
		left, err := x.replayAll(pending)
		if err != nil {
			cause, pending = err, left
			continue
		}
		return nil, nil
	}
}

// restart rebuilds the executor at its last committed cut: a fresh
// bolt instance restored from the snapshot, reset round-robin
// cursors, an empty merger, and an empty output buffer. The emitter's
// transport buffers — combining buffers included — need no discard:
// between cuts every emission is parked in outBuf (never pushed to
// the transport), a crash inside a cut's flush can only fire before
// the first buffer append (sendBlock wires everything first; flushAll
// itself cannot panic — combiner In/Combine are pure by the template
// contract), and sendBlock ends in flushAll, which drains every
// combining buffer before flushing, so both buffer layers are
// provably empty at every restart point.
func (x *boltExec) restart() error {
	if !x.rc.isSink {
		b := x.rc.bolt(x.instance)
		r, ok := b.(Recoverable)
		if !ok {
			return fmt.Errorf("restarted bolt is not snapshottable")
		}
		if x.hasSnap {
			if err := r.Restore(x.snap); err != nil {
				return fmt.Errorf("restore: %w", err)
			}
		}
		x.bolt = b
	}
	x.em.rrNext = append(x.em.rrNext[:0], x.rrSnap...)
	x.merge = x.newMerge(x.rc.nChannels)
	x.outBuf = nil
	return nil
}

// replayAll re-delivers the pending in-flight input through the fresh
// merger, exactly as if it were arriving live except that injected
// per-event faults do not re-fire (cuts that complete during replay
// flush and commit normally). On a crash mid-replay it returns the
// input still pending — what the fresh merger had absorbed without
// flushing, followed by the not-yet-fed tails — so a further retry
// replays everything since the last committed cut.
func (x *boltExec) replayAll(pending [][]colEntry) ([][]colEntry, error) {
	fed := make([]int, len(pending))
	err := guard(x.rc.name, x.instance, func() {
		t0 := time.Now()
		if x.obs {
			x.em.now = t0.UnixNano()
		}
		for progressed := true; progressed; {
			progressed = false
			for ch := range pending {
				if fed[ch] < len(pending[ch]) {
					it := pending[ch][fed[ch]]
					fed[ch]++
					x.is.AddReplayed(int64(it.rows()))
					x.merge.Next(ch, it)
					progressed = true
				}
			}
		}
		x.is.AddBusy(time.Since(t0))
	})
	if err == nil {
		return nil, nil
	}
	left := x.merge.Pending()
	for ch := range pending {
		left[ch] = append(left[ch], pending[ch][fed[ch]:]...)
	}
	return left, err
}

// degradeState is a bolt executor after an unrecoverable failure
// under the drop-and-log policy: items are dropped (and counted), and
// markers are forwarded once each — deduplicated by sequence number
// across the executor's input channels — so downstream marker
// alignment keeps progressing.
type degradeState struct {
	x *boltExec
	// seen[seq] counts input channels that delivered marker seq.
	seen    map[int64]int
	stopped bool
}

// degrade transitions the executor into drop-and-log mode, dropping
// the pending input left over from a failed recovery and forwarding
// any marker that input already completed.
func (x *boltExec) degrade(cause error, pending [][]colEntry) {
	x.pol.logf("storm: %s[%d] is unrecoverable, degrading to drop-and-log: %v", x.rc.name, x.instance, cause)
	x.degraded = &degradeState{x: x, seen: map[int64]int{}}
	for _, buf := range pending {
		for _, it := range buf {
			x.degraded.handle(it)
		}
	}
	x.outBuf = nil
}

// handle processes one input entry in degraded mode.
func (d *degradeState) handle(it colEntry) {
	if it.cols != nil || !it.ev.IsMarker {
		d.x.is.AddDropped(int64(it.rows()))
		if it.cols != nil {
			it.cols.Release()
		}
		return
	}
	seq := it.ev.Marker.Seq
	d.seen[seq]++
	if d.seen[seq] < d.x.rc.nChannels {
		return
	}
	delete(d.seen, seq)
	if d.stopped {
		return
	}
	// Channels deliver markers in sequence order, so completions are
	// in sequence order too; forward each completed marker once.
	if err := guard(d.x.rc.name, d.x.instance, func() {
		d.x.em.emit(it.ev)
	}); err != nil {
		d.x.pol.logf("storm: degraded %s[%d] stopped forwarding markers: %v", d.x.rc.name, d.x.instance, err)
		d.stopped = true
	}
}
