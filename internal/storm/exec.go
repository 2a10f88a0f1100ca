package storm

import (
	"context"
	"fmt"
	"runtime/pprof"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"datatrace/internal/metrics"
	"datatrace/internal/stream"
)

// message is one unit of executor input: an event tagged with the
// receiver-side input channel it arrived on, a typed column batch for
// that channel, or an end-of-stream notice for it. Messages travel in
// vectors — the batched edge transport (transport.go) groups them per
// destination — and receivers unpack a vector one message at a time.
type message struct {
	ch  int
	ev  stream.Event
	eos bool
	// cols, when set, makes this message a column batch of items only
	// (markers never enter batches; see cols.go) and ev is unused. The
	// receiver owns the batch and releases it after consumption.
	cols stream.Columns
	// sent is the send wall time (UnixNano) when observability is
	// enabled, 0 otherwise; receivers derive emit-to-receive inbox
	// latency from it.
	sent int64
}

const defaultChannelCap = 1024

// queueObsEvery is the sampling period of the queue-side observations
// (inbox depth gauge and emit-to-receive latency): every Nth received
// message pays the two gauge updates, keeping the backpressure signal
// representative while the per-message hot-path cost stays at the
// per-event execute histogram alone.
const queueObsEvery = 8

// Result is the outcome of running a topology to completion.
type Result struct {
	// Sinks maps each sink component's name to the event sequence it
	// collected (a representative of the output data trace).
	Sinks map[string][]stream.Event
	// Stats holds per-instance execution metrics for throughput and
	// scaling analysis.
	Stats *metrics.Stats
	// Wall is the real elapsed time of the run.
	Wall time.Duration
}

// subscription is a resolved outgoing edge of a component.
type subscription struct {
	to       *runtimeComponent
	grouping Grouping
	// chBase is the receiver-side channel index of the sender's
	// instance 0 for this edge; instance k uses chBase + k.
	chBase int
	// combiner, when set, pre-aggregates this edge's traffic in the
	// sender's combining buffers (see combiner.go).
	combiner *CombinerSpec
	// cols, when set, declares the edge columnar: items travel as
	// typed batches of this kind (see cols.go). colComb, when set, is
	// the typed sender-side combining pass the rows fold through.
	cols    *stream.ColKind
	colComb *ColCombinerSpec
}

// runtimeComponent is a component with resolved wiring.
type runtimeComponent struct {
	*component
	// inboxes[i] is instance i's input channel; nil when the instance
	// is placed on another worker process (its traffic travels the
	// networked transport instead). The slice always has parallelism
	// entries so routing arithmetic is placement-blind.
	inboxes []chan *[]message
	// depths[i] is inbox i's depth in *events* (a channel slot holds a
	// whole vector, so len(inbox) alone under-counts): senders add a
	// vector's length at flush, the receiver subtracts it at dequeue.
	// Maintained only when observability is enabled; feeds the sampled
	// queue-depth gauge.
	depths            []atomic.Int64
	subs              []subscription
	nChannels         int // receiver-side input channel count
	aligned           bool
	transport         TransportOptions // normalized at Run
	serializerFactory func() Serializer
	// workerOf[i] is the worker hosting instance i (-1: no placement,
	// every serialized send pays the wire format).
	workerOf []int
	// gids[i] is instance i's global executor index (declaration
	// order) — the frame destination id of the networked transport.
	gids []int
	// net is the hosting worker's networked-transport state; nil in
	// the single-process runtime.
	net *workerNet
	// sinkTap, when set on a sink component, observes every recorded
	// event in arrival order (under sinkMu); the networked worker uses
	// it to stream sink output to the coordinator.
	sinkTap func(e stream.Event)
	sinkMu  sync.Mutex
	sinkOut []stream.Event
}

// localInst reports whether instance i runs in this process.
func (rc *runtimeComponent) localInst(i int) bool {
	return rc.net == nil || rc.workerOf[i] == rc.net.self
}

// appendSink records events a sink instance received, feeding the
// worker's sink tap when one is installed.
func (rc *runtimeComponent) appendSink(events ...stream.Event) {
	rc.sinkMu.Lock()
	rc.sinkOut = append(rc.sinkOut, events...)
	if rc.sinkTap != nil {
		for _, e := range events {
			rc.sinkTap(e)
		}
	}
	rc.sinkMu.Unlock()
}

// Placed is one executor's process placement.
type Placed struct {
	Component string
	Instance  int
	// Worker is the hosting worker (round-robin over executors in
	// declaration order, the placement SetWorkers and the networked
	// runtime share).
	Worker int
	// GID is the executor's global index in declaration order — the
	// destination id carried by networked transport frames.
	GID int
}

// Placement returns the executor placement for the given worker
// count: executors enumerated in declaration order, instance-major,
// each assigned to worker GID mod workers. Every process computes the
// identical table, which is what lets workers resolve frame
// destinations without a placement exchange.
func (t *Topology) Placement(workers int) []Placed {
	if workers < 1 {
		workers = 1
	}
	var out []Placed
	gi := 0
	for _, name := range t.order {
		c := t.components[name]
		for i := 0; i < c.parallelism; i++ {
			out = append(out, Placed{Component: name, Instance: i, Worker: gi % workers, GID: gi})
			gi++
		}
	}
	return out
}

// Run executes the topology to completion: every spout is drained,
// end-of-stream propagates through the DAG, and all executors exit.
// It returns the sinks' collected streams and execution statistics.
func (t *Topology) Run() (*Result, error) {
	rts, err := t.resolve(nil)
	if err != nil {
		return nil, err
	}
	return t.execute(rts)
}

// resolve validates the topology and builds the runtime wiring. w is
// the networked worker context, nil in the single-process runtime:
// with w set, only instances placed on worker w.self get inboxes (and
// are registered with w's frame dispatcher); remote instances appear
// in the wiring as frame destinations.
func (t *Topology) resolve(w *workerNet) (map[string]*runtimeComponent, error) {
	if err := t.validate(); err != nil {
		return nil, err
	}
	if err := t.transport.Validate(); err != nil {
		return nil, err
	}
	if t.faultPlan != nil {
		if err := t.faultPlan.validate(t); err != nil {
			return nil, err
		}
	}
	if t.rescalePlan != nil {
		if w != nil {
			return nil, fmt.Errorf("storm: rescale plans run in the coordinator process (use NetOptions.Rescale for networked runs)")
		}
		if err := t.rescalePlan.validate(t); err != nil {
			return nil, err
		}
	}
	if t.autoscale != nil {
		if w != nil {
			return nil, fmt.Errorf("storm: autoscaling runs in the coordinator process, not inside a networked worker")
		}
		if err := t.autoscale.validate(t); err != nil {
			return nil, err
		}
	}
	cap := t.ChannelCap
	if cap <= 0 {
		cap = defaultChannelCap
	}
	tr := t.transport.normalized()
	workers := t.workers
	if w != nil {
		workers = w.workers
	}

	// Resolve components and receiver channel layouts.
	rts := make(map[string]*runtimeComponent, len(t.order))
	gi := 0
	for _, name := range t.order {
		c := t.components[name]
		rc := &runtimeComponent{component: c, transport: tr, net: w}
		rc.inboxes = make([]chan *[]message, c.parallelism)
		rc.depths = make([]atomic.Int64, c.parallelism)
		rc.workerOf = make([]int, c.parallelism)
		rc.gids = make([]int, c.parallelism)
		for i := range rc.workerOf {
			rc.workerOf[i] = -1
			if workers > 0 {
				rc.workerOf[i] = gi % workers
			}
			rc.gids[i] = gi
			gi++
		}
		for i := range rc.inboxes {
			if !rc.localInst(i) {
				continue
			}
			rc.inboxes[i] = make(chan *[]message, cap)
			if w != nil {
				w.register(rc.gids[i], rc.inboxes[i], &rc.depths[i])
			}
		}
		offset := 0
		for _, in := range c.inputs {
			offset += t.components[in.from].parallelism
			if in.aligned {
				rc.aligned = true
			}
		}
		rc.nChannels = offset
		rc.serializerFactory = t.serializer
		rts[name] = rc
	}
	// Resolve senders' subscription tables.
	for _, name := range t.order {
		rc := rts[name]
		offset := 0
		for _, in := range rc.inputs {
			src := rts[in.from]
			src.subs = append(src.subs, subscription{to: rc, grouping: in.grouping, chBase: offset, combiner: in.combiner, cols: in.cols, colComb: in.colComb})
			offset += src.parallelism
		}
	}
	return rts, nil
}

// execute starts one executor goroutine per locally placed instance
// and waits for the DAG to drain.
func (t *Topology) execute(rts map[string]*runtimeComponent) (*Result, error) {
	hash := t.hash
	if hash == nil {
		hash = stream.DefaultHash
	}
	stats := metrics.NewStats()
	stats.SetObservability(t.obs)
	t.live.Store(stats)
	var wg sync.WaitGroup
	var failMu sync.Mutex
	var failures []error

	cg := newCutGate(t, rts, hash)
	t.gate.Store(cg)
	if t.rescalePlan != nil && !cg.supported {
		return nil, fmt.Errorf("storm: rescale plan: %s", cg.reason)
	}
	if t.autoscale != nil && !cg.supported {
		return nil, fmt.Errorf("storm: autoscale: %s", cg.reason)
	}

	// launch starts one executor goroutine. Rescales reuse it to spawn
	// the target's new instance set mid-run (g carries the seed).
	launch := func(rc *runtimeComponent, i int, g *execGate) {
		wg.Add(1)
		is := stats.Instance(rc.name, i)
		ef := t.faultPlan.faultsFor(rc.name, i)
		go func() {
			defer wg.Done()
			run := func() error {
				if rc.spout != nil {
					return runSpout(rc, i, is, hash, ef, t.recovery, cg, g)
				}
				return runBolt(rc, i, is, hash, ef, t.recovery, cg, g)
			}
			var err error
			if t.obs.Enabled {
				// Tag the executor goroutine so CPU profiles break
				// down by component/instance.
				labels := pprof.Labels("storm_component", rc.name, "storm_instance", strconv.Itoa(i))
				pprof.Do(context.Background(), labels, func(context.Context) { err = run() })
			} else {
				err = run()
			}
			if err != nil {
				failMu.Lock()
				failures = append(failures, err)
				failMu.Unlock()
			}
		}()
	}
	cg.spawn = func(rc *runtimeComponent, i int, g *execGate) { launch(rc, i, g) }
	cg.enqueuePlan(t.rescalePlan)

	// Two phases: every executor's barrier entry is registered before
	// any goroutine starts, so an early barrier cannot fire while the
	// membership is still growing.
	type pending struct {
		rc *runtimeComponent
		i  int
		g  *execGate
	}
	var toStart []pending
	for _, name := range t.order {
		rc := rts[name]
		for i := 0; i < rc.parallelism; i++ {
			if !rc.localInst(i) {
				continue
			}
			var g *execGate
			if cg.supported {
				g = cg.register(rc, i)
			}
			toStart = append(toStart, pending{rc, i, g})
		}
	}
	start := time.Now()
	for _, p := range toStart {
		launch(p.rc, p.i, p.g)
	}

	var autoDone chan struct{}
	var autoStop chan struct{}
	if t.autoscale != nil {
		autoStop, autoDone = make(chan struct{}), make(chan struct{})
		go func() {
			defer close(autoDone)
			autoscaleLoop(t, cg, t.autoscale, autoStop)
		}()
	}
	wg.Wait()
	cg.shutdown()
	if autoDone != nil {
		close(autoStop)
		<-autoDone
	}
	failures = append(failures, cg.takePlanErrs()...)
	wall := time.Since(start)
	stats.Normalize(wall)
	res := &Result{Sinks: map[string][]stream.Event{}, Stats: stats, Wall: wall}
	for _, name := range t.order {
		rc := rts[name]
		if rc.isSink && rc.localInst(0) {
			res.Sinks[rc.name] = rc.sinkOut
		}
	}
	if len(failures) > 0 {
		msgs := make([]string, len(failures))
		for i, f := range failures {
			msgs[i] = f.Error()
		}
		return res, fmt.Errorf("storm: topology failed: %s", strings.Join(msgs, "; "))
	}
	return res, nil
}

// emitter routes one sender instance's output events to subscribers.
type emitter struct {
	rc       *runtimeComponent
	instance int
	hash     func(any) int
	// rrNext is the per-subscription round-robin cursor.
	rrNext []int
	stats  *metrics.InstanceStats
	// ser, when set, round-trips emitted events through the wire
	// encoding (per send; skipped for same-worker destinations when
	// placement is set).
	ser Serializer
	// worker is this executor's worker, or -1 without placement.
	worker int
	// faults, when set, injects serializer corruption on chosen edges.
	faults *executorFaults
	// stamp turns on send-time stamping of outgoing messages (queue
	// latency observability); derived from the executor's stats record.
	stamp bool
	// now is the executor's current message timestamp (UnixNano), set
	// once per processed input when stamp is on and reused for every
	// send — emitted messages carry it instead of paying time.Now per
	// emission. It under-reports the send time by at most the message's
	// own processing latency, which the exec histogram bounds. A
	// message buffered by the transport keeps the stamp of its emit, so
	// the receiver's queue latency includes buffered residency.
	now int64
	// scratch is the reused routing buffer of emit.
	scratch []routedMsg

	// Batched transport state (see transport.go). bufs holds one send
	// buffer per (subscription, destination instance), flattened;
	// bufBase[si] indexes subscription si's instance-0 buffer. pending
	// counts buffered messages across all bufs; cpending counts partial
	// aggregates held by boxed combining buffers (combiner.go);
	// colpending counts rows held by open column buffers plus keys held
	// by columnar combining buffers (cols.go); oldest is the idle-flush
	// deadline anchor (zero when nothing is pending).
	bufs       []outBuf
	bufBase    []int
	pending    int
	cpending   int
	colpending int
	oldest     time.Time
	batchSize  int
	flushEvery time.Duration
}

func newEmitter(rc *runtimeComponent, instance int, is *metrics.InstanceStats, hash func(any) int) *emitter {
	tr := rc.transport.normalized()
	em := &emitter{
		rc: rc, instance: instance, hash: hash,
		rrNext: make([]int, len(rc.subs)),
		stats:  is, worker: rc.workerOf[instance], stamp: is.ObsEnabled(),
		batchSize: tr.BatchSize, flushEvery: tr.FlushInterval,
	}
	if rc.serializerFactory != nil && len(rc.subs) > 0 {
		em.ser = rc.serializerFactory()
	}
	em.rebuildBufs()
	return em
}

// rebuildBufs derives the send-buffer table from the current wiring.
// Called at construction, and again by the executor after a rescale
// barrier: destination inbox sets and edge channel bases may have
// changed, and every buffer is empty at a barrier (markers flush),
// so rebuilding drops nothing.
func (em *emitter) rebuildBufs() {
	rc := em.rc
	em.bufBase = make([]int, len(rc.subs))
	n := 0
	for si := range rc.subs {
		em.bufBase[si] = n
		n += len(rc.subs[si].to.inboxes)
	}
	em.bufs = make([]outBuf, n)
	for si := range rc.subs {
		sub := &rc.subs[si]
		for k := range sub.to.inboxes {
			var b outBuf
			if sub.to.localInst(k) {
				b = outBuf{sink: chanSink{ch: sub.to.inboxes[k]}, depth: &sub.to.depths[k]}
			} else {
				b = outBuf{sink: rc.net.sinkTo(sub.to, k)}
			}
			if sub.combiner != nil {
				b.comb = &combBuf{spec: sub.combiner, ch: sub.chBase + em.instance, idx: map[any]int{}}
			}
			if sub.cols != nil {
				b.colKind = sub.cols
				b.colCh = sub.chBase + em.instance
			}
			if sub.colComb != nil {
				b.colComb = sub.colComb.New()
				b.colCap = sub.colComb.Cap
			}
			em.bufs[em.bufBase[si]+k] = b
		}
	}
}

// routedMsg is one event resolved to a concrete destination.
type routedMsg struct {
	sub    *subscription
	si     int // the subscription's index in rc.subs
	target int
	ch     int
	e      stream.Event
}

// route resolves the destinations of one emitted event, advancing the
// round-robin cursors, without serializing or sending.
func (em *emitter) route(e stream.Event, out []routedMsg) []routedMsg {
	em.stats.AddEmitted(1)
	for si := range em.rc.subs {
		sub := &em.rc.subs[si]
		ch := sub.chBase + em.instance
		if e.IsMarker {
			// Markers are always broadcast so they reach every
			// consumer instance and can act as punctuations.
			for k := range sub.to.inboxes {
				out = append(out, routedMsg{sub, si, k, ch, e})
			}
			continue
		}
		switch sub.grouping {
		case Shuffle:
			k := em.rrNext[si]
			em.rrNext[si] = (k + 1) % len(sub.to.inboxes)
			out = append(out, routedMsg{sub, si, k, ch, e})
		case Fields:
			out = append(out, routedMsg{sub, si, em.hash(e.Key) % len(sub.to.inboxes), ch, e})
		case Global:
			out = append(out, routedMsg{sub, si, 0, ch, e})
		case Broadcast:
			for k := range sub.to.inboxes {
				out = append(out, routedMsg{sub, si, k, ch, e})
			}
		}
	}
	return out
}

// wire applies the serialization boundary to one routed message in
// place, paying the wire format when the hop crosses a worker
// boundary (or unconditionally when no placement is configured). A
// serialization failure — or an injected corruption fault — panics
// and is converted to an executor failure by guard.
func (em *emitter) wire(r *routedMsg) {
	em.faults.onSend(em.rc.name, em.instance, r.sub.to.name)
	if em.ser != nil && (em.worker < 0 || em.worker != r.sub.to.workerOf[r.target]) {
		roundTripped, err := em.ser.RoundTrip(r.e)
		if err != nil {
			panic(err)
		}
		r.e = roundTripped
	}
}

func (em *emitter) emit(e stream.Event) {
	em.scratch = em.route(e, em.scratch[:0])
	for i := range em.scratch {
		r := &em.scratch[i]
		em.wire(r)
		em.push(r)
	}
	if e.IsMarker {
		// Markers flush everything: they punctuate every buffer (being
		// broadcast), and aligned consumers must not wait on a partial
		// batch to complete a cut.
		em.flushAll()
	}
}

// sendBlock delivers a block of emitted events transactionally:
// destinations are routed and serialized for every event before the
// first buffer append, so a serialization failure leaves nothing
// partially delivered and marker-cut recovery can regenerate the
// block without duplicating output downstream. The block is flushed
// when done — a committed cut leaves nothing buffered.
func (em *emitter) sendBlock(events []stream.Event) {
	batch := em.scratch[:0]
	for _, e := range events {
		batch = em.route(e, batch)
	}
	for i := range batch {
		em.wire(&batch[i])
	}
	for i := range batch {
		em.push(&batch[i])
	}
	// Keep the grown buffer for the next block (emit and sendBlock are
	// called from the same executor goroutine, never concurrently).
	em.scratch = batch[:0]
	em.flushAll()
}

// eos notifies every downstream instance that this sender instance's
// channel has ended: the notice is appended behind any still-buffered
// events and everything is flushed, so EOS is the last message each
// channel delivers.
func (em *emitter) eos() {
	for si := range em.rc.subs {
		sub := &em.rc.subs[si]
		ch := sub.chBase + em.instance
		for k := range sub.to.inboxes {
			em.pushEOS(&em.bufs[em.bufBase[si]+k], ch)
		}
	}
	em.flushAll()
}

// guard runs fn, converting a panic into an error so the topology can
// shut down cleanly (the failed executor stops processing but still
// participates in end-of-stream propagation).
func guard(component string, instance int, fn func()) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("storm: executor %s[%d] panicked: %v", component, instance, r)
		}
	}()
	fn()
	return nil
}

// runSpout is the executor loop of every spout instance. A ColSpout
// fills typed batches while items are available (no per-event boxing,
// one emitCols per batch); markers and end-of-stream come through Next.
// Each iteration is one step: a batch or one boxed event. Clock reads
// and counter updates amortize over a stride of steps — on a fast
// source the clock is a measurable share of the loop. The stride
// doubles while a chunk completes well inside the idle-flush interval
// (so the staleness of tickAt's anchor cannot delay an idle flush by
// more than ~the interval itself) and collapses to one step as soon
// as a chunk runs long, which is exactly the throttled-spout case
// where flush timeliness matters. Observability pins the stride at
// one step: each step is stamped and observed on its own.
func runSpout(rc *runtimeComponent, instance int, is *metrics.InstanceStats, hash func(any) int, ef *executorFaults, pol RecoveryPolicy, cg *cutGate, g *execGate) error {
	em := newEmitter(rc, instance, is, hash)
	em.faults = ef
	if g != nil {
		g.em = em
		defer cg.leave(g)
	}
	err := guard(rc.name, instance, func() {
		spout := rc.spout(instance)
		cs, _ := spout.(ColSpout)
		var kind *stream.ColKind
		var batch stream.Columns
		if cs != nil {
			if kind = cs.ColKind(); kind != nil {
				batch = kind.Get()
			}
		}
		const maxStride = 32
		stride, steps, n := 1, 0, int64(0)
		t0 := time.Now()
		for {
			if em.stamp {
				em.now = t0.UnixNano()
			}
			// Idle flush between steps: a throttled spout parked inside
			// Next cannot flush, but one that merely produces slower
			// than BatchSize per interval bounds its residency here.
			em.tickAt(t0)
			rows := 0
			if kind != nil {
				rows = cs.NextCols(batch, em.batchSize)
			}
			if rows > 0 {
				if ef != nil {
					for i := 0; i < rows; i++ {
						ef.onEvent(rc.name, instance)
					}
				}
				n += int64(rows)
				em.emitCols(batch)
				batch = kind.Get()
			} else {
				e, ok := spout.Next()
				if !ok {
					break
				}
				ef.onEvent(rc.name, instance)
				n++
				em.emit(e)
				if e.IsMarker {
					// A completed cut from the source's point of view, and
					// the spout's barrier entry point: after the marker
					// every buffer of this emitter is empty.
					is.AddCuts(1)
					if g != nil {
						cg.cutDone(g)
					}
				}
			}
			if steps++; steps >= stride {
				t1 := time.Now()
				d := t1.Sub(t0)
				is.AddBusy(d)
				is.AddExecuted(n)
				if em.stamp {
					is.ObserveExec(t0, d)
				} else if em.flushEvery > 0 && d > em.flushEvery/2 {
					stride = 1
				} else if stride < maxStride {
					stride *= 2
				}
				steps, n, t0 = 0, 0, t1
			}
		}
		is.AddExecuted(n)
		is.AddBusy(time.Since(t0))
		if batch != nil {
			batch.Release()
		}
	})
	if err != nil && pol.Enabled && pol.OnUnrecoverable == DropAndLog {
		// Spouts have no marker cut to roll back to (their input is
		// external); drop-and-log truncates the source instead of
		// failing the run.
		pol.logf("storm: spout %s[%d] failed, truncating its input: %v", rc.name, instance, err)
		err = nil
	}
	em.eos()
	return err
}

// boltExec is the state of one bolt (or sink) executor. Every bolt
// runs the same receive loop (runBolt); what differs is chosen once at
// start:
//
//   - input: an aligned executor feeds the MRG merger (colMerge); a
//     raw one hands events and batches to the bolt as they arrive.
//   - recovery (aligned bolts under an enabled RecoveryPolicy, see
//     recovery.go): output is buffered per block and flushed
//     transactionally at the cut, the instance is snapshotted there,
//     and a crash restarts it and replays the merger's pending input.
//     Batches then reach the bolt row by row, so every emission goes
//     through the block buffer.
//   - degradation: after an unrecoverable failure under DropAndLog the
//     executor drops items and forwards deduplicated markers
//     (degradeState); otherwise the failure is fatal and the executor
//     only drains its input to EOS.
//   - observation: with observability off, one guard and one clock
//     pair cover a whole received vector; with it on, every message
//     is stamped, timed and sampled on its own.
type boltExec struct {
	rc       *runtimeComponent
	instance int
	is       *metrics.InstanceStats
	em       *emitter
	ef       *executorFaults
	pol      RecoveryPolicy
	// cg/g are the run's reconfiguration barrier and this executor's
	// entry (rescale.go); g is nil when the run cannot host rescales.
	cg *cutGate
	g  *execGate

	bolt Bolt
	// emitFn is the bolt's emit target: the emitter, the sink's output,
	// or (under recovery) the block buffer.
	emitFn func(stream.Event)
	// chBolt is set on raw inputs when the bolt wants channel indexes.
	chBolt ChannelBolt
	// cp consumes whole batches of inKind (nil under recovery, whose
	// emissions must all pass through the block buffer).
	cp              ColProcessor
	inKind, outKind *stream.ColKind
	// merge is the MRG merger of an aligned executor, nil on raw inputs.
	merge *colMerge
	// eosLeft counts input channels still open; a rescale barrier that
	// widens the input resets it (no channel has closed at a barrier).
	eosLeft int
	// retired is set when a rescale replaced this executor's component
	// instance set: exit without finishing or propagating EOS.
	retired bool
	// unfed is true while an input message's fault hooks run, before it
	// reaches the merger: a crash there leaves it outside Pending.
	unfed bool
	// fatal and degraded record an unrecoverable failure; either one
	// turns the executor into a drain.
	fatal    error
	degraded *degradeState

	// obs enables per-message observation; qskip is the countdown to
	// the next sampled queue observation (see queueObsEvery).
	obs   bool
	qskip int

	recovery
}

// sinkBolt is a sink's bolt: it passes every event to its emit target,
// which records it in the sink's output.
var sinkBolt = BoltFunc(func(e stream.Event, emit func(stream.Event)) { emit(e) })

// runBolt is the executor loop of every bolt and sink instance (see
// boltExec).
func runBolt(rc *runtimeComponent, instance int, is *metrics.InstanceStats, hash func(any) int, ef *executorFaults, pol RecoveryPolicy, cg *cutGate, g *execGate) error {
	x := &boltExec{
		rc: rc, instance: instance, is: is, ef: ef, pol: pol, cg: cg, g: g,
		em:      newEmitter(rc, instance, is, hash),
		eosLeft: rc.nChannels,
		obs:     is.ObsEnabled(),
		qskip:   1,
	}
	x.em.faults = ef
	if g != nil {
		g.em = x.em
		g.x = x
		defer cg.leave(g)
	}
	switch {
	case rc.isSink:
		x.bolt = sinkBolt
		x.emitFn = func(e stream.Event) { rc.appendSink(e) }
	case g != nil && g.seed != nil:
		// Spawned by a rescale: start from the re-sharded shard instead
		// of the factory (the seed bolt was restored under the barrier).
		x.bolt = g.seed.bolt
		x.snap, x.hasSnap = g.seed.snap, len(g.seed.snap) > 0
	default:
		x.bolt = rc.bolt(instance)
	}
	if x.emitFn == nil {
		x.emitFn = x.em.emit // one method-value closure per executor, not per event
	}
	if rc.aligned {
		if pol.Enabled {
			x.startRecovery()
		}
		x.merge = x.newMerge(rc.nChannels)
	} else {
		x.chBolt, _ = x.bolt.(ChannelBolt)
	}
	if cp, ok := x.bolt.(ColProcessor); ok && !x.rec {
		x.cp, x.inKind, x.outKind = cp, cp.InColKind(), cp.OutColKind()
	}

	inbox := rc.inboxes[instance]
	for x.eosLeft > 0 && !x.retired {
		bp := recvBatch(inbox, x.em)
		if bp == nil {
			continue // idle flush fired; retry the receive
		}
		batch := *bp
		if x.obs {
			rc.depths[instance].Add(-int64(len(batch)))
		}
		for bi := 0; bi < len(batch) && !x.retired; {
			bi = x.run(batch, bi)
		}
		putBatch(bp)
		if x.retired {
			return nil // replaced by a rescale; nothing beyond the barrier exists
		}
		// Bound buffered-output residency even under a steady trickle
		// of input (which keeps resetting recvBatch's idle timer).
		x.em.tick()
	}
	x.finish()
	if g != nil {
		cg.leave(g)
	}
	x.em.eos()
	return x.fatal
}

// newMerge builds an MRG merger over n channels delivering to this
// executor.
func (x *boltExec) newMerge(n int) *colMerge {
	return newColMerge(n, x.deliver, func(c stream.Columns) { x.deliverCols(-1, c) })
}

// run consumes batch from index bi and returns the index of the first
// message it did not consume. With observability off it runs to the
// end of the vector (or the first panic) under one guard and one clock
// pair; with it on, it consumes one message. bi advances before each
// message is taken, so a panic consumes the offending message.
func (x *boltExec) run(batch []message, bi int) int {
	if m := &batch[bi]; m.eos || x.fatal != nil || x.degraded != nil {
		if m.eos {
			x.eosLeft--
		} else {
			x.drain(colEntry{m.ev, m.cols})
		}
		return bi + 1
	}
	err := guard(x.rc.name, x.instance, func() {
		t0 := time.Now()
		end := len(batch)
		if x.obs {
			end = bi + 1
			x.observe(t0, &batch[bi], len(batch)-bi)
		}
		for bi < end && !x.retired {
			m := &batch[bi]
			bi++
			if m.eos {
				x.eosLeft--
				continue
			}
			x.take(m)
		}
		d := time.Since(t0)
		x.is.AddBusy(d)
		x.is.ObserveExec(t0, d)
	})
	if err != nil {
		x.fail(err, &batch[bi-1])
	}
	return bi
}

// observe records the queue-side observations of one message about to
// be taken: its stamp, sampled inbox depth (plus rest, the vector's
// unconsumed remainder, this message included) and queue latency, and
// under recovery the first arrival of each marker.
func (x *boltExec) observe(t0 time.Time, m *message, rest int) {
	now := t0.UnixNano()
	x.em.now = now
	if x.qskip--; x.qskip == 0 {
		x.qskip = queueObsEvery
		x.is.ObserveQueueDepth(int(x.rc.depths[x.instance].Load()) + rest)
		if m.sent != 0 {
			x.is.ObserveQueue(time.Duration(now - m.sent))
		}
	}
	if x.markerSeen != nil && m.cols == nil && m.ev.IsMarker {
		if _, ok := x.markerSeen[m.ev.Marker.Seq]; !ok {
			x.markerSeen[m.ev.Marker.Seq] = now
		}
	}
}

// take consumes one input message: its per-event fault hooks, then
// the merger (aligned) or the bolt (raw).
func (x *boltExec) take(m *message) {
	it := colEntry{m.ev, m.cols}
	if x.ef != nil {
		x.unfed = true
		for i := it.rows(); i > 0; i-- {
			x.ef.onEvent(x.rc.name, x.instance)
		}
		x.unfed = false
	}
	switch {
	case x.merge != nil:
		x.merge.Next(m.ch, it)
	case m.cols != nil:
		x.deliverCols(m.ch, m.cols)
		m.cols.Release()
	case x.chBolt != nil:
		x.is.AddExecuted(1)
		x.chBolt.NextFrom(m.ch, m.ev, x.emitFn)
	default:
		x.deliver(m.ev)
	}
}

// deliver hands one event (an item, or a merged marker) to the bolt.
// Under recovery a merged marker completes the cut.
func (x *boltExec) deliver(e stream.Event) {
	x.is.AddExecuted(1)
	x.bolt.Next(e, x.emitFn)
	if x.rec && e.IsMarker {
		x.completeCut(e.Marker.Seq)
	}
}

// deliverCols hands one column batch to the bolt without releasing it:
// whole through ProcessCols when the bolt consumes its kind, otherwise
// row by row (with the channel index on raw ChannelBolt inputs; ch is
// unused on aligned ones).
func (x *boltExec) deliverCols(ch int, cols stream.Columns) {
	n := cols.Len()
	if x.inKind != nil && cols.Kind() == x.inKind {
		x.is.AddExecuted(int64(n))
		var out stream.Columns
		if x.outKind != nil {
			out = x.outKind.Get()
		}
		x.cp.ProcessCols(cols, out)
		if out != nil {
			x.em.emitCols(out)
		}
		return
	}
	for i := 0; i < n; i++ {
		if x.chBolt != nil {
			x.is.AddExecuted(1)
			x.chBolt.NextFrom(ch, cols.EventAt(i), x.emitFn)
		} else {
			x.deliver(cols.EventAt(i))
		}
	}
}

// fail handles a failure while taking m: recovery first when enabled,
// then drop-and-log degradation or a fatal error.
func (x *boltExec) fail(err error, m *message) {
	unfed := x.unfed
	x.unfed = false
	var pending [][]colEntry
	if x.rec {
		pending = x.merge.Pending()
		if unfed {
			// The injected fault fired before m reached the merger;
			// re-append it to keep per-channel order.
			pending[m.ch] = append(pending[m.ch], colEntry{m.ev, m.cols})
		}
		if pending, err = x.recoverFrom(err, pending); err == nil {
			return
		}
	}
	x.giveUp(err, pending)
}

// giveUp ends normal processing after an unrecoverable failure:
// degrade under DropAndLog (draining pending, the input left over from
// a failed recovery), otherwise record the error as fatal.
func (x *boltExec) giveUp(err error, pending [][]colEntry) {
	if x.pol.Enabled && x.pol.OnUnrecoverable == DropAndLog {
		x.degrade(err, pending)
	} else {
		x.fatal = err
	}
	// The executor stopped completing cuts: a rescale barrier can no
	// longer form, and parked peers must not wait for one.
	if x.g != nil {
		x.cg.leave(x.g)
	}
}

// drain consumes one input entry after an unrecoverable failure.
func (x *boltExec) drain(it colEntry) {
	if x.degraded != nil {
		x.degraded.handle(it)
	} else if it.cols != nil {
		it.cols.Release()
	}
}

// finish runs the end-of-stream step — the merger's trailing unaligned
// items, the optional Flusher, and under recovery the final partial
// block's flush — with the same crash recovery as live processing.
func (x *boltExec) finish() {
	for x.fatal == nil && x.degraded == nil {
		err := guard(x.rc.name, x.instance, func() {
			t0 := time.Now()
			if x.obs {
				x.em.now = t0.UnixNano()
			}
			if x.merge != nil {
				x.merge.Trailing()
			}
			if f, ok := x.bolt.(Flusher); ok {
				f.Flush(x.emitFn)
			}
			if x.rec {
				x.flushOut()
			}
			x.is.AddBusy(time.Since(t0))
		})
		if err == nil {
			return
		}
		x.pol.logf("storm: %s[%d] failed during shutdown: %v", x.rc.name, x.instance, err)
		var pending [][]colEntry
		if x.rec {
			if pending, err = x.recoverFrom(err, x.merge.Pending()); err == nil {
				continue
			}
		}
		x.giveUp(err, pending)
	}
}

// String renders the topology's structure for debugging.
func (t *Topology) String() string {
	s := fmt.Sprintf("topology %s:\n", t.name)
	for _, name := range t.order {
		c := t.components[name]
		kind := "bolt"
		if c.spout != nil {
			kind = "spout"
		}
		if c.isSink {
			kind = "sink"
		}
		s += fmt.Sprintf("  %s %s ×%d", kind, name, c.parallelism)
		for _, in := range c.inputs {
			al := ""
			if in.aligned {
				al = ",aligned"
			}
			s += fmt.Sprintf(" ← %s(%s%s)", in.from, in.grouping, al)
		}
		s += "\n"
	}
	return s
}
