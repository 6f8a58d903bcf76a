// Package sim provides the discrete-event simulation kernel shared by all
// Stellar substrates. It supplies a virtual clock, an event queue, and a
// deterministic random number generator so that every experiment in the
// repository is reproducible from a seed.
//
// Virtual time is an int64 nanosecond count starting at zero. Components
// schedule callbacks with At/After; Engine.Run drains the queue in time
// order (ties broken by scheduling order) until the queue is empty or a
// horizon is reached.
//
// # Scheduler
//
// The engine is a two-tier scheduler. Short-horizon events — per-hop
// packet departures, the transport's 250 µs RTOs, anything within the
// next ~2 ms of virtual time — land in a timer wheel of fixed-width
// buckets: O(1) insert, O(1) cancel, and lazy reaping of canceled
// events when their bucket's time arrives, so an RTO that is armed and
// canceled on every packet never touches the heap at all. Far or
// irregular events go straight into a binary heap. Buckets are flushed
// into the heap strictly in time order before any event they could
// precede is popped, so the dispatch order — (time, then scheduling
// sequence) — is byte-identical to a plain heap; SchedulerHeap disables
// the wheel for differential testing.
//
// Event objects are recycled through a per-engine free list (safe
// because the engine is single-threaded). Consequently an *Event must
// not be retained after its callback has run: Cancel on a fired event
// is harmless only until the engine reuses the object.
package sim

import (
	"container/heap"
	"fmt"
	"math"
	"sync/atomic"
	"time"

	"repro/internal/trace"
)

// Time is a point in virtual time, in nanoseconds since simulation start.
type Time int64

// Duration is a span of virtual time in nanoseconds. It mirrors
// time.Duration so the familiar constants convert directly.
type Duration = time.Duration

// Common instants.
const (
	// Forever sorts after every reachable virtual time.
	Forever Time = math.MaxInt64
)

// Add returns t advanced by d.
func (t Time) Add(d Duration) Time { return t + Time(d) }

// Sub returns the duration t-u.
func (t Time) Sub(u Time) Duration { return Duration(t - u) }

// Seconds reports t as floating-point seconds.
func (t Time) Seconds() float64 { return float64(t) / 1e9 }

// String formats the time as a duration since simulation start.
func (t Time) String() string {
	if t == Forever {
		return "forever"
	}
	return Duration(t).String()
}

// SchedulerMode selects the event-queue implementation.
type SchedulerMode int

const (
	// SchedulerWheel is the default two-tier scheduler: a timer wheel
	// for short-horizon, cancel-heavy events over a heap for the rest.
	SchedulerWheel SchedulerMode = iota
	// SchedulerHeap uses the binary heap alone — the reference
	// implementation the wheel must match event-for-event.
	SchedulerHeap
)

// String names the mode as accepted by ParseSchedulerMode.
func (m SchedulerMode) String() string {
	if m == SchedulerHeap {
		return "heap"
	}
	return "wheel"
}

// ParseSchedulerMode parses "wheel" or "heap" (the -sched CLI flag).
func ParseSchedulerMode(s string) (SchedulerMode, error) {
	switch s {
	case "wheel":
		return SchedulerWheel, nil
	case "heap":
		return SchedulerHeap, nil
	}
	return SchedulerWheel, fmt.Errorf("sim: unknown scheduler mode %q (want wheel or heap)", s)
}

// defaultMode is consulted by NewEngine; settable once at process start
// by CLI plumbing. Atomic only so concurrent test engines stay race-free.
var defaultMode atomic.Int32

// SetDefaultSchedulerMode switches the mode NewEngine uses. It is
// process-wide: code that runs experiments concurrently with different
// schedulers must carry the mode explicitly (experiments.Session.Sched)
// and build engines through NewEngineMode instead of mutating this.
func SetDefaultSchedulerMode(m SchedulerMode) { defaultMode.Store(int32(m)) }

// DefaultSchedulerMode reports the mode NewEngine uses.
func DefaultSchedulerMode() SchedulerMode { return SchedulerMode(defaultMode.Load()) }

// Timer-wheel geometry: 8192 buckets of 512 ns cover a ~4.2 ms
// horizon. The bucket is deliberately finer than a packet's
// serialization time (655 ns for 4 KiB at 50 Gbps), so back-to-back
// hop departures land in *future* buckets and take the O(1) wheel path
// instead of crowding the current one; the span reaches past both the
// transport's 250 µs RTO and the drain time of a full switch queue
// (16 MiB at 50 Gbps ≈ 2.6 ms), the two timer populations the fabric
// actually produces. 64 KiB of slot pointers per engine.
const (
	bucketBits = 9 // 512 ns per bucket
	wheelSlots = 8192
	wheelMask  = wheelSlots - 1
)

// bucketOf maps a virtual time to its absolute wheel bucket.
func bucketOf(t Time) uint64 { return uint64(t) >> bucketBits }

// Event is a scheduled callback.
type Event struct {
	when Time
	seq  uint64
	fn   func()
	afn  func(any) // arg-style callback: lets hot paths avoid a closure
	arg  any

	index    int // heap index, -1 when not queued
	canceled bool
	next     *Event // wheel-bucket chain / free-list link
}

// When reports the virtual time the event fires at.
func (e *Event) When() Time { return e.when }

// Cancel prevents the event from firing. Safe to call multiple times;
// on an event that already fired it is a no-op, but only until the
// engine recycles the object — do not retain event pointers past their
// firing time.
func (e *Event) Cancel() {
	e.canceled = true
}

// Canceled reports whether Cancel was called.
func (e *Event) Canceled() bool { return e.canceled }

// Detach cancels the event and drops its callback and argument
// references immediately instead of waiting for the lazy reap. Cancel
// alone leaves the Event holding its arg until the wheel bucket (or
// heap head) is next visited — up to the full wheel horizon — which
// pins pooled payload objects the caller has already recycled to a
// free list and may since have reused. Like Cancel, Detach must not be
// called on an event that has already fired.
func (e *Event) Detach() {
	e.canceled = true
	e.fn = nil
	e.afn = nil
	e.arg = nil
}

type eventQueue []*Event

func (q eventQueue) Len() int { return len(q) }
func (q eventQueue) Less(i, j int) bool {
	if q[i].when != q[j].when {
		return q[i].when < q[j].when
	}
	return q[i].seq < q[j].seq
}
func (q eventQueue) Swap(i, j int) {
	q[i], q[j] = q[j], q[i]
	q[i].index = i
	q[j].index = j
}
func (q *eventQueue) Push(x any) {
	e := x.(*Event)
	e.index = len(*q)
	*q = append(*q, e)
}
func (q *eventQueue) Pop() any {
	old := *q
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	e.index = -1
	*q = old[:n-1]
	return e
}

// Engine is a single-threaded discrete-event simulator. It is not safe for
// concurrent use; all model code runs inside event callbacks on one
// goroutine, which is what makes the simulation deterministic.
type Engine struct {
	now    Time
	queue  eventQueue
	seq    uint64
	rng    *RNG
	fired  uint64
	halted bool
	tracer *trace.Tracer

	mode       SchedulerMode
	wheel      [wheelSlots]*Event
	wheelCount int
	// flushed is the absolute bucket index up to which (inclusive) every
	// wheel bucket has been drained. Events scheduled at or before it go
	// straight to the heap; the wheel covers the next wheelSlots buckets.
	flushed uint64
	// run holds flushed, live events sorted by (when, seq), consumed
	// sequentially from runHead. Bucket time ranges are disjoint, so a
	// newly flushed bucket sorts after everything already in the run and
	// appending sorted chunks keeps the whole run sorted — the bulk of
	// traffic flows wheel → run → dispatch without ever touching the
	// heap, which is left to same-bucket reschedules and far events.
	run     []*Event
	runHead int

	// atEnd holds instant-end callbacks (AtInstantEnd): work deferred to
	// the moment the current instant has no live event left, consumed
	// FIFO from atEndHead. Not events — they carry no time and cost no
	// queue operation.
	atEnd     []instantCall
	atEndHead int

	free *Event // recycled Event objects (single-threaded free list)

	// sortTmp is sortChunk's reusable scratch: the pre-permutation copy
	// of the chunk. It grows to the largest bucket ever flushed and stays.
	sortTmp []*Event
}

// instantCall is one deferred instant-end callback.
type instantCall struct {
	fn  func(any)
	arg any
}

// NewEngine returns an engine with its clock at zero and a deterministic
// RNG seeded with seed, using the process-default scheduler mode.
func NewEngine(seed uint64) *Engine {
	return NewEngineMode(seed, DefaultSchedulerMode())
}

// NewEngineMode returns an engine with an explicit scheduler mode — the
// hook the heap-vs-wheel equivalence tests use.
func NewEngineMode(seed uint64, mode SchedulerMode) *Engine {
	return &Engine{rng: NewRNG(seed), mode: mode}
}

// SchedulerMode reports which event-queue implementation the engine runs.
func (e *Engine) SchedulerMode() SchedulerMode { return e.mode }

// Now returns the current virtual time.
func (e *Engine) Now() Time { return e.now }

// RNG returns the engine's deterministic random source.
func (e *Engine) RNG() *RNG { return e.rng }

// SetTracer attaches a flight recorder and binds its clock to the
// engine's virtual time. Components reach it through Tracer(); passing
// nil detaches (the default), making every trace call a no-op.
func (e *Engine) SetTracer(t *trace.Tracer) {
	e.tracer = t
	t.SetClock(func() int64 { return int64(e.now) })
}

// Tracer returns the attached flight recorder, which is nil (a valid,
// disabled tracer) unless SetTracer was called.
func (e *Engine) Tracer() *trace.Tracer { return e.tracer }

// Fired reports how many events have executed so far.
func (e *Engine) Fired() uint64 { return e.fired }

// Pending reports how many events are queued (including canceled ones that
// have not been reaped yet).
func (e *Engine) Pending() int { return len(e.queue) + e.wheelCount + len(e.run) - e.runHead }

// EngineSnapshot is an engine's externally observable state at a
// quiescent boundary: the virtual clock, the dispatch count, the queue
// population and the root RNG stream. Two deterministic runs that
// executed the same work report identical snapshots, which is what
// checkpoint resume verification hashes.
type EngineSnapshot struct {
	// Now is the virtual clock.
	Now Time
	// Fired is the number of events dispatched so far.
	Fired uint64
	// Pending counts still-queued events (including unreaped canceled
	// ones). A snapshot is a quiescent boundary only when this is zero:
	// queued callbacks are closures and cannot be serialized, so state
	// between boundaries is reconstructible only by re-execution.
	Pending int
	// RNG is the engine's root RNG state. Component streams are forked
	// from it by stable tags, so an identical root state on an identical
	// topology reproduces every derived stream.
	RNG [4]uint64
}

// Snapshot captures the engine's quiescent-boundary state. It is cheap
// (no allocation beyond the returned struct) and read-only.
func (e *Engine) Snapshot() EngineSnapshot {
	return EngineSnapshot{Now: e.now, Fired: e.fired, Pending: e.Pending(), RNG: e.rng.State()}
}

// alloc takes an Event from the free list (or the heap allocator) and
// initialises it for scheduling at t.
func (e *Engine) alloc(t Time, fn func(), afn func(any), arg any) *Event {
	ev := e.free
	if ev == nil {
		ev = &Event{}
	} else {
		e.free = ev.next
		ev.next = nil
	}
	ev.when = t
	ev.seq = e.seq
	e.seq++
	ev.fn = fn
	ev.afn = afn
	ev.arg = arg
	ev.index = -1
	ev.canceled = false
	return ev
}

// recycle returns a popped or reaped event to the free list. The
// canceled flag is deliberately left as-is so Canceled() stays truthful
// on a pointer the caller still holds; alloc resets it on reuse.
func (e *Engine) recycle(ev *Event) {
	ev.fn = nil
	ev.afn = nil
	ev.arg = nil
	ev.index = -1
	ev.next = e.free
	e.free = ev
}

// maxRunShift bounds the memmove a run insertion may pay. Past it the
// event goes to the heap instead: with thousands of same-bucket events
// in flight an unbounded sorted insert degrades quadratically, while
// the bound keeps the common small-run case (the RTO/hop workload) on
// the cheap path.
const maxRunShift = 64

// schedule places an initialised event in the run, the wheel or the
// heap. Events due inside an already-flushed bucket — the sub-bucket
// hop departures that dominate fabric traffic — are binary-inserted
// into the sorted run when the shift is small, so the heap is left
// with same-bucket overflow and far-horizon work.
func (e *Engine) schedule(ev *Event) {
	if e.mode == SchedulerWheel {
		b := bucketOf(ev.when)
		switch {
		case b <= e.flushed:
			// Inline binary search: sort.Search would cost an indirect
			// closure call per probe on the hottest insert path.
			lo, hi := e.runHead, len(e.run)
			for lo < hi {
				mid := int(uint(lo+hi) >> 1)
				if eventBefore(ev, e.run[mid]) {
					hi = mid
				} else {
					lo = mid + 1
				}
			}
			i := lo
			if len(e.run)-i <= maxRunShift {
				e.run = append(e.run, nil)
				copy(e.run[i+1:], e.run[i:])
				e.run[i] = ev
				return
			}
		case b <= e.flushed+wheelSlots:
			slot := b & wheelMask
			ev.next = e.wheel[slot]
			e.wheel[slot] = ev
			e.wheelCount++
			return
		}
	}
	heap.Push(&e.queue, ev)
}

// At schedules fn to run at virtual time t. Scheduling in the past panics:
// that is always a model bug and silently reordering time would corrupt
// results.
func (e *Engine) At(t Time, fn func()) *Event {
	if t < e.now {
		panic(fmt.Sprintf("sim: scheduling event at %v before now %v", t, e.now))
	}
	ev := e.alloc(t, fn, nil, nil)
	e.schedule(ev)
	return ev
}

// After schedules fn to run d from now. Negative d panics via At.
func (e *Engine) After(d Duration, fn func()) *Event {
	return e.At(e.now.Add(d), fn)
}

// AtArg schedules fn(arg) at virtual time t. Hot paths use it with one
// long-lived fn so that scheduling allocates nothing (no closure; the
// Event itself comes from the free list).
func (e *Engine) AtArg(t Time, fn func(any), arg any) *Event {
	if t < e.now {
		panic(fmt.Sprintf("sim: scheduling event at %v before now %v", t, e.now))
	}
	ev := e.alloc(t, nil, fn, arg)
	e.schedule(ev)
	return ev
}

// AfterArg schedules fn(arg) to run d from now.
func (e *Engine) AfterArg(d Duration, fn func(any), arg any) *Event {
	return e.AtArg(e.now.Add(d), fn, arg)
}

// eventBefore is the engine's total dispatch order: time, then
// scheduling sequence.
func eventBefore(a, b *Event) bool {
	if a.when != b.when {
		return a.when < b.when
	}
	return a.seq < b.seq
}

// sortChunk orders a freshly flushed bucket chunk by eventBefore.
// Bucket chains are built LIFO, so the chunk arrives nearly
// reverse-ordered; reversing it first makes the common
// all-in-schedule-order case a single already-sorted scan and puts the
// chunk in ascending seq order (bucket pushes happen in schedule order,
// and seq is assigned at schedule time). Small chunks take a direct
// insertion sort. Large ones take a stable counting sort on the event's
// offset inside its bucket (when mod 512): every event of a chunk lies
// in the same 512 ns bucket, so that offset orders by when, and
// stability keeps same-when events in the ascending seq order the
// reversal established — exactly (when, seq), in linear time and
// without a comparator call per step.
func (e *Engine) sortChunk(s []*Event) {
	for i, j := 0, len(s)-1; i < j; i, j = i+1, j-1 {
		s[i], s[j] = s[j], s[i]
	}
	if len(s) <= 32 {
		for i := 1; i < len(s); i++ {
			ev := s[i]
			j := i
			for j > 0 && eventBefore(ev, s[j-1]) {
				s[j] = s[j-1]
				j--
			}
			s[j] = ev
		}
		return
	}
	const offMask = 1<<bucketBits - 1
	var cnt [1 << bucketBits]int32
	for _, ev := range s {
		cnt[ev.when&offMask]++
	}
	var sum int32
	for i, c := range &cnt {
		cnt[i] = sum
		sum += c
	}
	tmp := append(e.sortTmp[:0], s...)
	e.sortTmp = tmp
	for _, ev := range tmp {
		o := ev.when & offMask
		s[cnt[o]] = ev
		cnt[o]++
	}
}

// flushBucketsTo drains wheel buckets (flushed, target] into the sorted
// run, reaping canceled events as it goes — this is where a canceled
// RTO's storage is reclaimed without ever costing a heap operation.
func (e *Engine) flushBucketsTo(target uint64) {
	limit := e.flushed + wheelSlots
	if target < limit {
		limit = target
	}
	if e.runHead > 0 {
		// Compact the consumed prefix so the run never grows unboundedly.
		e.run = e.run[:copy(e.run, e.run[e.runHead:])]
		e.runHead = 0
	}
	for b := e.flushed + 1; b <= limit; b++ {
		slot := b & wheelMask
		ev := e.wheel[slot]
		if ev == nil {
			continue
		}
		e.wheel[slot] = nil
		start := len(e.run)
		for ev != nil {
			next := ev.next
			ev.next = nil
			e.wheelCount--
			if ev.canceled {
				e.recycle(ev)
			} else {
				e.run = append(e.run, ev)
			}
			ev = next
		}
		// Buckets cover disjoint time ranges, so sorting just this
		// bucket's chunk keeps the whole run sorted.
		e.sortChunk(e.run[start:])
	}
	e.flushed = limit
}

// peek returns the earliest live event without removing it, reaping
// canceled run/heap heads and flushing any wheel bucket that could
// precede them. Returns nil when nothing live is queued. Instant-end
// callbacks run here, one per iteration, once no live event remains at
// the current instant — so a callback that schedules new work at the
// current instant re-opens it and the remaining callbacks wait.
func (e *Engine) peek() *Event {
	for {
		// Candidate: the smaller of the run head and the heap top.
		var c *Event
		if e.runHead < len(e.run) {
			c = e.run[e.runHead]
			if c.canceled {
				e.runHead++
				e.recycle(c)
				continue
			}
		}
		if len(e.queue) > 0 {
			top := e.queue[0]
			if top.canceled {
				heap.Pop(&e.queue)
				e.recycle(top)
				continue
			}
			if c == nil || eventBefore(top, c) {
				c = top
			}
		}
		if c == nil {
			if e.wheelCount == 0 {
				if e.stepInstantEnd(nil) {
					continue
				}
				return nil
			}
			// Flush only up to the first occupied bucket: draining the
			// whole window would fast-forward flushed so far that every
			// event scheduled next falls behind it and bypasses the wheel.
			b := e.flushed + 1
			for e.wheel[b&wheelMask] == nil {
				b++
			}
			e.flushBucketsTo(b)
			continue
		}
		cb := bucketOf(c.when)
		if cb <= e.flushed {
			if e.stepInstantEnd(c) {
				continue
			}
			return c
		}
		if e.wheelCount == 0 {
			// Nothing in the wheel can precede the candidate.
			e.flushed = cb
			if e.stepInstantEnd(c) {
				continue
			}
			return c
		}
		e.flushBucketsTo(cb)
	}
}

// AtInstantEnd defers fn(arg) to the end of the current instant: it runs
// after every live event scheduled at the current virtual time has
// dispatched, and before the clock advances. Callbacks run FIFO; one
// that schedules new events at the current instant re-opens it, and the
// callbacks still queued run after those events. This is the hook for
// canonical same-instant ordering: a component can buffer same-instant
// arrivals and process them in an order of its own choosing — one that
// does not depend on event scheduling lineage — which is what makes
// sharded execution byte-identical to the single loop.
func (e *Engine) AtInstantEnd(fn func(any), arg any) {
	e.atEnd = append(e.atEnd, instantCall{fn: fn, arg: arg})
}

// stepInstantEnd runs the oldest queued instant-end callback if the
// current instant is over (the next live candidate c, possibly nil, is
// not at now). Reports whether a callback ran.
func (e *Engine) stepInstantEnd(c *Event) bool {
	if e.atEndHead >= len(e.atEnd) || (c != nil && c.when == e.now) {
		return false
	}
	call := e.atEnd[e.atEndHead]
	e.atEnd[e.atEndHead] = instantCall{}
	e.atEndHead++
	if e.atEndHead == len(e.atEnd) {
		e.atEnd = e.atEnd[:0]
		e.atEndHead = 0
	}
	call.fn(call.arg)
	return true
}

// dispatch removes ev (which must be peek's result) from its tier,
// advances the clock, recycles the event and runs its callback.
// Recycling first lets a callback that immediately re-schedules reuse
// the hot object.
func (e *Engine) dispatch(ev *Event) {
	if e.runHead < len(e.run) && e.run[e.runHead] == ev {
		e.runHead++
		if e.runHead == len(e.run) {
			e.run = e.run[:0]
			e.runHead = 0
		}
	} else {
		heap.Pop(&e.queue)
	}
	e.now = ev.when
	e.fired++
	fn, afn, arg := ev.fn, ev.afn, ev.arg
	e.recycle(ev)
	if fn != nil {
		fn()
	} else {
		afn(arg)
	}
}

// Halt stops Run before the next event is dispatched.
func (e *Engine) Halt() { e.halted = true }

// Halted reports whether Halt was called since the last Run started.
// ShardedEngine steps shard engines directly (bypassing Run) and needs
// to observe a model's Halt without losing it to Run's reset.
func (e *Engine) Halted() bool { return e.halted }

// resetHalt clears the halted flag, as Run does on entry; the sharded
// driver calls it when it begins draining on a shard's behalf.
func (e *Engine) resetHalt() { e.halted = false }

// PeekTime reports the (time, seq) of the next live event without
// dispatching it, and whether one exists. Instant-end callbacks may run
// (exactly as they would on the next Step), so after PeekTime returns
// the reported event really is the next to dispatch.
func (e *Engine) PeekTime() (Time, uint64, bool) {
	ev := e.peek()
	if ev == nil {
		return 0, 0, false
	}
	return ev.when, ev.seq, true
}

// Run drains the event queue until it is empty, Halt is called, or the
// clock would pass horizon. It returns the virtual time of the last event
// executed (or the current time if none ran).
func (e *Engine) Run(horizon Time) Time {
	e.halted = false
	tr := e.tracer
	firedBefore := e.fired
	tr.Begin("sim", "engine", "sim", "run", trace.U("pending", uint64(e.Pending())))
	for !e.halted {
		ev := e.peek()
		if ev == nil || ev.when > horizon {
			break
		}
		e.dispatch(ev)
		// Batched fast path: every run-buffer event sits in a bucket
		// ≤ flushed, and every wheel event in a bucket > flushed, so
		// while the run is non-empty nothing in the wheel can precede
		// its head — only the heap top competes. Draining the run here
		// skips peek's candidate/flush machinery per event; anything
		// that needs the slow path (heap precedence, a canceled heap
		// head, pending instant-end work, the horizon) breaks out.
		for !e.halted && e.runHead < len(e.run) {
			nv := e.run[e.runHead]
			if nv.canceled {
				e.runHead++
				e.recycle(nv)
				continue
			}
			if nv.when > horizon ||
				(len(e.queue) > 0 && eventBefore(e.queue[0], nv)) ||
				(e.atEndHead < len(e.atEnd) && nv.when != e.now) {
				break
			}
			e.runHead++
			if e.runHead == len(e.run) {
				e.run = e.run[:0]
				e.runHead = 0
			}
			e.now = nv.when
			e.fired++
			fn, afn, arg := nv.fn, nv.afn, nv.arg
			e.recycle(nv)
			if fn != nil {
				fn()
			} else {
				afn(arg)
			}
		}
	}
	tr.End("sim", "engine",
		trace.U("fired", e.fired-firedBefore), trace.B("halted", e.halted))
	return e.now
}

// RunAll drains the queue with no horizon.
func (e *Engine) RunAll() Time { return e.Run(Forever) }

// Step executes exactly one (non-canceled) event if any is queued, and
// reports whether one ran.
func (e *Engine) Step() bool {
	ev := e.peek()
	if ev == nil {
		return false
	}
	e.dispatch(ev)
	return true
}

// Advance moves the clock forward by d without running events. It panics
// if any pending live event would be skipped; it exists for tests that
// need to position the clock before scheduling. Canceled events are
// reaped, never guarded: only an event that would actually fire blocks
// the advance.
func (e *Engine) Advance(d Duration) {
	target := e.now.Add(d)
	if ev := e.peek(); ev != nil && ev.when < target {
		panic("sim: Advance would skip a pending event")
	}
	e.now = target
	// Keep the flushed watermark abreast of the clock: after a long jump
	// with an empty wheel, a stale watermark would route every event in
	// the next ~4 ms straight to the heap (bucket > flushed+wheelSlots)
	// until the wheel self-healed. Only safe when the wheel is empty —
	// otherwise the unflushed buckets still hold events.
	if e.wheelCount == 0 {
		if b := bucketOf(target); b > e.flushed {
			e.flushed = b
		}
	}
}
