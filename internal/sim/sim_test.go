package sim

import (
	"testing"
	"testing/quick"
	"time"
)

func TestEngineRunsEventsInTimeOrder(t *testing.T) {
	e := NewEngine(1)
	var got []int
	e.At(30, func() { got = append(got, 3) })
	e.At(10, func() { got = append(got, 1) })
	e.At(20, func() { got = append(got, 2) })
	e.RunAll()
	want := []int{1, 2, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("event order = %v, want %v", got, want)
		}
	}
	if e.Now() != 30 {
		t.Errorf("Now() = %v, want 30ns", e.Now())
	}
}

func TestEngineTieBreakIsFIFO(t *testing.T) {
	e := NewEngine(1)
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		e.At(5, func() { got = append(got, i) })
	}
	e.RunAll()
	for i := range got {
		if got[i] != i {
			t.Fatalf("same-time events ran out of order: %v", got)
		}
	}
}

func TestEngineAfterUsesCurrentTime(t *testing.T) {
	e := NewEngine(1)
	var fireAt Time
	e.At(100, func() {
		e.After(50*time.Nanosecond, func() { fireAt = e.Now() })
	})
	e.RunAll()
	if fireAt != 150 {
		t.Errorf("nested After fired at %v, want 150ns", fireAt)
	}
}

func TestEngineCancel(t *testing.T) {
	e := NewEngine(1)
	ran := false
	ev := e.At(10, func() { ran = true })
	ev.Cancel()
	e.RunAll()
	if ran {
		t.Error("canceled event still ran")
	}
	if !ev.Canceled() {
		t.Error("Canceled() = false after Cancel")
	}
}

func TestEngineHorizonStopsEarly(t *testing.T) {
	e := NewEngine(1)
	ran := 0
	e.At(10, func() { ran++ })
	e.At(1000, func() { ran++ })
	e.Run(100)
	if ran != 1 {
		t.Fatalf("ran %d events before horizon, want 1", ran)
	}
	if e.Pending() != 1 {
		t.Errorf("Pending() = %d, want 1", e.Pending())
	}
	e.RunAll()
	if ran != 2 {
		t.Errorf("resume did not run remaining event")
	}
}

func TestEnginePastSchedulingPanics(t *testing.T) {
	e := NewEngine(1)
	e.At(100, func() {})
	e.RunAll()
	defer func() {
		if recover() == nil {
			t.Error("scheduling in the past did not panic")
		}
	}()
	e.At(50, func() {})
}

func TestEngineHalt(t *testing.T) {
	e := NewEngine(1)
	ran := 0
	e.At(1, func() { ran++; e.Halt() })
	e.At(2, func() { ran++ })
	e.RunAll()
	if ran != 1 {
		t.Fatalf("Halt did not stop the run: ran=%d", ran)
	}
}

func TestEngineStep(t *testing.T) {
	e := NewEngine(1)
	ran := 0
	e.At(1, func() { ran++ })
	e.At(2, func() { ran++ })
	if !e.Step() || ran != 1 {
		t.Fatalf("first Step: ran=%d", ran)
	}
	if !e.Step() || ran != 2 {
		t.Fatalf("second Step: ran=%d", ran)
	}
	if e.Step() {
		t.Error("Step on empty queue returned true")
	}
}

func TestEngineAdvance(t *testing.T) {
	e := NewEngine(1)
	e.Advance(5 * time.Microsecond)
	if e.Now() != Time(5*time.Microsecond) {
		t.Errorf("Now() = %v after Advance", e.Now())
	}
	e.At(e.Now().Add(time.Millisecond), func() {})
	defer func() {
		if recover() == nil {
			t.Error("Advance past a pending event did not panic")
		}
	}()
	e.Advance(2 * time.Millisecond)
}

func TestAdvanceReapsCanceledHead(t *testing.T) {
	// Regression: a canceled event at the queue head must not mask a
	// live event behind it — Advance has to panic for the live one.
	e := NewEngine(1)
	ev := e.At(10, func() {})
	e.At(20, func() {})
	ev.Cancel()
	defer func() {
		if recover() == nil {
			t.Error("Advance skipped a live event hidden behind a canceled head")
		}
	}()
	e.Advance(30 * time.Nanosecond)
}

func TestAdvancePastOnlyCanceledEvents(t *testing.T) {
	e := NewEngine(1)
	for i := Time(10); i <= 50; i += 10 {
		e.At(i, func() {}).Cancel()
	}
	e.Advance(100 * time.Nanosecond) // must not panic: nothing live pends
	if e.Now() != 100 {
		t.Errorf("Now() = %v, want 100ns", e.Now())
	}
	if got := e.Pending(); got != 0 {
		t.Errorf("Pending() = %d after reaping, want 0", got)
	}
}

func TestAtArgRunsWithArgument(t *testing.T) {
	e := NewEngine(1)
	var got []int
	fn := func(a any) { got = append(got, a.(int)) }
	e.AtArg(20, fn, 2)
	e.AtArg(10, fn, 1)
	e.AfterArg(30*time.Nanosecond, fn, 3)
	e.RunAll()
	if len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Errorf("arg-event order = %v, want [1 2 3]", got)
	}
}

func TestEventPoolingIsAllocationFree(t *testing.T) {
	e := NewEngine(1)
	fn := func(any) {}
	// Warm the free list and the heap's backing array.
	for i := 0; i < 64; i++ {
		e.AfterArg(time.Microsecond, fn, nil)
	}
	e.RunAll()
	allocs := testing.AllocsPerRun(1000, func() {
		e.AfterArg(time.Microsecond, fn, nil)
		e.Step()
	})
	if allocs != 0 {
		t.Errorf("schedule+fire allocated %.1f objects/op, want 0", allocs)
	}
}

// TestHeapWheelEquivalence drives the two scheduler implementations
// with an identical randomized schedule/cancel workload — short RTO-like
// timers, same-tick ties, nested scheduling from callbacks, far events,
// and heavy cancellation — and requires the exact same firing sequence.
func TestHeapWheelEquivalence(t *testing.T) {
	type firing struct {
		at Time
		id int
	}
	run := func(mode SchedulerMode) []firing {
		e := NewEngineMode(1, mode)
		rng := NewRNG(0xec)
		var got []firing
		id := 0
		var spawn func(depth int) // schedules one random event tree
		spawn = func(depth int) {
			id++
			me := id
			// Mix of horizons: same-bucket, RTO-scale, far beyond the wheel.
			var d Duration
			switch rng.Intn(4) {
			case 0:
				d = Duration(rng.Intn(2000)) // sub-bucket, lots of ties
			case 1:
				d = Duration(rng.Intn(300)) * time.Microsecond
			case 2:
				d = 250 * time.Microsecond
			default:
				d = Duration(1+rng.Intn(20)) * time.Millisecond
			}
			ev := e.After(d, func() {
				got = append(got, firing{e.Now(), me})
				if depth < 3 && rng.Intn(3) == 0 {
					spawn(depth + 1)
				}
			})
			// Cancel the bulk, like RTOs that are almost always acked.
			if rng.Intn(10) < 7 {
				ev.Cancel()
			}
		}
		for i := 0; i < 2000; i++ {
			spawn(0)
		}
		e.RunAll()
		return got
	}

	heapSeq := run(SchedulerHeap)
	wheelSeq := run(SchedulerWheel)
	if len(heapSeq) != len(wheelSeq) {
		t.Fatalf("fired %d events on heap vs %d on wheel", len(heapSeq), len(wheelSeq))
	}
	for i := range heapSeq {
		if heapSeq[i] != wheelSeq[i] {
			t.Fatalf("firing %d diverged: heap=%+v wheel=%+v", i, heapSeq[i], wheelSeq[i])
		}
	}
	if len(heapSeq) == 0 {
		t.Fatal("workload fired no events")
	}
}

// TestHeapWheelEquivalenceDenseBuckets is the equivalence test for the
// wheel's large-chunk flush: every bucket holds hundreds of live events,
// half of them piled onto a few shared instants and the rest spread over
// all 512 in-bucket offsets, with a third canceled and callbacks that
// add more events to the current and to later dense buckets.
func TestHeapWheelEquivalenceDenseBuckets(t *testing.T) {
	const buckets = 48
	type firing struct {
		at Time
		id int
	}
	run := func(mode SchedulerMode) []firing {
		e := NewEngineMode(1, mode)
		rng := NewRNG(0xde75e)
		var got []firing
		id := 0
		// offset picks an in-bucket offset: a few hot instants (ties)
		// half the time, any of the 512 slots otherwise.
		offset := func() Time {
			if rng.Intn(2) == 0 {
				return Time(rng.Intn(4) * 170)
			}
			return Time(rng.Intn(1 << bucketBits))
		}
		var spawn func(at Time, depth int)
		spawn = func(at Time, depth int) {
			id++
			me := id
			ev := e.At(at, func() {
				got = append(got, firing{e.Now(), me})
				if depth < 2 && rng.Intn(4) == 0 {
					// Same bucket (run/heap path) or a later dense bucket.
					next := e.Now() + Time(rng.Intn(600))
					if rng.Intn(2) == 0 {
						b := bucketOf(e.Now()) + 1 + uint64(rng.Intn(8))
						next = Time(b<<bucketBits) + offset()
					}
					spawn(next, depth+1)
				}
			})
			if rng.Intn(3) == 0 {
				ev.Cancel()
			}
		}
		for b := 1; b <= buckets; b++ {
			n := 64 + rng.Intn(512)
			for i := 0; i < n; i++ {
				spawn(Time(b<<bucketBits)+offset(), 0)
			}
		}
		e.RunAll()
		return got
	}

	heapSeq := run(SchedulerHeap)
	wheelSeq := run(SchedulerWheel)
	if len(heapSeq) != len(wheelSeq) {
		t.Fatalf("fired %d events on heap vs %d on wheel", len(heapSeq), len(wheelSeq))
	}
	for i := range heapSeq {
		if heapSeq[i] != wheelSeq[i] {
			t.Fatalf("firing %d diverged: heap=%+v wheel=%+v", i, heapSeq[i], wheelSeq[i])
		}
	}
	if len(heapSeq) < buckets*64/2 {
		t.Fatalf("workload fired only %d events", len(heapSeq))
	}
}

func TestSchedulerModeParse(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want SchedulerMode
	}{{"wheel", SchedulerWheel}, {"heap", SchedulerHeap}} {
		got, err := ParseSchedulerMode(tc.in)
		if err != nil || got != tc.want {
			t.Errorf("ParseSchedulerMode(%q) = %v, %v", tc.in, got, err)
		}
		if got.String() != tc.in {
			t.Errorf("String() = %q, want %q", got.String(), tc.in)
		}
	}
	if _, err := ParseSchedulerMode("calendar"); err == nil {
		t.Error("unknown mode accepted")
	}
}

func TestRNGDeterminism(t *testing.T) {
	a, b := NewRNG(42), NewRNG(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same seed diverged")
		}
	}
	c := NewRNG(43)
	same := 0
	a = NewRNG(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() == c.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Errorf("different seeds matched %d/1000 outputs", same)
	}
}

func TestRNGForkIndependence(t *testing.T) {
	parent := NewRNG(7)
	f1 := parent.Fork(1)
	f2 := parent.Fork(2)
	if f1.Uint64() == f2.Uint64() {
		t.Error("forks with different tags produced identical first output")
	}
	// Forking must not consume parent state.
	p1 := NewRNG(7)
	p1.Fork(1)
	p2 := NewRNG(7)
	if p1.Uint64() != p2.Uint64() {
		t.Error("Fork consumed parent RNG state")
	}
}

func TestRNGFloat64Range(t *testing.T) {
	r := NewRNG(5)
	for i := 0; i < 10000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64() = %v out of [0,1)", f)
		}
	}
}

func TestRNGIntnUniformish(t *testing.T) {
	r := NewRNG(9)
	const n, trials = 8, 80000
	var buckets [n]int
	for i := 0; i < trials; i++ {
		buckets[r.Intn(n)]++
	}
	want := trials / n
	for i, c := range buckets {
		if c < want*8/10 || c > want*12/10 {
			t.Errorf("bucket %d has %d hits, want ~%d", i, c, want)
		}
	}
}

func TestRNGPermIsPermutation(t *testing.T) {
	f := func(seed uint64) bool {
		r := NewRNG(seed)
		n := 1 + r.Intn(64)
		p := r.Perm(n)
		seen := make([]bool, n)
		for _, v := range p {
			if v < 0 || v >= n || seen[v] {
				return false
			}
			seen[v] = true
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestRNGExpPositiveMean(t *testing.T) {
	r := NewRNG(11)
	sum := 0.0
	const trials = 20000
	for i := 0; i < trials; i++ {
		v := r.Exp(5)
		if v < 0 {
			t.Fatalf("Exp returned negative %v", v)
		}
		sum += v
	}
	mean := sum / trials
	if mean < 4.5 || mean > 5.5 {
		t.Errorf("Exp(5) sample mean = %v, want ~5", mean)
	}
}

func TestTimeHelpers(t *testing.T) {
	tm := Time(1500)
	if tm.Add(500) != 2000 {
		t.Error("Add")
	}
	if tm.Sub(500) != 1000 {
		t.Error("Sub")
	}
	if Time(2e9).Seconds() != 2.0 {
		t.Error("Seconds")
	}
	if Forever.String() != "forever" {
		t.Error("Forever.String")
	}
}

func TestEventDetachClearsReferences(t *testing.T) {
	e := NewEngine(1)
	fired := false
	type payload struct{ n int }
	arg := &payload{n: 42}
	ev := e.AfterArg(100, func(any) { fired = true }, arg)
	ev.Detach()
	if ev.fn != nil || ev.afn != nil || ev.arg != nil {
		t.Error("Detach left callback or arg references pinned")
	}
	if !ev.Canceled() {
		t.Error("detached event not canceled")
	}
	e.RunAll()
	if fired {
		t.Error("detached event fired")
	}
	// The reaped event must be recyclable: later scheduling still works.
	ok := false
	e.After(50, func() { ok = true })
	e.RunAll()
	if !ok {
		t.Error("engine broken after detaching an event")
	}
}
