package main

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"runtime/pprof"
	"strings"
	"testing"
	"time"

	"repro/internal/sim"
)

func mustExpect(t *testing.T, name string) []outputs {
	t.Helper()
	exp, err := loadExpectations()
	if err != nil {
		t.Fatal(err)
	}
	want := exp.Workloads[name]
	if want == nil {
		t.Fatalf("expected.json has no outputs for %s", name)
	}
	return want
}

func runOnce(t *testing.T, name string, e env) []cell {
	t.Helper()
	w, ok := lookupWorkload(name)
	if !ok {
		t.Fatalf("no workload %s", name)
	}
	r, err := runRep(w, e, defaultSeed, nil)
	if err != nil {
		t.Fatal(err)
	}
	return r.cells
}

func failed(cells []cell) (n int) {
	for _, c := range cells {
		n += c.Failed
	}
	return n
}

// TestSchedulersMatchExpected runs every workload under the heap (the
// reference) and the wheel scheduler and checks both against the
// recorded outputs, so expected.json holds values both agree on.
func TestSchedulersMatchExpected(t *testing.T) {
	for _, w := range workloads {
		if testing.Short() && w.name == "fleet-permutation" {
			continue // ~20 s on the heap
		}
		want := mustExpect(t, w.name)
		for _, mode := range []sim.SchedulerMode{sim.SchedulerHeap, sim.SchedulerWheel} {
			mode := mode
			cells := runOnce(t, w.name, env{mode: &mode})
			check(cells, want, nil)
			for _, c := range cells {
				if c.Failed != 0 {
					t.Errorf("%s under %s: cell %s failed %d/%d ops: %s",
						w.name, mode, c.Name, c.Failed, c.Ops, strings.Join(c.Problems, "; "))
				}
			}
		}
	}
}

// TestPerturbedExpectedFailsOps shows that an expected value that does
// not match is reported as failed ops of that cell alone, and that a
// rep whose outputs differ from the first rep's is caught the same way.
func TestPerturbedExpectedFailsOps(t *testing.T) {
	want := mustExpect(t, "lossy-allreduce")
	cells := runOnce(t, "lossy-allreduce", env{})
	base := append([]cell(nil), cells...)

	for _, perturb := range []func(o *outputs){
		func(o *outputs) { o.Events++ },
		func(o *outputs) { o.Dropped-- },
		func(o *outputs) { o.Digest = strings.Repeat("0", 64) },
	} {
		bad := append([]outputs(nil), want...)
		perturb(&bad[1])
		got := append([]cell(nil), base...)
		for i := range got {
			got[i].Problems = nil
		}
		check(got, bad, nil)
		for i, c := range got {
			wantFailed := 0
			if i == 1 {
				wantFailed = c.Ops
			}
			if c.Failed != wantFailed {
				t.Errorf("cell %s: %d failed ops, want %d", c.Name, c.Failed, wantFailed)
			}
		}
	}

	// A later rep whose values drift from the first rep's.
	ref := make([]outputs, len(base))
	for i, c := range base {
		ref[i] = outputsOf(c)
	}
	drift := append([]cell(nil), base...)
	drift[0].Values = append(append([]any(nil), drift[0].Values...), "drift")
	check(drift, nil, ref)
	if drift[0].Failed != drift[0].Ops || failed(drift[1:]) != 0 {
		t.Errorf("rep drift: failed %d of cell 0, %d elsewhere", drift[0].Failed, failed(drift[1:]))
	}
}

// TestPanicIsFailedOps shows that a layer panicking inside a cell
// becomes that cell's failed ops, not a crash.
func TestPanicIsFailedOps(t *testing.T) {
	c := runPlan(plan{name: "boom", ops: 7, run: func(*spans, int) cell { panic("layer bug") }}, nil, 0)
	if c.Ops != 7 || c.Failed != 7 || len(c.Problems) != 1 || !strings.Contains(c.Problems[0], "layer bug") {
		t.Fatalf("panicking cell = %+v", c)
	}
}

func TestLayerOf(t *testing.T) {
	for _, tc := range []struct {
		stack []string
		want  string
	}{
		{[]string{"runtime.mapaccess2", "repro/internal/fabric.(*Fabric).hop", "repro/internal/sim.(*Engine).Run"}, "fabric"},
		{[]string{"runtime.mallocgc", "repro/internal/pagetable.(*TLB).Insert", "repro/internal/iommu.(*IOMMU).Map"}, "pagetable"},
		{[]string{"repro/internal/collective.RunPermutation.func1"}, "collective"},
		{[]string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"}, gcLayer},
		{[]string{"main.runRep", "main.main"}, otherLayer},
	} {
		if got := layerOf(tc.stack); got != tc.want {
			t.Errorf("layerOf(%v) = %s, want %s", tc.stack, got, tc.want)
		}
	}
}

var spinSink uint64

// TestProfileRoundTrip decodes a real CPU profile of this process and
// checks the fold accounts for every sample.
func TestProfileRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skip("CPU profiling unavailable:", err)
	}
	deadline := time.Now().Add(300 * time.Millisecond)
	for time.Now().Before(deadline) {
		for i := 0; i < 1e5; i++ {
			spinSink = spinSink*6364136223846793005 + 1442695040888963407
		}
	}
	pprof.StopCPUProfile()
	samples, err := parseProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	layers := map[string]int64{}
	total := fold(samples, layers)
	if total == 0 {
		t.Skip("profile has no samples")
	}
	var sum int64
	for _, n := range layers {
		sum += n
	}
	if sum != total {
		t.Fatalf("fold charged %d of %d samples", sum, total)
	}
	found := false
	for _, s := range samples {
		for _, fn := range s.funcs {
			found = found || strings.HasSuffix(fn, "TestProfileRoundTrip")
		}
	}
	if !found {
		t.Errorf("no sample names the spinning test function")
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("odd median = %v", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("even median = %v", got)
	}
}

// TestMetricsMatchBenchmarkJSON runs the cheapest workload untraced and
// traced and checks each prints exactly the metrics BENCHMARK.json
// declares, with the declared units, and passes its output check.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("no BENCHMARK.json beside the benchmark:", err)
	}
	var decl struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &decl); err != nil {
		t.Fatal(err)
	}
	w, _ := lookupWorkload("serverless-churn")
	for _, tc := range []struct {
		traced bool
		want   []struct{ Name, Unit string }
	}{{false, decl.EndToEnd}, {true, decl.PerLayer}} {
		res, err := run(io.Discard, w, defaultSeed, time.Second, tc.traced)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
			t.Errorf("traced=%v: correct=%v attempted=%d failed=%d", tc.traced, res.Correct, res.Attempted, res.Failed)
		}
		if len(res.Metrics) != len(tc.want) {
			t.Errorf("traced=%v: %d metrics, BENCHMARK.json declares %d", tc.traced, len(res.Metrics), len(tc.want))
		}
		for _, d := range tc.want {
			m, ok := res.Metrics[d.Name]
			if !ok || m.Unit != d.Unit {
				t.Errorf("traced=%v: metric %s = %+v (present %v), want unit %s", tc.traced, d.Name, m, ok, d.Unit)
			}
		}
	}
}
