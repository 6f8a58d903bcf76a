// Command benchmark is the simulator's benchmark: it runs one workload
// for a fixed host-time budget, checks every simulated output, and
// prints its metrics by name with their units. The last line of its
// output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end ones (wall_s, setup_s,
// peak_rss_mb); with -trace 1 they are the per-layer ones, from a run
// that adds spans around each call into a layer, a CPU profile folded
// by package, and the layer microbenchmarks. NOTES.md says why each
// workload is here and which metric each layer should move.
//
// Run it from the repository root with benchmark/run.sh, which keeps
// the Go build cache inside the checkout:
//
//	bash benchmark/run.sh --workload fleet-permutation --seed 1 --seconds 20 --trace 0
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"sort"
	"strings"
	"time"
)

// metric is one named value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// setup_s is the median of at least minSetupSamples set-ups that
// together take setupBudget, and of at most maxSetupSamples.
const (
	minSetupSamples = 15
	maxSetupSamples = 2000
	setupBudget     = 250 * time.Millisecond
)

// rep is one set-up-and-run of a workload.
type rep struct {
	setup, wall time.Duration
	cells       []cell
	allocBytes  uint64
	mallocs     uint64
	gcCycles    uint32
	traced      bool
	// setupHeap is the live heap the set-up added (traced reps only).
	setupHeap int64
	sp        *spans
}

// runRep sets the workload up and runs every cell once. A rep given a
// profile buffer is traced: it records spans, and the buffer receives a
// CPU profile of the run phase.
func runRep(w workload, e env, seed uint64, prof *bytes.Buffer) (rep, error) {
	traced := prof != nil
	r := rep{traced: traced}
	if traced {
		r.sp = &spans{}
	}
	var ms runtime.MemStats
	runtime.GC()
	if traced {
		runtime.ReadMemStats(&ms)
		r.setupHeap = -int64(ms.HeapAlloc)
	}
	t0 := time.Now()
	plans, err := w.build(e, seed, r.sp)
	r.setup = time.Since(t0)
	if err != nil {
		return r, fmt.Errorf("%s setup: %w", w.name, err)
	}
	if traced {
		runtime.GC()
		runtime.ReadMemStats(&ms)
		r.setupHeap += int64(ms.HeapAlloc)
	}
	runtime.ReadMemStats(&ms)
	alloc0, mallocs0, gc0 := ms.TotalAlloc, ms.Mallocs, ms.NumGC
	if traced {
		if err := pprof.StartCPUProfile(prof); err != nil {
			return r, fmt.Errorf("starting CPU profile: %w", err)
		}
	}
	t1 := time.Now()
	for op, p := range plans {
		r.cells = append(r.cells, runPlan(p, r.sp, op))
	}
	r.wall = time.Since(t1)
	if traced {
		pprof.StopCPUProfile()
	}
	runtime.ReadMemStats(&ms)
	r.allocBytes, r.mallocs, r.gcCycles = ms.TotalAlloc-alloc0, ms.Mallocs-mallocs0, ms.NumGC-gc0
	return r, nil
}

// build runs the workload's set-up, turning a panic into an error.
func (w workload) build(e env, seed uint64, sp *spans) (plans []plan, err error) {
	defer func() {
		if v := recover(); v != nil {
			sp.closeAll()
			err = fmt.Errorf("panic: %v", v)
		}
	}()
	return w.setup(e, seed, sp)
}

// runPlan runs one cell, turning a panic into failed ops.
func runPlan(p plan, sp *spans, op int) (c cell) {
	defer func() {
		if v := recover(); v != nil {
			sp.closeAll()
			c = cell{Name: p.name, Ops: p.ops}
			c.fail(p.ops, fmt.Sprintf("panic: %v", v))
		}
	}()
	return p.run(sp, op)
}

// failedRep is the single failed op a rep counts when its set-up failed.
func failedRep(name string, err error) []cell {
	c := cell{Name: name}
	c.fail(1, err.Error())
	return []cell{c}
}

func main() {
	name := flag.String("workload", "", "workload to run: "+workloadNames())
	seed := flag.Uint64("seed", defaultSeed, "seed the workload's inputs are made from")
	seconds := flag.Int("seconds", 10, "host seconds to spend running reps")
	traceFlag := flag.Int("trace", 0, "1 reports per-layer metrics from a traced, profiled run; 0 the end-to-end metrics")
	writeExpected := flag.String("write-expected", "", "run one rep at the default seed and record its outputs in this expected.json")
	flag.Parse()
	w, ok := lookupWorkload(*name)
	if !ok || *seconds < 1 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintf(os.Stderr, "benchmark: need -workload (%s), -seconds >= 1 and -trace 0|1\n", workloadNames())
		os.Exit(2)
	}
	if *writeExpected != "" {
		if err := recordExpected(w, *writeExpected); err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			os.Exit(1)
		}
		return
	}
	res, err := run(os.Stdout, w, *seed, time.Duration(*seconds)*time.Second, *traceFlag == 1)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
	b, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
	fmt.Println(string(b))
}

func workloadNames() string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return strings.Join(names, ", ")
}

// recordExpected runs one rep at the default seed and stores its
// outputs under the workload's name in the expected file at path.
func recordExpected(w workload, path string) error {
	x := expectations{Seed: defaultSeed, Workloads: map[string][]outputs{}}
	if b, err := os.ReadFile(path); err == nil {
		if err := json.Unmarshal(b, &x); err != nil {
			return fmt.Errorf("parsing %s: %w", path, err)
		}
	}
	r, err := runRep(w, env{}, defaultSeed, nil)
	if err != nil {
		return err
	}
	var outs []outputs
	for _, c := range r.cells {
		if c.Failed > 0 {
			return fmt.Errorf("%s cell %s failed: %s", w.name, c.Name, strings.Join(c.Problems, "; "))
		}
		outs = append(outs, outputsOf(c))
	}
	x.Workloads[w.name] = outs
	b, err := json.MarshalIndent(x, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// run is the benchmark: reps of the workload until the budget is spent,
// every rep checked, then the metrics of the requested kind.
func run(out io.Writer, w workload, seed uint64, budget time.Duration, traced bool) (result, error) {
	fp := hostFingerprint()
	fpJSON, err := json.Marshal(fp)
	if err != nil {
		return result{}, err
	}
	fmt.Fprintf(out, "host %s\n", fpJSON)
	steal := newStealMeter()
	exp, err := loadExpectations()
	if err != nil {
		return result{}, err
	}
	var want []outputs
	if seed == exp.Seed {
		if want = exp.Workloads[w.name]; want == nil {
			return result{}, fmt.Errorf("expected.json has no outputs for %s", w.name)
		}
	}

	// Reps alternate untraced and traced in a traced run, so the
	// tracing overhead is measured on the same host moments. A rep is
	// started only while the budget has room for one more.
	var reps []rep
	var ref []outputs
	var profiles [][]byte
	start := time.Now()
	for i := 0; ; i++ {
		var prof *bytes.Buffer
		if traced && i%2 == 1 {
			prof = &bytes.Buffer{}
		}
		repStart := time.Now()
		r, err := runRep(w, env{}, seed, prof)
		if err != nil {
			r.cells = failedRep(w.name, err)
		}
		check(r.cells, want, ref)
		if ref == nil && err == nil {
			for _, c := range r.cells {
				ref = append(ref, outputsOf(c))
			}
		}
		if prof != nil {
			profiles = append(profiles, prof.Bytes())
		}
		reps = append(reps, r)
		took := time.Since(repStart)
		minReps := 1
		if traced {
			minReps = 2
		}
		if len(reps) >= minReps && time.Since(start)+took > budget {
			break
		}
	}

	res := result{Metrics: map[string]metric{}}
	for ri, r := range reps {
		for _, c := range r.cells {
			res.Attempted += c.Ops
			res.Failed += c.Failed
			if ri == 0 {
				o := outputsOf(c)
				fmt.Fprintf(out, "cell %-24s ops=%d failed=%d events=%d delivered=%d dropped=%d retransmits=%d stale_acks=%d digest=%s\n",
					c.Name, c.Ops, c.Failed, o.Events, o.Delivered, o.Dropped, c.Retransmits, c.StaleAcks, o.Digest[:16])
			}
			for _, p := range c.Problems {
				fmt.Fprintf(out, "rep %d cell %s: %s\n", ri, c.Name, p)
			}
		}
	}
	if res.Attempted == 0 {
		res.Attempted, res.Failed = 1, 1
	}
	res.Correct = res.Failed == 0
	fmt.Fprintf(out, "ops=%d ops_failed=%d failed_ratio=%g reps=%d\n",
		res.Attempted, res.Failed, float64(res.Failed)/float64(res.Attempted), len(reps))

	var walls, setups, tracedWalls []float64
	for _, r := range reps {
		if r.traced {
			tracedWalls = append(tracedWalls, r.wall.Seconds())
			continue
		}
		walls = append(walls, r.wall.Seconds())
		setups = append(setups, r.setup.Seconds())
	}
	stealPct := steal.pct()
	// Read before the calibration's table and the extra set-ups below,
	// which are not part of a rep.
	rssMB := peakRSSMB()
	calibMS := calibrate()
	fmt.Fprintf(out, "rep walls_s=%s\nhost.calib_ms=%.3f host.steal_pct=%.2f\n", fmtList(walls), calibMS, stealPct)
	if !traced {
		res.Metrics["peak_rss_mb"] = metric{rssMB, "MB"}
		res.Metrics["wall_s"] = metric{median(walls), "s"}
		res.Metrics["setup_s"] = metric{median(moreSetups(w, seed, setups)), "s"}
		return res, nil
	}

	micro, err := runMicro(env{})
	if err != nil {
		return result{}, fmt.Errorf("layer microbenchmarks: %w", err)
	}
	names := make([]string, 0, len(micro))
	for n := range micro {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := micro[n]
		fmt.Fprintf(out, "micro %-22s %12.1f ns/op %8.2f allocs/op (%d ops)\n", n, m.nsPerOp, m.allocsPerOp, m.ops)
	}
	layers := map[string]int64{}
	var samples int64
	for _, p := range profiles {
		st, err := parseProfile(p)
		if err != nil {
			return result{}, err
		}
		samples += fold(st, layers)
	}
	layerMetrics(res.Metrics, reps, layers, samples, micro, median(walls), median(tracedWalls), calibMS, stealPct)
	for _, r := range reps {
		if r.traced {
			r.sp.summarize(out)
			break
		}
	}
	pkgs := make([]string, 0, len(layers))
	for p := range layers {
		pkgs = append(pkgs, p)
	}
	sort.Slice(pkgs, func(i, j int) bool { return layers[pkgs[i]] > layers[pkgs[j]] })
	for _, p := range pkgs {
		fmt.Fprintf(out, "cpu %-12s %6.2f%% (%d samples)\n", p, 100*float64(layers[p])/float64(samples), layers[p])
	}
	return res, nil
}

// shareLayers are the packages whose CPU share is a per-layer metric;
// every other sample lands in rest.cpu_share, so the shares sum to 1.
var shareLayers = []string{"sim", "fabric", "transport", "multipath", "collective", "jobgraph",
	"churn", "pagetable", "pvdma", "iommu"}

// layerMetrics fills the per-layer metrics of a traced run.
func layerMetrics(m map[string]metric, reps []rep, layers map[string]int64, samples int64,
	micro map[string]microResult, wall, tracedWall, calibMS, stealPct float64) {
	var cnt layerCounts
	var events, delivered, dropped uint64
	var ops int
	for _, c := range reps[0].cells {
		events += c.Events
		delivered += c.Delivered
		dropped += c.Dropped
		ops += c.Ops
		cnt.ECNMarks += c.ECNMarks
		cnt.Retransmits += c.Retransmits
		cnt.StaleAcks += c.StaleAcks
		cnt.Reduces += c.Reduces
		cnt.JobOps += c.JobOps
		cnt.Lifecycles += c.Lifecycles
		cnt.Evictions += c.Evictions
	}
	count := func(name string, v uint64) { m[name] = metric{float64(v), "count"} }
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}

	count("sim.events", events)
	m["sim.ns_per_event"] = metric{ratio(wall*1e9, float64(events)), "ns"}
	m["sim.timer_ns"] = metric{micro["sim.timer"].nsPerOp, "ns"}

	count("fabric.packets", delivered)
	count("fabric.drops", dropped)
	count("fabric.ecn_marks", cnt.ECNMarks)
	m["fabric.hop_ns_small"] = metric{micro["fabric.hop_small"].nsPerOp, "ns"}
	m["fabric.hop_ns_fleet"] = metric{micro["fabric.hop_fleet"].nsPerOp, "ns"}
	var heap []float64
	var hosts int
	for _, r := range reps {
		if r.traced {
			heap = append(heap, float64(r.setupHeap))
			hosts = r.sp.hosts
		}
	}
	m["fabric.bytes_per_host"] = metric{ratio(median(heap), float64(hosts)), "B"}

	count("transport.retransmits", cnt.Retransmits)
	m["transport.retransmits_per_drop"] = metric{ratio(float64(cnt.Retransmits), float64(dropped)), "ratio"}
	count("transport.stale_acks", cnt.StaleAcks)
	m["transport.msg_us_per_mib"] = metric{micro["transport.msg_clean"].nsPerOp / 1e3, "us"}
	m["transport.lossy_us_per_mib"] = metric{micro["transport.msg_lossy"].nsPerOp / 1e3, "us"}

	m["multipath.pick_ns"] = metric{micro["multipath.pick"].nsPerOp, "ns"}

	count("collective.reduces", cnt.Reduces)
	m["collective.allreduce_us"] = metric{micro["collective.allreduce"].nsPerOp / 1e3, "us"}
	m["collective.allreduce_allocs"] = metric{micro["collective.allreduce"].allocsPerOp, "count"}
	count("jobgraph.ops", cnt.JobOps)
	var build []float64
	for _, r := range reps {
		if r.traced {
			build = append(build, r.sp.total("jobgraph.build").Seconds()*1e3)
		}
	}
	m["jobgraph.build_ms"] = metric{median(build), "ms"}

	count("churn.lifecycles", cnt.Lifecycles)
	count("churn.evictions", cnt.Evictions)
	m["pagetable.invalidate_ns_per_page"] = metric{micro["pagetable.invalidate"].nsPerOp, "ns"}
	m["pvdma.map_us_per_gib"] = metric{micro["pvdma.map_256mib"].nsPerOp / 1e3 * 4, "us"}
	m["rund.start_ms"] = metric{micro["rund.start"].nsPerOp / 1e6, "ms"}

	var allocMB, gcCycles []float64
	var mallocs uint64
	var untraced int
	for _, r := range reps {
		if !r.traced {
			allocMB = append(allocMB, float64(r.allocBytes)/(1<<20))
			gcCycles = append(gcCycles, float64(r.gcCycles))
			mallocs += r.mallocs
			untraced++
		}
	}
	m["go.alloc_mb"] = metric{median(allocMB), "MB"}
	m["go.allocs_per_op"] = metric{ratio(float64(mallocs)/float64(untraced), float64(ops)), "count"}
	m["go.gc_cycles"] = metric{median(gcCycles), "count"}

	rest := float64(samples)
	for _, l := range shareLayers {
		m[l+".cpu_share"] = metric{ratio(float64(layers[l]), float64(samples)), "ratio"}
		rest -= float64(layers[l])
	}
	m["go.gc_cpu_share"] = metric{ratio(float64(layers[gcLayer]), float64(samples)), "ratio"}
	rest -= float64(layers[gcLayer])
	m["rest.cpu_share"] = metric{ratio(rest, float64(samples)), "ratio"}

	m["host.calib_ms"] = metric{calibMS, "ms"}
	m["host.steal_pct"] = metric{stealPct, "%"}
	m["trace.overhead_pct"] = metric{100 * ratio(tracedWall-wall, wall), "%"}
}

// moreSetups tops the reps' set-up times up with set-up-only passes.
// Set-up takes microseconds to milliseconds against seconds for a run,
// so the reps alone give too few samples for a steady median; it sets
// up again, without running, until there are enough samples and enough
// time in them. A failing set-up was already counted by the reps.
func moreSetups(w workload, seed uint64, setups []float64) []float64 {
	var spent time.Duration
	for len(setups) < maxSetupSamples && (len(setups) < minSetupSamples || spent < setupBudget) {
		t0 := time.Now()
		if _, err := w.build(env{}, seed, nil); err != nil {
			break
		}
		d := time.Since(t0)
		spent += d
		setups = append(setups, d.Seconds())
	}
	return setups
}

func fmtList(xs []float64) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = fmt.Sprintf("%.4g", x)
	}
	return strings.Join(parts, ",")
}
