package main

import (
	"fmt"
	"time"

	"repro/internal/churn"
	"repro/internal/collective"
	"repro/internal/fabric"
	"repro/internal/jobgraph"
	"repro/internal/multipath"
	"repro/internal/rnic"
	"repro/internal/rund"
	"repro/internal/sim"
	"repro/internal/transport"
	wl "repro/internal/workload"
)

// env decides how the workloads build engines. The zero value uses the
// package defaults (sim.NewEngine, and sim.DefaultSchedulerMode where
// an API needs a mode), which is what the benchmark runs; the tests set
// mode to compare the heap and wheel schedulers.
type env struct {
	mode *sim.SchedulerMode
}

func (e env) engine(seed uint64) *sim.Engine {
	if e.mode == nil {
		return sim.NewEngine(seed)
	}
	return sim.NewEngineMode(seed, *e.mode)
}

// sharded builds the one-shard engine churn.Run requires.
func (e env) sharded(seed uint64) *sim.ShardedEngine {
	mode := sim.DefaultSchedulerMode()
	if e.mode != nil {
		mode = *e.mode
	}
	return sim.NewShardedEngine(seed, mode, 1)
}

// cell is one independently checked unit of a workload run: the ops it
// attempted, the simulated values they produced and the layer counters
// read after it ran.
type cell struct {
	Name   string
	Ops    int
	Failed int
	// Problems says why ops failed; empty when none did.
	Problems []string
	// Values is every simulated result the cell produced, in a fixed
	// order; its digest is what the output check compares.
	Values []any
	// Events is the number of events the cell's engines fired;
	// Delivered and Dropped are the fabric packet totals.
	Events             uint64
	Delivered, Dropped uint64
	layerCounts
}

// layerCounts are the per-layer work counts a cell reports in the
// traced run. Counters the benchmark cannot reach from outside an
// entry point stay zero (see NOTES.md).
type layerCounts struct {
	ECNMarks    uint64
	Retransmits uint64
	StaleAcks   uint64
	Reduces     uint64
	JobOps      uint64
	Lifecycles  uint64
	Evictions   uint64
}

// fail marks n more of the cell's ops failed (at least one, at most
// all) and records why.
func (c *cell) fail(n int, why string) {
	if n < 1 {
		n = 1
	}
	c.Failed += n
	if c.Failed > c.Ops {
		c.Failed = c.Ops
	}
	if c.Ops == 0 {
		c.Ops, c.Failed = 1, 1
	}
	c.Problems = append(c.Problems, why)
}

// plan is one cell whose inputs are built and whose run is pending.
type plan struct {
	name string
	ops  int // ops the cell will attempt; churn fleets learn theirs when they run
	run  func(sp *spans, op int) cell
}

// workload is one benchmark input: setup builds every cell's fabric,
// endpoints, graphs or fleet from the seed, and the returned plans are
// then run in order on the calling goroutine. NOTES.md says why each
// workload is here.
type workload struct {
	name  string
	setup func(e env, seed uint64, sp *spans) ([]plan, error)
}

var workloads = []workload{
	{"fleet-permutation", setupFleet},
	{"contended-replay", setupContended},
	{"lossy-allreduce", setupLossy},
	{"serverless-churn", setupChurn},
}

func lookupWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// netConfig is the production link parameters every network workload
// uses: 400 Gbps hosts and fabric links, 2 µs hops, 16 MiB port queues.
func netConfig(segs, hostsPerSeg, aggs int) fabric.Config {
	return fabric.Config{
		Segments: segs, HostsPerSegment: hostsPerSeg, Aggs: aggs,
		HostLinkBW: 50e9, FabricLinkBW: 50e9,
		LinkDelay: 2 * time.Microsecond, QueueLimit: 16 << 20, ECNThreshold: 512 << 10,
	}
}

// network is one built fabric and its endpoints.
type network struct {
	eng *sim.Engine
	f   *fabric.Fabric
	eps []*transport.Endpoint
}

func buildNetwork(e env, seed uint64, cfg fabric.Config, tcfg transport.Config, sp *spans, op int) network {
	id := sp.begin("fabric.New", op)
	eng := e.engine(seed)
	f := fabric.New(eng, cfg)
	sp.end(id)
	id = sp.begin("transport.NewEndpoint", op)
	eps := make([]*transport.Endpoint, f.NumHosts())
	for h := range eps {
		eps[h] = transport.NewEndpoint(f, fabric.HostID(h), tcfg)
	}
	sp.end(id)
	sp.built(len(eps))
	return network{eng, f, eps}
}

// ecnMarks sums ECN marks over every link of the fabric.
func ecnMarks(f *fabric.Fabric) uint64 {
	cfg := f.Config()
	var refs []fabric.LinkRef
	for h := 0; h < f.NumHosts(); h++ {
		refs = append(refs, fabric.HostLink(fabric.HostID(h), fabric.DirUp), fabric.HostLink(fabric.HostID(h), fabric.DirDown))
	}
	for s := 0; s < cfg.Segments; s++ {
		for a := 0; a < cfg.Aggs; a++ {
			refs = append(refs, fabric.Uplink(s, a), fabric.Downlink(s, a))
		}
	}
	if f.Pods() > 1 {
		for p := 0; p < f.Pods(); p++ {
			for a := 0; a < cfg.Aggs; a++ {
				for c := 0; c < cfg.CoreSwitches; c++ {
					refs = append(refs, fabric.CoreLink(p, a, c, fabric.DirUp), fabric.CoreLink(p, a, c, fabric.DirDown))
				}
			}
		}
	}
	var n uint64
	for _, r := range refs {
		if st, err := f.StatsOf(r); err == nil {
			n += st.ECNMarks
		}
	}
	return n
}

// fleetBytesPerFlow is what every fleet-permutation flow sends.
const fleetBytesPerFlow = 1 << 20

// setupFleet builds the 2048-host, four-pod fabric: 16 segments of 128
// hosts, 60 aggregation and 16 core switches.
func setupFleet(e env, seed uint64, sp *spans) ([]plan, error) {
	cfg := netConfig(16, 128, 60)
	cfg.SegmentsPerPod, cfg.CoreSwitches = 4, 16
	n := buildNetwork(e, seed, cfg, transport.Config{}, sp, 0)
	hosts := n.f.NumHosts()
	return []plan{{name: "obs/128", ops: hosts, run: func(sp *spans, op int) cell {
		c := cell{Name: "obs/128", Ops: hosts}
		id := sp.begin("collective.RunPermutation", op)
		res, err := collective.RunPermutation(n.eng, n.f, n.eps, collective.PermutationConfig{
			Alg: multipath.OBS, Paths: 128, BytesPerFlow: fleetBytesPerFlow,
			SamplePeriod: sim.Duration(50 * time.Microsecond), Seed: seed + 1,
		})
		sp.end(id)
		c.Events, c.Delivered, c.Dropped = n.eng.Fired(), n.f.Delivered(), n.f.Dropped()
		if err != nil {
			c.fail(hosts, err.Error())
			return c
		}
		if p := n.eng.Pending(); p != 0 {
			c.fail(hosts, fmt.Sprintf("%d events still pending", p))
		}
		// The permutation gives every host exactly one incoming flow, and
		// every data packet it receives is acked on the same host's up
		// link, so its down link must have carried the flow's bytes plus
		// the acks for its own outgoing flow.
		mtu := transport.DefaultConfig().MTU
		acks := (fleetBytesPerFlow + mtu - 1) / mtu * transport.DefaultConfig().AckSize
		short := 0
		down := make([]uint64, hosts)
		for h := 0; h < hosts; h++ {
			st, err := n.f.StatsOf(fabric.HostLink(fabric.HostID(h), fabric.DirDown))
			if err != nil || st.BytesTx < fleetBytesPerFlow+acks {
				short++
			}
			down[h] = st.BytesTx
		}
		if short > 0 {
			c.fail(short, fmt.Sprintf("%d flows short of %d bytes", short, fleetBytesPerFlow))
		}
		if want := float64(hosts*fleetBytesPerFlow) / res.Elapsed.Seconds(); res.Elapsed <= 0 || res.Goodput != want {
			c.fail(hosts, fmt.Sprintf("goodput %v over %v does not carry every flow's bytes", res.Goodput, res.Elapsed))
		}
		c.ECNMarks = ecnMarks(n.f)
		c.Values = []any{res.AvgQueue, res.MaxQueue, res.Goodput, res.Elapsed, down, c.ECNMarks}
		return c
	}}}, nil
}

// contendedJobs is the contended-cluster schedule: two Table-1 training
// jobs, an inference burst and a storage stream on overlapping host
// sets that straddle both segments.
func contendedJobs(seed uint64, placement wl.Placement, alg multipath.Algorithm, paths int) ([]jobgraph.JobSpec, error) {
	plat := wl.DefaultPlatform()
	var graphs []*jobgraph.Graph
	for _, m := range wl.Table1()[:2] {
		g, err := jobgraph.FromModel(jobgraph.GenConfig{
			Model: m, Platform: plat, Ranks: 8, Steps: 2,
			CollectiveBytes: 12 << 20, ComputeTime: 500 * time.Microsecond,
		})
		if err != nil {
			return nil, err
		}
		graphs = append(graphs, g)
	}
	infer, err := jobgraph.InferenceBurst("inference-burst", 6, 12, 1<<20, 300*time.Microsecond)
	if err != nil {
		return nil, err
	}
	store, err := jobgraph.StorageStream("storage-stream", 6, 5, 12<<20)
	if err != nil {
		return nil, err
	}
	t1 := wl.Table1()
	specs := []struct {
		name  string
		kind  jobgraph.JobKind
		g     *jobgraph.Graph
		hosts []int
	}{
		{"train-" + t1[0].Name, jobgraph.Training, graphs[0], []int{0, 1, 2, 3, 16, 17, 18, 19}},
		{"train-" + t1[1].Name, jobgraph.Training, graphs[1], []int{4, 5, 6, 7, 20, 21, 22, 23}},
		{"inference-burst", jobgraph.Inference, infer, []int{2, 3, 4, 5, 18, 19, 20, 21}},
		{"storage-stream", jobgraph.Storage, store, []int{0, 1, 6, 7, 16, 17, 22, 23}},
	}
	jobs := make([]jobgraph.JobSpec, len(specs))
	for i, s := range specs {
		jobs[i] = jobgraph.JobSpec{
			Name: s.name, Kind: s.kind, Graph: s.g, Alg: alg, Paths: paths,
			Placement: placement, PlacementSeed: seed + uint64(i), Hosts: s.hosts,
		}
	}
	return jobs, nil
}

// setupContended builds, for each placement x stack cell, the job
// graphs and five 32-host fleets: one per job alone, one shared.
func setupContended(e env, seed uint64, sp *spans) ([]plan, error) {
	var plans []plan
	op := 0
	for _, placement := range []wl.Placement{wl.Reranked, wl.RandomRanking} {
		for _, st := range []struct {
			name  string
			alg   multipath.Algorithm
			paths int
		}{{"single-path", multipath.SinglePath, 128}, {"obs/128", multipath.OBS, 128}} {
			name := placement.String() + "/" + st.name
			id := sp.begin("jobgraph.build", op)
			jobs, err := contendedJobs(seed, placement, st.alg, st.paths)
			sp.end(id)
			if err != nil {
				return nil, fmt.Errorf("%s: %w", name, err)
			}
			fleets := make([]network, len(jobs)+1)
			for i := range fleets {
				fleets[i] = buildNetwork(e, seed, netConfig(2, 16, 60), transport.Config{}, sp, op)
			}
			plans = append(plans, plan{name: name, ops: 2 * len(jobs), run: func(sp *spans, op int) cell {
				return runContended(name, jobs, fleets, sp, op)
			}})
			op++
		}
	}
	return plans, nil
}

// runContended runs each job alone on its own fleet, then all jobs
// together on the last one. An op is one job run.
func runContended(name string, jobs []jobgraph.JobSpec, fleets []network, sp *spans, op int) cell {
	c := cell{Name: name, Ops: 2 * len(jobs)}
	record := func(n network, specs []jobgraph.JobSpec) {
		id := sp.begin("jobgraph.RunJobs", op)
		res, err := jobgraph.RunJobs(n.eng, n.eps, specs)
		sp.end(id)
		c.Events += n.eng.Fired()
		c.Delivered += n.f.Delivered()
		c.Dropped += n.f.Dropped()
		c.ECNMarks += ecnMarks(n.f)
		if err != nil {
			c.fail(len(specs), err.Error())
			return
		}
		for i, r := range res {
			c.JobOps += uint64(len(specs[i].Graph.Ops))
			for _, o := range specs[i].Graph.Ops {
				if o.Kind == jobgraph.OpCollective {
					c.Reduces++
				}
			}
			if r.Result.Makespan <= 0 || len(r.Result.OpEnd) != len(specs[i].Graph.Ops) {
				c.fail(1, fmt.Sprintf("job %s did not complete", r.Name))
			}
			c.Values = append(c.Values, r.Name, r.Result.Makespan, r.Result.End, r.Result.WireBytes, r.Result.RankEnd, r.Result.OpEnd)
		}
	}
	for i, spec := range jobs {
		record(fleets[i], []jobgraph.JobSpec{spec})
	}
	shared := fleets[len(jobs)]
	record(shared, jobs)
	var maxQ uint64
	for seg := 0; seg < 2; seg++ {
		for _, st := range shared.f.UplinkStats(seg) {
			if st.MaxQueue > maxQ {
				maxQ = st.MaxQueue
			}
		}
	}
	c.Values = append(c.Values, maxQ, c.ECNMarks)
	return c
}

// lossyRounds and lossyReduceBytes size the Figure 11 AllReduce run.
const (
	lossyRounds      = 3
	lossyReduceBytes = 48 << 20
)

// setupLossy builds the Figure 11 cells: a 24-member ring interleaved
// over 48 hosts with 16 KiB packets, and one ToR uplink dropping 1 % or
// 3 % of packets, under single-path and OBS/128.
func setupLossy(e env, seed uint64, sp *spans) ([]plan, error) {
	var plans []plan
	op := 0
	for _, st := range []struct {
		name  string
		alg   multipath.Algorithm
		paths int
	}{{"single-path/1", multipath.SinglePath, 1}, {"obs/128", multipath.OBS, 128}} {
		for _, loss := range []float64{0.01, 0.03} {
			name := fmt.Sprintf("%s loss=%g", st.name, loss)
			n := buildNetwork(e, seed, netConfig(2, 24, 60),
				transport.Config{MTU: 16 << 10, InitialWindow: 1 << 20}, sp, op)
			if err := n.f.SetFault(fabric.Uplink(0, 0), fabric.Fault{DropProb: loss}); err != nil {
				return nil, fmt.Errorf("%s: %w", name, err)
			}
			var members []*transport.Endpoint
			for i := 0; i < 12; i++ {
				members = append(members, n.eps[i], n.eps[24+i])
			}
			id := sp.begin("collective.NewRing", op)
			ring, err := collective.NewRing(members, 100, st.alg, st.paths)
			sp.end(id)
			if err != nil {
				return nil, fmt.Errorf("%s: %w", name, err)
			}
			plans = append(plans, plan{name: name, ops: lossyRounds, run: func(sp *spans, op int) cell {
				return runLossy(name, n, ring, sp, op)
			}})
			op++
		}
	}
	return plans, nil
}

// runLossy runs the ring's back-to-back reduces; an op is one round.
func runLossy(name string, n network, ring *collective.Ring, sp *spans, op int) cell {
	c := cell{Name: name, Ops: lossyRounds}
	var results []collective.Result
	var loop func(collective.Result)
	loop = func(r collective.Result) {
		id := sp.begin("collective.Reduce.done", op)
		results = append(results, r)
		if len(results) < lossyRounds {
			ring.Reduce(n.eng, lossyReduceBytes, loop)
		} else {
			n.eng.Halt()
		}
		sp.end(id)
	}
	id := sp.begin("collective.Reduce", op)
	ring.Reduce(n.eng, lossyReduceBytes, loop)
	// A virtual-time horizon bounds a recovery bug that would otherwise
	// retransmit forever.
	n.eng.Run(sim.Time(10 * time.Second))
	sp.end(id)
	c.Events, c.Delivered, c.Dropped = n.eng.Fired(), n.f.Delivered(), n.f.Dropped()
	c.Reduces = uint64(len(results))
	if len(results) < lossyRounds {
		c.fail(lossyRounds-len(results), fmt.Sprintf("%d/%d rounds completed", len(results), lossyRounds))
	}
	for _, r := range results {
		if r.End <= r.Start || r.BusBW <= 0 {
			c.fail(1, fmt.Sprintf("round %v-%v has no bandwidth", r.Start, r.End))
		}
		c.Values = append(c.Values, r.Start, r.End, r.VolumePerFlow, r.BusBW)
	}
	for _, conn := range ring.Conns() {
		c.Retransmits += conn.Retransmits
		c.StaleAcks += conn.StaleAcks
		c.Values = append(c.Values, conn.BytesAcked, conn.Retransmits, conn.StaleAcks, conn.ECNAcks)
	}
	c.ECNMarks = ecnMarks(n.f)
	c.Values = append(c.Values, c.Retransmits, c.StaleAcks, c.ECNMarks)
	return c
}

// churnCalibrationBytes is the paper's 1.6 TB (decimal) Figure 6 guest.
const churnCalibrationBytes = 1_600_000_000_000

// churnFleets is the fig6-fleet sweep: full pin over an exclusive VF
// inventory, PVDMA over a shared IP pool, PVDMA with MicroVM recycling,
// and the 1.6 TB full-pin calibration fleet.
func churnFleets() []struct {
	name string
	cfg  churn.Config
} {
	pinAll := churn.DefaultConfig()
	pinAll.Hosts = 8
	pinAll.Window = 30 * time.Second
	pinAll.Mode = rund.PinFull
	pinAll.Sizes = []uint64{4 << 30, 8 << 30}
	pinAll.MeanLifetime = 10 * time.Second
	pinAll.Pool = rnic.DevPoolConfig{Mode: rnic.DeviceExclusive, Capacity: 24, Devices: 24, Queue: true}

	recycle := churn.DefaultConfig()
	recycle.Hosts = 8
	recycle.Window = 30 * time.Second
	recycle.Recycle = true

	calib := churn.DefaultConfig()
	calib.Hosts = 1
	calib.Window = 10 * time.Second
	calib.MeanInterarrival = 500 * time.Millisecond
	calib.Sizes = []uint64{churnCalibrationBytes}
	calib.Mode = rund.PinFull
	calib.MeanLifetime = 2 * time.Second
	calib.HostMemoryBytes = 64 << 40
	calib.Pool = rnic.DevPoolConfig{Mode: rnic.DeviceShared, Capacity: 64, Devices: 4, Queue: true}

	return []struct {
		name string
		cfg  churn.Config
	}{
		{"pin-all/excl-vf", pinAll},
		{"pvdma/ip-pool", churn.DefaultConfig()},
		{"pvdma/recycle", recycle},
		{"calib-1.6TB", calib},
	}
}

// setupChurn validates each fleet's configuration and builds its
// engine; churn.Run builds the hosts itself, inside the timed phase.
func setupChurn(e env, seed uint64, sp *spans) ([]plan, error) {
	var plans []plan
	for op, fl := range churnFleets() {
		fl := fl
		id := sp.begin("churn.Config.Validate", op)
		err := fl.cfg.Validate()
		se := e.sharded(seed)
		sp.end(id)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", fl.name, err)
		}
		plans = append(plans, plan{name: fl.name, ops: 1, run: func(sp *spans, op int) cell {
			c := cell{Name: fl.name, Ops: 1}
			id := sp.begin("churn.Run", op)
			rep, err := churn.Run(se, fl.cfg)
			sp.end(id)
			c.Events = se.Fired()
			if err != nil {
				c.fail(1, err.Error())
				return c
			}
			// An op is one container lifecycle.
			c.Ops = rep.Arrivals
			c.Lifecycles, c.Evictions = uint64(rep.Arrivals), rep.Evictions
			if rep.Teardowns != rep.ColdStarts {
				c.fail(rep.ColdStarts-rep.Teardowns, fmt.Sprintf("%d cold starts but %d teardowns", rep.ColdStarts, rep.Teardowns))
			}
			if resolved := rep.ColdStarts + rep.PoolFailures + rep.MemFailures; resolved != rep.Arrivals {
				c.fail(rep.Arrivals-resolved, fmt.Sprintf("%d arrivals but %d resolved", rep.Arrivals, resolved))
			}
			c.Values = []any{rep}
			return c
		}})
	}
	return plans, nil
}
