package main

import (
	"fmt"
	"runtime"
	"time"

	"repro/internal/addr"
	"repro/internal/collective"
	"repro/internal/fabric"
	"repro/internal/iommu"
	"repro/internal/mem"
	"repro/internal/multipath"
	"repro/internal/pagetable"
	"repro/internal/pcie"
	"repro/internal/pvdma"
	"repro/internal/rund"
	"repro/internal/sim"
	"repro/internal/transport"
)

// microResult is one layer microbenchmark: host time and heap
// allocations per op, and the op count they were averaged over.
type microResult struct {
	name        string
	nsPerOp     float64
	allocsPerOp float64
	ops         int
}

// measure runs op batches times and averages over batches*perBatch
// ops. prep, when set, runs untimed before every batch. The malloc
// counter is read around each batch alone, so prep's allocations do not
// count.
func measure(name string, batches, perBatch int, prep, op func()) microResult {
	var ms runtime.MemStats
	var elapsed time.Duration
	var mallocs uint64
	for i := 0; i < batches; i++ {
		if prep != nil {
			prep()
		}
		runtime.ReadMemStats(&ms)
		before := ms.Mallocs
		start := time.Now()
		op()
		elapsed += time.Since(start)
		runtime.ReadMemStats(&ms)
		mallocs += ms.Mallocs - before
	}
	n := batches * perBatch
	return microResult{name: name, nsPerOp: float64(elapsed.Nanoseconds()) / float64(n),
		allocsPerOp: float64(mallocs) / float64(n), ops: n}
}

// pickSink keeps the selector benchmark's result live.
var pickSink int

// runMicro runs every layer microbenchmark through public APIs only.
// Sizes keep the whole set to a few seconds; each warms its free lists
// and lazy tables before measuring.
func runMicro(e env) (map[string]microResult, error) {
	out := map[string]microResult{}
	add := func(r microResult) { out[r.name] = r }

	// sim: the transport's timer pattern. 128 armed 250 µs timeouts; each
	// op arms a 1 µs "ack" that cancels one, steps it, and re-arms.
	{
		eng := e.engine(1)
		const window = 128
		ring := make([]*sim.Event, window)
		nop := func(any) {}
		cancel := func(a any) { ring[a.(int)].Cancel() }
		for i := range ring {
			ring[i] = eng.AfterArg(250*time.Microsecond, nop, nil)
		}
		slot := 0
		cycle := func() {
			for i := 0; i < 20000; i++ {
				slot = (slot + 1) % window
				eng.AfterArg(time.Microsecond, cancel, slot)
				eng.Step()
				ring[slot] = eng.AfterArg(250*time.Microsecond, nop, nil)
			}
		}
		cycle()
		add(measure("sim.timer", 10, 20000, nil, cycle))
	}

	// fabric: Send→deliver of single packets with no transport, on a
	// 16-host fabric and on the 2048-host four-pod fabric. Source and
	// destination walk the fleet so the large fabric's links do not
	// stay in cache. Reported per hop (per fabric event).
	hop := func(name string, cfg fabric.Config) error {
		eng := e.engine(1)
		f := fabric.New(eng, cfg)
		hosts := f.NumHosts()
		for h := 0; h < hosts; h++ {
			f.Handle(fabric.HostID(h), func(*fabric.Packet) {})
		}
		var sendErr error
		i := 0
		batch := func() {
			for k := 0; k < 5000; k++ {
				src := (i * 37) % hosts
				p := f.AllocPacket()
				p.Src, p.Dst, p.Size, p.PathID = fabric.HostID(src), fabric.HostID((src+hosts/2)%hosts), 4096, i%128
				if err := f.Send(p); err != nil && sendErr == nil {
					sendErr = err
				}
				eng.RunAll()
				i++
			}
		}
		batch()
		before := eng.Fired()
		r := measure(name, 10, 5000, nil, batch)
		hops := float64(eng.Fired()-before) / float64(r.ops)
		r.nsPerOp /= hops
		r.allocsPerOp /= hops
		add(r)
		return sendErr
	}
	if err := hop("fabric.hop_small", netConfig(2, 8, 60)); err != nil {
		return nil, err
	}
	fleet := netConfig(16, 128, 60)
	fleet.SegmentsPerPod, fleet.CoreSwitches = 4, 16
	if err := hop("fabric.hop_fleet", fleet); err != nil {
		return nil, err
	}

	// transport: one 1 MiB message over OBS/64 between two segments,
	// on clean links and with 2 % loss on every ToR uplink of the
	// sender's segment.
	msg := func(name string, loss float64) error {
		eng := e.engine(1)
		cfg := netConfig(2, 2, 8)
		f := fabric.New(eng, cfg)
		for a := 0; a < cfg.Aggs && loss > 0; a++ {
			if err := f.SetFault(fabric.Uplink(0, a), fabric.Fault{DropProb: loss}); err != nil {
				return err
			}
		}
		src := transport.NewEndpoint(f, 0, transport.Config{})
		dst := transport.NewEndpoint(f, 2, transport.Config{})
		c, err := transport.Connect(src, dst, 1, multipath.OBS, 64)
		if err != nil {
			return err
		}
		var incomplete error
		send := func() {
			done := false
			c.Send(1<<20, func(sim.Time) { done = true })
			eng.RunAll()
			if !done && incomplete == nil {
				incomplete = fmt.Errorf("%s: message incomplete", name)
			}
		}
		send()
		add(measure(name, 20, 1, nil, send))
		return incomplete
	}
	if err := msg("transport.msg_clean", 0); err != nil {
		return nil, err
	}
	if err := msg("transport.msg_lossy", 0.02); err != nil {
		return nil, err
	}

	// multipath: OBS path picks over 128 paths.
	{
		s := multipath.New(multipath.OBS, 128, sim.NewRNG(1))
		picks := func() {
			for i := 0; i < 1_000_000; i++ {
				pickSink += s.NextPath()
			}
		}
		add(measure("multipath.pick", 5, 1_000_000, nil, picks))
	}

	// collective: a 1 MiB ring AllReduce over 8 hosts, OBS/32.
	{
		n := buildNetwork(e, 1, netConfig(2, 4, 16), transport.Config{}, nil, 0)
		ring, err := collective.NewRing(n.eps, 1, multipath.OBS, 32)
		if err != nil {
			return nil, err
		}
		var incomplete error
		reduce := func() {
			done := false
			ring.Reduce(n.eng, 1<<20, func(collective.Result) { done = true })
			n.eng.RunAll()
			if !done && incomplete == nil {
				incomplete = fmt.Errorf("allreduce incomplete")
			}
		}
		// The op, packet and event free lists grow over the first few
		// reduces; measure the steady state.
		for i := 0; i < 6; i++ {
			reduce()
		}
		add(measure("collective.allreduce", 8, 1, nil, reduce))
		if incomplete != nil {
			return nil, incomplete
		}
	}

	// pagetable: invalidating a 16 MiB range from a full 8192-entry 4 KiB
	// TLB, the walk iommu.Unmap does per unmapped range. Per page.
	{
		tlb := pagetable.NewTLB(8192, addr.PageSize4K)
		fill := func() {
			for p := uint64(0); p < 8192; p++ {
				tlb.Insert(p*addr.PageSize4K, 1<<40+p*addr.PageSize4K)
			}
		}
		const pages = (16 << 20) / addr.PageSize4K
		add(measure("pagetable.invalidate", 20, pages, fill, func() { tlb.InvalidateRange(0, 16<<20) }))
	}

	// pvdma and rund: one host with a PVDMA container.
	newHyp := func() (*rund.Hypervisor, error) {
		u, err := iommu.New(iommu.Config{Mode: iommu.ModeNoPT, ATSEnabled: true})
		if err != nil {
			return nil, err
		}
		m := mem.New(mem.Config{TotalBytes: 256 << 30})
		return rund.NewHypervisor(pcie.NewComplex(pcie.Config{}, u, m)), nil
	}
	{
		hyp, err := newHyp()
		if err != nil {
			return nil, err
		}
		ct, err := hyp.CreateContainer(rund.DefaultConfig("map", 8<<30))
		if err != nil {
			return nil, err
		}
		if _, err := ct.Start(rund.PinOnDemand); err != nil {
			return nil, err
		}
		mgr := pvdma.New(ct, pvdma.Config{})
		const size = 256 << 20
		_, gpa, err := ct.AllocGuestBuffer(size)
		if err != nil {
			return nil, err
		}
		var mapErr error
		mapped := false
		release := func() {
			if mapped {
				if err := mgr.ReleaseDMA(addr.GPA(gpa.Start), size); err != nil && mapErr == nil {
					mapErr = err
				}
				mapped = false
			}
		}
		mapOnce := func() {
			if _, err := mgr.MapDMA(addr.GPA(gpa.Start), size); err != nil && mapErr == nil {
				mapErr = err
			}
			mapped = true
		}
		r := measure("pvdma.map_256mib", 8, 1, release, mapOnce)
		release()
		add(r)
		if mapErr != nil {
			return nil, mapErr
		}
	}
	// rund: cold starts of 1 GiB PVDMA MicroVMs (create and start);
	// the previous batch is stopped untimed.
	{
		hyp, err := newHyp()
		if err != nil {
			return nil, err
		}
		const perBatch = 32
		var cts []*rund.Container
		var startErr error
		k := 0
		note := func(err error) {
			if err != nil && startErr == nil {
				startErr = err
			}
		}
		stopAll := func() {
			for _, ct := range cts {
				note(ct.Stop())
			}
			cts = cts[:0]
		}
		start := func() {
			for i := 0; i < perBatch; i++ {
				k++
				ct, err := hyp.CreateContainer(rund.DefaultConfig(fmt.Sprintf("start-%d", k), 1<<30))
				note(err)
				if err != nil {
					continue
				}
				cts = append(cts, ct)
				_, err = ct.Start(rund.PinOnDemand)
				note(err)
			}
		}
		add(measure("rund.start", 10, perBatch, stopAll, start))
		stopAll()
		if startErr != nil {
			return nil, startErr
		}
	}
	return out, nil
}
