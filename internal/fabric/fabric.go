// Package fabric is a discrete-event data-center network simulator: the
// substrate for every multi-path experiment in §7 and §8. It models the
// paper's HPN-style topology as hosts behind ToR switches connected
// through a layer of aggregation switches (60 in production), with
// store-and-forward links carrying FIFO queues, ECN marking, tail drop,
// per-port byte counters, and fault injection (random loss and full
// link failure).
//
// Substitution note (see DESIGN.md): the production network is
// dual-plane and rail-optimized with a core "escape" layer. The
// experiments reproduced here exercise the ToR-uplink choice — which
// aggregation switch each packet traverses — so the simulator collapses
// the planes into one Clos layer with a configurable aggregation count.
// Path identifiers map onto aggregation switches exactly as the paper's
// 128 paths cover its 60 aggregation switches.
package fabric

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/sim"
	"repro/internal/trace"
)

// ErrBadHost is returned by Send for a source or destination that is
// not attached to the fabric.
var ErrBadHost = errors.New("fabric: unknown host")

// HostID identifies a host NIC attached to the fabric.
type HostID int

// Packet is one unit on the wire. Size is in bytes; PathID selects the
// ToR uplink (aggregation switch) for cross-segment hops.
type Packet struct {
	Flow   uint64
	Src    HostID
	Dst    HostID
	PathID int
	Seq    uint64
	Size   uint64
	ECN    bool // set by congested queues along the way
	Ack    bool // acks are small control packets riding the same fabric
	AckSeq uint64
	AckECN bool // echoed congestion bit
	// Epoch counts (re)transmissions of this Seq; acks echo it in
	// AckEpoch so the sender can tell which transmission an ack is for
	// (Karn's algorithm: stale-epoch acks must not be RTT-sampled).
	Epoch    uint32
	AckEpoch uint32
	SentAt   sim.Time
	Payload  any // opaque transport state
	// Trace is the packet's lifecycle-span ID (zero when untraced).
	// The fabric steps the span at every queue, ECN mark and drop so an
	// exported trace shows the packet's full hop-by-hop journey.
	Trace trace.ID

	// The journey, filled in by Send: the route (inline, so routing
	// allocates nothing), its hop count n, and the index i of the next
	// hop. Each hop event carries the packet itself.
	path [maxRouteHops]*link
	n, i int

	nextFree *Packet // fabric free-list link
}

// Config describes the topology and link parameters.
type Config struct {
	// Segments is the number of network segments (ToR domains).
	Segments int
	// HostsPerSegment is the number of host NICs under each ToR.
	HostsPerSegment int
	// Aggs is the number of aggregation switches (60 in HPN7.0).
	Aggs int
	// HostLinkBW is host↔ToR bandwidth in bytes/sec.
	HostLinkBW float64
	// FabricLinkBW is ToR↔Agg bandwidth in bytes/sec.
	FabricLinkBW float64
	// LinkDelay is per-hop propagation delay.
	LinkDelay sim.Duration
	// QueueLimit is the per-port queue capacity in bytes (tail drop).
	QueueLimit uint64
	// ECNThreshold is the queue depth that sets the ECN bit.
	ECNThreshold uint64

	// SegmentsPerPod groups segments into pods; traffic between pods
	// traverses the core "escape" layer (0 or >= Segments means one
	// pod, no core hops). Problem ⑥'s hash imbalance lives here.
	SegmentsPerPod int
	// CoreSwitches is the size of the core layer (only used when the
	// topology has more than one pod).
	CoreSwitches int
	// CoreLinkBW is Agg↔Core bandwidth in bytes/sec (defaults to
	// FabricLinkBW).
	CoreLinkBW float64
	// RerouteDelay is how long the control plane (BGP) takes to steer
	// traffic off a failed uplink (§7.2: "over the long term, the
	// control plane detects the failure and reroutes traffic").
	RerouteDelay sim.Duration
	// AdaptiveRouting lets ToR switches pick the least-loaded uplink
	// for packets carrying a negative PathID (§7.1's AR category).
	AdaptiveRouting bool
}

// DefaultConfig sizes a two-segment slice of the production network:
// 2×200 Gbps hosts, 400 Gbps fabric links, 60 aggregation switches.
func DefaultConfig() Config {
	return Config{
		Segments:        2,
		HostsPerSegment: 16,
		Aggs:            60,
		HostLinkBW:      50e9, // 400 Gbps (2x200G bonded)
		FabricLinkBW:    50e9,
		LinkDelay:       2 * time.Microsecond,
		QueueLimit:      8 << 20,
		ECNThreshold:    400 << 10,
	}
}

// link is one unidirectional store-and-forward port. Each link is owned
// by exactly one shard: every arrival, claim and counter update happens
// on eng, which makes the whole struct shard-local state.
type link struct {
	name     string
	capacity float64
	delay    sim.Duration

	id    int
	shard int
	eng   *sim.Engine
	// rng drives this link's random drops. Per-link (forked from the
	// never-consumed engine root by link id) so the draw sequence is a
	// function of the link's own arrival order — identical at any shard
	// count — instead of the global interleaving of all lossy links.
	rng *sim.RNG

	// entry marks a cross-shard handoff target (Core→Agg links in
	// multi-pod topologies). Same-instant arrivals at an entry link are
	// buffered in pending and claimed at instant end in canonical packet
	// order, because their event order is a merge artifact: it depends
	// on how source shards interleave, which differs between shard
	// counts. Set whenever the topology has a core layer, at every shard
	// count, so 1-shard and N-shard runs agree bit-for-bit.
	entry      bool
	pending    []*Packet
	drainArmed bool

	qlimit uint64
	ecnAt  uint64

	// freeAt is when the serialiser drains everything queued so far;
	// queue depth in bytes is (freeAt-now)*capacity.
	freeAt sim.Time

	bytesTx  uint64
	drops    uint64
	ecnMarks uint64
	maxQueue uint64
	sumQueue float64 // time-weighted, for mean queue depth
	lastTx   sim.Time

	failed     bool
	dropProb   float64
	extraDelay sim.Duration // gray failure: propagation inflation
	bwFactor   float64      // gray failure: capacity cap in (0,1); 0 or 1 = full rate

	// serSize/serDur memoize size → serialisation time so the steady
	// state pays the arrive division once per (link, size) instead of
	// per hop — a link sees at most a handful of sizes (MTU, tail
	// fragment, ack). Entries are computed with the exact per-hop
	// expression, so memoized and direct paths are bit-identical; a
	// reciprocal-multiply precompute would not be, and a 1 ns rounding
	// flip in a serialisation time changes results. SetFault clears the
	// cache when the capacity cap changes.
	serSize [2]uint64
	serDur  [2]sim.Duration
}

// serTime is the serialisation time of size bytes on l at its current
// effective capacity, memoized per link.
func (l *link) serTime(size uint64) sim.Duration {
	// A zero-size hit on the zero-initialised cache returns 0, which is
	// exactly what the division yields, so no non-zero guard is needed.
	if size == l.serSize[0] {
		return l.serDur[0]
	}
	if size == l.serSize[1] {
		return l.serDur[1]
	}
	ser := sim.Duration(float64(size) / l.effCapacity() * 1e9)
	l.serSize[1], l.serDur[1] = l.serSize[0], l.serDur[0]
	l.serSize[0], l.serDur[0] = size, ser
	return ser
}

// invalidateSer drops the memoized serialisation times after a capacity
// change.
func (l *link) invalidateSer() {
	l.serSize = [2]uint64{}
	l.serDur = [2]sim.Duration{}
}

// effCapacity is the serialisation rate under any bandwidth cap.
func (l *link) effCapacity() float64 {
	if l.bwFactor > 0 && l.bwFactor < 1 {
		return l.capacity * l.bwFactor
	}
	return l.capacity
}

// effDelay is propagation delay under any gray inflation.
func (l *link) effDelay() sim.Duration { return l.delay + l.extraDelay }

// queueDepth returns the backlog in bytes at time now.
func (l *link) queueDepth(now sim.Time) uint64 {
	if l.freeAt <= now {
		return 0
	}
	return uint64(float64(l.freeAt-now) / 1e9 * l.effCapacity())
}

// pool holds one shard's free lists and delivery counters. The engine
// driving a shard is single-threaded, so plain linked lists suffice;
// per-shard pools keep the parallel-window mode race-free.
type pool struct {
	pktFree   *Packet
	pktFreeN  int
	delivered uint64
	dropped   uint64
}

// Fabric is one instantiated network, spread across one or more event
// engine shards. Partition rule: a pod is the atom; pod p lives on
// shard p·N/pods. Links toward the core (host→ToR, ToR→Agg, Agg→Core)
// belong to the source pod's shard, links toward hosts (Core→Agg,
// Agg→ToR, ToR→host) to the destination pod's, so the only cross-shard
// hop on any route is Agg→Core's departure into Core→Agg.
type Fabric struct {
	cfg  Config
	eng  *sim.Engine   // shard 0: the engine single-shard callers see
	engs []*sim.Engine // per-shard engines (len 1 when unsharded)
	se   *sim.ShardedEngine
	// segRNG[s] drives adaptive-routing picks for segment s's uplinks —
	// per-segment so the draw order is the segment's own send order,
	// which is shard-count-invariant.
	segRNG []*sim.RNG
	// shardOfPod maps each pod to the shard that owns it.
	shardOfPod []int
	nextLinkID int

	// torUp[s][a] is segment s's uplink to aggregation switch a;
	// torDown[s][a] the reverse direction.
	torUp   [][]*link
	torDown [][]*link
	// hostUp[h] / hostDown[h] connect host h to its ToR.
	hostUp   []*link
	hostDown []*link

	// Core layer (multi-pod topologies): aggUp[pod][agg][core] and
	// coreDown[pod][agg][core] are the Agg→Core and Core→Agg links for
	// traffic leaving/entering each pod.
	aggUp    [][][]*link
	coreDown [][][]*link
	pods     int
	segsPod  int
	cores    int

	// aggOverride[segment][agg] redirects a failed uplink after the
	// control plane converges (BGP reroute).
	aggOverride [][]int
	// rerouteEv holds the pending BGP-convergence timer per failed
	// uplink, so a repair inside RerouteDelay cancels it instead of
	// being silently overridden when the stale timer fires.
	rerouteEv map[[2]int]*sim.Event

	handlers []func(*Packet)

	// pools[shard] carries the shard's free lists and counters. Packets
	// a caller allocated directly still end their life here, so the
	// packet list is capped to keep externally-fed workloads from
	// hoarding memory.
	pools   []pool
	hopFn   func(any) // pre-bound packet stepper: no closure per hop
	drainFn func(any) // pre-bound entry-link drain for AtInstantEnd
}

// maxRouteHops is the longest route the topology produces (cross-pod:
// host, ToR up, Agg up, Core down, ToR down, host).
const maxRouteHops = 6

// pktFreeCap bounds the packet free list.
const pktFreeCap = 4096

// New builds the fabric on a single engine.
func New(eng *sim.Engine, cfg Config) *Fabric {
	return build([]*sim.Engine{eng}, nil, cfg)
}

// NewSharded builds the fabric across the shards of se, assigning each
// pod to shard pod·N/pods and declaring the cross-shard lookahead
// (LinkDelay: a handoff departs no earlier than one propagation delay
// after its emitting event, and faults only ever add delay). With one
// pod every component lands on shard 0 and the other shards idle; the
// merge still runs, so the output must — and differential tests verify
// it does — match New on one engine byte-for-byte.
func NewSharded(se *sim.ShardedEngine, cfg Config) *Fabric {
	f := build(se.Engines(), se, cfg)
	se.SetLookahead(f.cfg.LinkDelay)
	return f
}

// build constructs the topology on the given shard engines.
func build(engs []*sim.Engine, se *sim.ShardedEngine, cfg Config) *Fabric {
	d := DefaultConfig()
	if cfg.Segments == 0 {
		cfg.Segments = d.Segments
	}
	if cfg.HostsPerSegment == 0 {
		cfg.HostsPerSegment = d.HostsPerSegment
	}
	if cfg.Aggs == 0 {
		cfg.Aggs = d.Aggs
	}
	if cfg.HostLinkBW == 0 {
		cfg.HostLinkBW = d.HostLinkBW
	}
	if cfg.FabricLinkBW == 0 {
		cfg.FabricLinkBW = d.FabricLinkBW
	}
	if cfg.LinkDelay == 0 {
		cfg.LinkDelay = d.LinkDelay
	}
	if cfg.QueueLimit == 0 {
		cfg.QueueLimit = d.QueueLimit
	}
	if cfg.ECNThreshold == 0 {
		cfg.ECNThreshold = d.ECNThreshold
	}

	f := &Fabric{cfg: cfg, eng: engs[0], engs: engs, se: se}
	f.segsPod = cfg.Segments
	f.pods = 1
	if cfg.SegmentsPerPod > 0 && cfg.SegmentsPerPod < cfg.Segments {
		f.segsPod = cfg.SegmentsPerPod
		f.pods = (cfg.Segments + f.segsPod - 1) / f.segsPod
	}
	// Pods are the partition atoms: every link and host of pod p lives
	// on one shard. (With one pod the whole fabric lands on shard 0.)
	f.shardOfPod = make([]int, f.pods)
	for p := range f.shardOfPod {
		f.shardOfPod[p] = p * len(engs) / f.pods
	}
	f.pools = make([]pool, len(engs))
	f.segRNG = make([]*sim.RNG, cfg.Segments)
	for s := range f.segRNG {
		f.segRNG[s] = engs[0].RNG().Fork(0xa5a50000 ^ uint64(s))
	}
	nhosts := cfg.Segments * cfg.HostsPerSegment
	f.hostUp = make([]*link, nhosts)
	f.hostDown = make([]*link, nhosts)
	for h := 0; h < nhosts; h++ {
		sh := f.shardOfSegment(h / cfg.HostsPerSegment)
		f.hostUp[h] = f.newLink(fmt.Sprintf("host%d->tor", h), cfg.HostLinkBW, sh)
		f.hostDown[h] = f.newLink(fmt.Sprintf("tor->host%d", h), cfg.HostLinkBW, sh)
	}
	f.torUp = make([][]*link, cfg.Segments)
	f.torDown = make([][]*link, cfg.Segments)
	for s := 0; s < cfg.Segments; s++ {
		f.torUp[s] = make([]*link, cfg.Aggs)
		f.torDown[s] = make([]*link, cfg.Aggs)
		sh := f.shardOfSegment(s)
		for a := 0; a < cfg.Aggs; a++ {
			f.torUp[s][a] = f.newLink(fmt.Sprintf("tor%d->agg%d", s, a), cfg.FabricLinkBW, sh)
			f.torDown[s][a] = f.newLink(fmt.Sprintf("agg%d->tor%d", a, s), cfg.FabricLinkBW, sh)
		}
	}
	if f.pods > 1 {
		f.cores = cfg.CoreSwitches
		if f.cores == 0 {
			f.cores = 8
		}
		coreBW := cfg.CoreLinkBW
		if coreBW == 0 {
			coreBW = cfg.FabricLinkBW
		}
		f.aggUp = make([][][]*link, f.pods)
		f.coreDown = make([][][]*link, f.pods)
		for pod := 0; pod < f.pods; pod++ {
			f.aggUp[pod] = make([][]*link, cfg.Aggs)
			f.coreDown[pod] = make([][]*link, cfg.Aggs)
			sh := f.shardOfPod[pod]
			for a := 0; a < cfg.Aggs; a++ {
				f.aggUp[pod][a] = make([]*link, f.cores)
				f.coreDown[pod][a] = make([]*link, f.cores)
				for cr := 0; cr < f.cores; cr++ {
					f.aggUp[pod][a][cr] = f.newLink(fmt.Sprintf("pod%d-agg%d->core%d", pod, a, cr), coreBW, sh)
					down := f.newLink(fmt.Sprintf("core%d->pod%d-agg%d", cr, pod, a), coreBW, sh)
					// Core→Agg is where traffic enters the destination
					// pod — the handoff seam. Canonical-drain it at every
					// shard count so shard counts cannot disagree.
					down.entry = true
					f.coreDown[pod][a][cr] = down
				}
			}
		}
	}
	f.aggOverride = make([][]int, cfg.Segments)
	for s := range f.aggOverride {
		f.aggOverride[s] = make([]int, cfg.Aggs)
		for a := range f.aggOverride[s] {
			f.aggOverride[s][a] = a
		}
	}
	f.handlers = make([]func(*Packet), nhosts)
	f.hopFn = func(a any) { f.hop(a.(*Packet)) }
	f.drainFn = func(a any) { f.drainLink(a.(*link)) }
	return f
}

// AllocPacket returns a zeroed packet from shard 0's free list (or
// fresh storage). Packets handed to Send are reclaimed automatically
// when they are delivered or dropped, so transports that allocate here
// make the whole per-packet path allocation-free. Receive handlers must
// not retain a delivered *Packet past their return. Sharded callers use
// AllocPacketFor so the allocation stays on the sending host's shard.
func (f *Fabric) AllocPacket() *Packet { return f.allocPacket(0) }

// AllocPacketFor returns a zeroed packet from the free list of the
// shard that owns host h — the shard whose engine is running when h
// sends, keeping the free lists shard-local and race-free.
func (f *Fabric) AllocPacketFor(h HostID) *Packet {
	return f.allocPacket(f.hostUp[h].shard)
}

func (f *Fabric) allocPacket(shard int) *Packet {
	po := &f.pools[shard]
	p := po.pktFree
	if p == nil {
		return &Packet{}
	}
	po.pktFree = p.nextFree
	po.pktFreeN--
	*p = Packet{}
	return p
}

// releaseJourney reclaims a delivered or dropped packet — the one object
// a journey uses. The packet's fields are left intact until reuse so a
// handler's just-returned pointer stays readable (tests inspect
// delivered packets this way).
func (f *Fabric) releaseJourney(shard int, p *Packet) {
	po := &f.pools[shard]
	if po.pktFreeN < pktFreeCap {
		p.nextFree = po.pktFree
		po.pktFree = p
		po.pktFreeN++
	}
}

// Pod returns which pod a host belongs to.
func (f *Fabric) Pod(h HostID) int { return f.Segment(h) / f.segsPod }

// Pods returns the pod count.
func (f *Fabric) Pods() int { return f.pods }

// CoreStats returns per-core aggregate byte counters summed over both
// directions and all agg attachments — the Problem ⑥ imbalance
// observable.
func (f *Fabric) CoreStats() []uint64 {
	if f.cores == 0 {
		return nil
	}
	out := make([]uint64, f.cores)
	for pod := 0; pod < f.pods; pod++ {
		for a := range f.aggUp[pod] {
			for cr, l := range f.aggUp[pod][a] {
				out[cr] += l.bytesTx
			}
			for cr, l := range f.coreDown[pod][a] {
				out[cr] += l.bytesTx
			}
		}
	}
	return out
}

// CoreImbalance computes (max-min)/mean over per-core byte loads.
func (f *Fabric) CoreImbalance() float64 {
	loads := f.CoreStats()
	if len(loads) == 0 {
		return 0
	}
	minB, maxB, total := loads[0], loads[0], uint64(0)
	for _, v := range loads {
		if v < minB {
			minB = v
		}
		if v > maxB {
			maxB = v
		}
		total += v
	}
	if total == 0 {
		return 0
	}
	return float64(maxB-minB) / (float64(total) / float64(len(loads)))
}

func (f *Fabric) newLink(name string, bw float64, shard int) *link {
	id := f.nextLinkID
	f.nextLinkID++
	return &link{
		name: name, capacity: bw, delay: f.cfg.LinkDelay,
		qlimit: f.cfg.QueueLimit, ecnAt: f.cfg.ECNThreshold,
		id: id, shard: shard, eng: f.engs[shard],
		// Forked from shard 0's never-consumed root, tagged by link id:
		// the same stream at any shard count.
		rng: f.engs[0].RNG().Fork(0xfab0000 ^ uint64(id)),
	}
}

// Config returns the fabric configuration.
func (f *Fabric) Config() Config { return f.cfg }

// Engine returns shard 0's event engine — the only engine when the
// fabric was built with New. Sharded callers drive Sharded() instead
// and place components with EngineFor.
func (f *Fabric) Engine() *sim.Engine { return f.eng }

// Sharded returns the sharded engine the fabric was built on, or nil
// when it runs on a single engine.
func (f *Fabric) Sharded() *sim.ShardedEngine { return f.se }

// ShardOf reports which shard owns host h (0 when unsharded).
func (f *Fabric) ShardOf(h HostID) int { return f.shardOfSegment(f.Segment(h)) }

func (f *Fabric) shardOfSegment(seg int) int { return f.shardOfPod[seg/f.segsPod] }

// EngineFor returns the engine that owns host h: the engine a component
// attached to h (a transport endpoint, a sampler) must schedule on.
func (f *Fabric) EngineFor(h HostID) *sim.Engine { return f.engs[f.ShardOf(h)] }

// EngineForSegment returns the engine owning a segment's links.
func (f *Fabric) EngineForSegment(seg int) *sim.Engine {
	return f.engs[f.shardOfSegment(seg)]
}

// NumHosts returns the number of attached host NICs.
func (f *Fabric) NumHosts() int { return len(f.hostUp) }

// Segment returns which segment (ToR) a host belongs to.
func (f *Fabric) Segment(h HostID) int { return int(h) / f.cfg.HostsPerSegment }

// Handle registers the receive callback for a host.
func (f *Fabric) Handle(h HostID, fn func(*Packet)) {
	f.handlers[h] = fn
}

// Delivered reports packets handed to receivers, across all shards.
func (f *Fabric) Delivered() uint64 {
	var n uint64
	for i := range f.pools {
		n += f.pools[i].delivered
	}
	return n
}

// Dropped reports packets lost to tail drop, failure or injected loss,
// across all shards.
func (f *Fabric) Dropped() uint64 {
	var n uint64
	for i := range f.pools {
		n += f.pools[i].dropped
	}
	return n
}

// Send injects a packet at its source host at the current virtual time.
// Delivery (or drop) happens through scheduled events. The fabric owns
// the packet from here on: once it is delivered or dropped it may be
// recycled via AllocPacket. A packet may be in flight only once: send a
// fresh one for every (re)transmission. Sharded callers must invoke Send
// from the source host's shard (its engine's callbacks), where its
// uplink lives.
func (f *Fabric) Send(p *Packet) error {
	if int(p.Src) >= len(f.hostUp) || int(p.Dst) >= len(f.hostDown) || p.Src < 0 || p.Dst < 0 {
		return fmt.Errorf("%w: %d->%d", ErrBadHost, p.Src, p.Dst)
	}
	p.SentAt = f.hostUp[p.Src].eng.Now()
	p.n = f.route(p)
	p.i = 0
	f.hop(p)
	return nil
}

// route writes the packet's ordered link list into p.path and returns
// the hop count.
func (f *Fabric) route(p *Packet) int {
	path := &p.path
	srcSeg, dstSeg := f.Segment(p.Src), f.Segment(p.Dst)
	if srcSeg == dstSeg {
		// Same ToR: host -> tor -> host.
		path[0] = f.hostUp[p.Src]
		path[1] = f.hostDown[p.Dst]
		return 2
	}
	var agg int
	if p.PathID < 0 && f.cfg.AdaptiveRouting {
		// Adaptive routing: power-of-two-choices over the healthy
		// uplinks — sample two at random, take the shallower queue.
		// (Deterministic argmin herds synchronized bursts onto one
		// port; real AR implementations randomise exactly like this.)
		now := f.EngineForSegment(srcSeg).Now()
		rng := f.segRNG[srcSeg]
		pick := func() int {
			for tries := 0; tries < 4; tries++ {
				a := rng.Intn(f.cfg.Aggs)
				if !f.torUp[srcSeg][a].failed {
					return a
				}
			}
			return rng.Intn(f.cfg.Aggs)
		}
		a1, a2 := pick(), pick()
		agg = a1
		// Identical samples need no depth comparison; the RNG draw
		// sequence above is unchanged either way.
		if a1 != a2 && f.torUp[srcSeg][a2].queueDepth(now) < f.torUp[srcSeg][a1].queueDepth(now) {
			agg = a2
		}
	} else {
		agg = p.PathID % f.cfg.Aggs
		if agg < 0 {
			agg += f.cfg.Aggs
		}
		agg = f.aggOverride[srcSeg][agg] // BGP reroute away from dead uplinks
	}
	srcPod, dstPod := srcSeg/f.segsPod, dstSeg/f.segsPod
	if srcPod == dstPod {
		path[0] = f.hostUp[p.Src]
		path[1] = f.torUp[srcSeg][agg]
		path[2] = f.torDown[dstSeg][agg]
		path[3] = f.hostDown[p.Dst]
		return 4
	}
	// Cross-pod: climb to the core "escape" layer and descend into the
	// destination pod on the same rail (agg index).
	core := (p.PathID / f.cfg.Aggs) % f.cores
	if core < 0 {
		core += f.cores
	}
	path[0] = f.hostUp[p.Src]
	path[1] = f.torUp[srcSeg][agg]
	path[2] = f.aggUp[srcPod][agg][core]
	path[3] = f.coreDown[dstPod][agg][core]
	path[4] = f.torDown[dstSeg][agg]
	path[5] = f.hostDown[p.Dst]
	return 6
}

// FailLinkWithReroute takes a ToR→Agg uplink down and schedules the
// control plane to steer traffic to an adjacent aggregation switch
// after Config.RerouteDelay (§7.2's two-stage recovery: the short RTO
// repaths instantly; BGP fixes the routing afterwards).
func (f *Fabric) FailLinkWithReroute(segment, agg int) {
	f.FailLink(segment, agg)
	delay := f.cfg.RerouteDelay
	if delay == 0 {
		delay = sim.Duration(500 * time.Millisecond)
	}
	key := [2]int{segment, agg}
	if f.rerouteEv == nil {
		f.rerouteEv = make(map[[2]int]*sim.Event)
	}
	if prev := f.rerouteEv[key]; prev != nil {
		prev.Cancel() // superseded by this newer failure
	}
	// The override is read by route() on the segment's shard, so the
	// convergence timer must fire there too.
	eng := f.EngineForSegment(segment)
	f.rerouteEv[key] = eng.After(delay, func() {
		delete(f.rerouteEv, key)
		f.aggOverride[segment][agg] = (agg + 1) % f.cfg.Aggs
		eng.Tracer().Instant("fabric", "fabric", "fault", "bgp-reroute",
			trace.I("segment", int64(segment)), trace.I("agg", int64(agg)),
			trace.I("via", int64(f.aggOverride[segment][agg])))
	})
}

// RestoreRoute clears a reroute override (after repair), cancelling any
// BGP-convergence timer still pending from FailLinkWithReroute — without
// the cancel, a repair inside RerouteDelay would be silently overridden
// when the stale timer fired.
func (f *Fabric) RestoreRoute(segment, agg int) {
	key := [2]int{segment, agg}
	if ev := f.rerouteEv[key]; ev != nil {
		ev.Cancel()
		delete(f.rerouteEv, key)
	}
	f.aggOverride[segment][agg] = agg
}

// hop advances a packet one stage: at the end of the route it delivers
// the packet; at a canonical-drain entry link it buffers the arrival
// until instant end; everywhere else it claims the link immediately.
func (f *Fabric) hop(p *Packet) {
	if p.i == p.n {
		f.deliver(p)
		return
	}
	l := p.path[p.i]
	if l.entry {
		// Same-instant arrival order at a handoff seam is a merge
		// artifact; defer to instant end and claim in canonical order.
		l.pending = append(l.pending, p)
		if !l.drainArmed {
			l.drainArmed = true
			l.eng.AtInstantEnd(f.drainFn, l)
		}
		return
	}
	p.i++
	f.arrive(l, p)
}

// deliver hands the packet to its destination handler and recycles it
// into the pool of the shard owning the last link (ToR→host), whose
// engine is the one running.
func (f *Fabric) deliver(p *Packet) {
	shard := p.path[p.n-1].shard
	f.pools[shard].delivered++
	if h := f.handlers[p.Dst]; h != nil {
		h(p)
	}
	f.releaseJourney(shard, p)
}

// drainLink claims an entry link's buffered same-instant arrivals in
// canonical packet order — (flow, data-before-ack, seq, epoch), a total
// order on live packets that does not reference event scheduling — so
// the claim sequence is identical at every shard count.
func (f *Fabric) drainLink(l *link) {
	pend := l.pending
	if len(pend) > 1 {
		sortPackets(pend)
	}
	l.pending = l.pending[:0]
	l.drainArmed = false
	for i, p := range pend {
		pend[i] = nil
		p.i++
		f.arrive(l, p)
	}
}

// arrive claims link l for packet p — drop checks, queue accounting,
// ECN, serialisation — and schedules the next stage at the departure
// time, handing off across shards when the next link lives elsewhere.
func (f *Fabric) arrive(l *link, p *Packet) {
	now := l.eng.Now()
	tr := l.eng.Tracer()

	if l.failed || (l.dropProb > 0 && l.rng.Float64() < l.dropProb) {
		l.drops++
		f.pools[l.shard].dropped++
		if tr.Enabled() {
			tr.Instant("fabric", "fabric", "net", "drop",
				trace.S("link", l.name), trace.U("seq", p.Seq), trace.S("reason", dropReason(l.failed)))
			tr.SpanStep(p.Trace, "fabric", "fabric", "pkt", "drop", trace.S("link", l.name))
		}
		f.releaseJourney(l.shard, p)
		return
	}

	// Time-weighted queue accounting before this arrival.
	q := l.queueDepth(now)
	if l.lastTx > 0 {
		l.sumQueue += float64(q) * float64(now-l.lastTx)
	}
	l.lastTx = now

	if q+p.Size > l.qlimit {
		l.drops++
		f.pools[l.shard].dropped++
		if tr.Enabled() {
			tr.Instant("fabric", "fabric", "net", "drop",
				trace.S("link", l.name), trace.U("seq", p.Seq), trace.S("reason", "taildrop"),
				trace.U("queue", q))
			tr.SpanStep(p.Trace, "fabric", "fabric", "pkt", "drop", trace.S("link", l.name))
		}
		f.releaseJourney(l.shard, p)
		return
	}
	if q >= l.ecnAt {
		p.ECN = true
		l.ecnMarks++
		if tr.Enabled() {
			tr.SpanStep(p.Trace, "fabric", "fabric", "pkt", "ecn-mark",
				trace.S("link", l.name), trace.U("queue", q))
		}
	}
	if q+p.Size > l.maxQueue {
		l.maxQueue = q + p.Size
	}

	ser := l.serTime(p.Size)
	if l.freeAt < now {
		l.freeAt = now
	}
	l.freeAt = l.freeAt.Add(ser)
	l.bytesTx += p.Size
	depart := l.freeAt.Add(l.effDelay())
	if tr.Enabled() && p.Trace != 0 {
		// One slice per hop: queue wait + serialisation + propagation.
		tr.Complete("fabric", "fabric", "net", "hop", depart.Sub(now),
			trace.S("link", l.name), trace.U("seq", p.Seq), trace.U("queue", q))
		tr.SpanStep(p.Trace, "fabric", "fabric", "pkt", "hop", trace.S("link", l.name))
	}
	if p.i < p.n {
		if next := p.path[p.i]; next.shard != l.shard {
			// Cross-shard handoff: depart ≥ now + propagation delay ≥
			// now + lookahead, the conservative-synchronization bound.
			f.se.Handoff(l.shard, next.shard, depart, f.hopFn, p)
			return
		}
	}
	l.eng.AtArg(depart, f.hopFn, p)
}

// sortPackets orders buffered arrivals by canonical packet key:
// (flow, data before acks, seq/ackseq, epoch) — unique among in-flight
// packets, so the order is total and engine-independent. Insertion sort:
// same-instant multi-arrivals are rare and tiny.
func sortPackets(s []*Packet) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && packetLess(s[j], s[j-1]); j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}

func packetLess(pa, pb *Packet) bool {
	if pa.Flow != pb.Flow {
		return pa.Flow < pb.Flow
	}
	if pa.Ack != pb.Ack {
		return !pa.Ack
	}
	if pa.Ack {
		if pa.AckSeq != pb.AckSeq {
			return pa.AckSeq < pb.AckSeq
		}
		return pa.AckEpoch < pb.AckEpoch
	}
	if pa.Seq != pb.Seq {
		return pa.Seq < pb.Seq
	}
	return pa.Epoch < pb.Epoch
}

// dropReason labels why a link refused a packet.
func dropReason(failed bool) string {
	if failed {
		return "link-failed"
	}
	return "loss"
}

// LinkStats summarises one port.
type LinkStats struct {
	Name     string
	BytesTx  uint64
	Drops    uint64
	ECNMarks uint64
	MaxQueue uint64
}

// UplinkStats returns the ToR uplink counters for a segment, indexed by
// aggregation switch — the per-port loads behind Figures 9 and 12.
func (f *Fabric) UplinkStats(segment int) []LinkStats {
	out := make([]LinkStats, f.cfg.Aggs)
	for a, l := range f.torUp[segment] {
		out[a] = LinkStats{Name: l.name, BytesTx: l.bytesTx, Drops: l.drops, ECNMarks: l.ecnMarks, MaxQueue: l.maxQueue}
	}
	return out
}

// UplinkQueueDepths samples current queue depth (bytes) on every uplink
// of the segment, at the owning shard's current time.
func (f *Fabric) UplinkQueueDepths(segment int) []uint64 {
	now := f.EngineForSegment(segment).Now()
	out := make([]uint64, f.cfg.Aggs)
	for a, l := range f.torUp[segment] {
		out[a] = l.queueDepth(now)
	}
	return out
}

// Imbalance computes the paper's Figure 12 metric for a segment's
// uplinks: (max load − min load) / total capacity·time, as a fraction,
// over bytes transmitted so far.
func (f *Fabric) Imbalance(segment int) float64 {
	var minB, maxB, total uint64
	first := true
	for _, l := range f.torUp[segment] {
		if first {
			minB, maxB = l.bytesTx, l.bytesTx
			first = false
		}
		if l.bytesTx < minB {
			minB = l.bytesTx
		}
		if l.bytesTx > maxB {
			maxB = l.bytesTx
		}
		total += l.bytesTx
	}
	if total == 0 {
		return 0
	}
	return float64(maxB-minB) / (float64(total) / float64(f.cfg.Aggs))
}

// InjectLoss sets a random drop probability on one ToR→Agg uplink (the
// Figure 11 failure model). It is a legacy wrapper over SetFault.
func (f *Fabric) InjectLoss(segment, agg int, p float64) {
	ref := Uplink(segment, agg)
	ft, _ := f.FaultOf(ref)
	ft.DropProb = p
	_ = f.SetFault(ref, ft)
}

// FailLink takes a ToR→Agg uplink fully down. It is a legacy wrapper
// over SetFault.
func (f *Fabric) FailLink(segment, agg int) {
	ref := Uplink(segment, agg)
	ft, _ := f.FaultOf(ref)
	ft.Down = true
	_ = f.SetFault(ref, ft)
}

// RestoreLink clears all fault state on an uplink. It is a legacy
// wrapper over SetFault.
func (f *Fabric) RestoreLink(segment, agg int) {
	_ = f.ClearFault(Uplink(segment, agg))
}
