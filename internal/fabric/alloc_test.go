package fabric

import (
	"testing"

	"repro/internal/sim"
)

// TestSendDeliverAllocFree pins the zero-allocation fabric hot path:
// once the packet and engine event free lists are warm, a full
// Send→deliver round trip (pooled packet carrying its own route, per-hop
// events, queue accounting, delivery, pool release) must not touch the
// heap. A change that reintroduces a per-packet allocation turns this
// red.
func TestSendDeliverAllocFree(t *testing.T) {
	eng := sim.NewEngine(1)
	f := smallFabric(eng)
	f.Handle(5, func(p *Packet) {})
	roundTrip := func() {
		p := f.AllocPacket()
		p.Src, p.Dst, p.Size = 0, 5, 1000
		if err := f.Send(p); err != nil {
			t.Fatal(err)
		}
		eng.RunAll()
	}
	for i := 0; i < 64; i++ {
		roundTrip()
	}
	if allocs := testing.AllocsPerRun(100, roundTrip); allocs > 0 {
		t.Errorf("Send→deliver allocates %.2f objects/op, want 0", allocs)
	}
}
