package netsim

import "testing"

func fifoTestPacket(size int) *Packet { return &Packet{Size: size} }

func TestFifoOrderAndByteAccountingAcrossWrap(t *testing.T) {
	var q fifo
	next := 0
	push := func() { q.push(fifoTestPacket(next + 1)); next++ }
	popWant := func(want int) {
		t.Helper()
		p := q.pop()
		if p.Size != want+1 {
			t.Fatalf("popped size %d, want %d", p.Size, want+1)
		}
	}
	// Drive head/tail around the ring several times.
	for i := 0; i < 5; i++ {
		push()
	}
	popWant(0)
	popWant(1)
	for i := 0; i < 20; i++ { // forces growth and wrap-around
		push()
	}
	bytes := 0
	for i := 2; i < next; i++ {
		bytes += i + 1
	}
	if q.bytes != bytes {
		t.Fatalf("bytes = %d, want %d", q.bytes, bytes)
	}
	for i := 2; i < next; i++ {
		popWant(i)
	}
	if !q.empty() || q.bytes != 0 {
		t.Fatalf("queue not empty after draining: n=%d bytes=%d", q.n, q.bytes)
	}
}

// TestFifoPopReleasesSlots guards the seed bug where pop kept the head
// of the backing array alive (`q.pkts = q.pkts[1:]` never nil'd the
// slot): after draining, the ring must hold no packet references.
func TestFifoPopReleasesSlots(t *testing.T) {
	var q fifo
	for i := 0; i < 13; i++ {
		q.push(fifoTestPacket(64))
	}
	for !q.empty() {
		q.pop()
	}
	for i, p := range q.ring {
		if p != nil {
			t.Fatalf("ring slot %d still references a packet after drain", i)
		}
	}
}

// TestFifoSteadyStateAllocatesNothing is the alloc-count check the
// ring-buffer conversion was verified with: the seed's slice-append
// queue allocated on every push cycle because the backing array could
// never be reused.
func TestFifoSteadyStateAllocatesNothing(t *testing.T) {
	var q fifo
	p := fifoTestPacket(100)
	// Warm to working-set capacity.
	for i := 0; i < 4; i++ {
		q.push(fifoTestPacket(100))
	}
	allocs := testing.AllocsPerRun(1000, func() {
		q.push(p)
		q.pop()
	})
	if allocs > 0 {
		t.Errorf("steady-state push/pop allocates %.1f allocs/run, want 0", allocs)
	}
}
