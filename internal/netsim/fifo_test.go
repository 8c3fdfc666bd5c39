package netsim

import (
	"cmp"
	"math/rand"
	"slices"
	"testing"
	"unsafe"
)

func fifoTestPacket(size int) *Packet { return &Packet{Size: size} }

func TestFifoOrderAndByteAccountingAcrossWrap(t *testing.T) {
	var (
		q  fifo
		rp ringPool
	)
	next := 0
	push := func() { q.push(&rp, fifoTestPacket(next+1)); next++ }
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
	var (
		q  fifo
		rp ringPool
	)
	for i := 0; i < 13; i++ {
		q.push(&rp, fifoTestPacket(64))
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
	var (
		q  fifo
		rp ringPool
	)
	p := fifoTestPacket(100)
	// Warm to working-set capacity.
	for i := 0; i < 4; i++ {
		q.push(&rp, fifoTestPacket(100))
	}
	allocs := testing.AllocsPerRun(1000, func() {
		q.push(&rp, p)
		q.pop()
	})
	if allocs > 0 {
		t.Errorf("steady-state push/pop allocates %.1f allocs/run, want 0", allocs)
	}
}

// TestRingPoolMatchesSliceQueues drives queues that share one ring
// pool through bursts that grow them past a chunk and drains that
// free their rings for the others, against plain-slice queues: every
// pop must return the same packet, every byte count agree, and no two
// rings, live or idle, may share a slot.
func TestRingPoolMatchesSliceQueues(t *testing.T) {
	const queues = 12
	var (
		rp   ringPool
		qs   [queues]fifo
		refs [queues][]*Packet
	)
	rng := rand.New(rand.NewSource(3))
	noSharedSlots := func(step int) {
		t.Helper()
		type span struct{ lo, hi uintptr }
		var spans []span
		add := func(r []*Packet) {
			if len(r) < minRing || len(r)&(len(r)-1) != 0 {
				t.Fatalf("step %d: ring of %d slots, want a power of two >= %d", step, len(r), minRing)
			}
			lo := uintptr(unsafe.Pointer(&r[0]))
			spans = append(spans, span{lo, lo + uintptr(len(r))*unsafe.Sizeof(r[0])})
		}
		for i := range qs {
			if qs[i].ring != nil {
				add(qs[i].ring)
			}
		}
		for _, f := range rp.free {
			for _, r := range f {
				add(r)
			}
		}
		slices.SortFunc(spans, func(a, b span) int { return cmp.Compare(a.lo, b.lo) })
		for i := 1; i < len(spans); i++ {
			if spans[i].lo < spans[i-1].hi {
				t.Fatalf("step %d: two rings share slots", step)
			}
		}
	}
	id := 0
	for step := 0; step < 4000; step++ {
		i := rng.Intn(queues)
		q, ref := &qs[i], &refs[i]
		switch burst := rng.Intn(8); {
		case burst == 0: // grow one queue well past its ring
			for k := rng.Intn(3 * ringChunk); k > 0; k-- {
				id++
				p := fifoTestPacket(1 + id%1500)
				q.push(&rp, p)
				*ref = append(*ref, p)
			}
		case burst < 4:
			id++
			p := fifoTestPacket(1 + id%1500)
			q.push(&rp, p)
			*ref = append(*ref, p)
		default: // drain part of it
			for k := rng.Intn(2 * ringChunk); k > 0 && len(*ref) > 0; k-- {
				if got := q.pop(); got != (*ref)[0] {
					t.Fatalf("step %d: queue %d popped packet of size %d, want the one of size %d", step, i, got.Size, (*ref)[0].Size)
				}
				*ref = (*ref)[1:]
			}
		}
		bytes := 0
		for _, p := range *ref {
			bytes += p.Size
		}
		if q.n != len(*ref) || q.bytes != bytes || q.empty() != (len(*ref) == 0) {
			t.Fatalf("step %d: queue %d holds %d packets, %d bytes; want %d, %d", step, i, q.n, q.bytes, len(*ref), bytes)
		}
		noSharedSlots(step)
	}
	recycled := 0
	for _, f := range rp.free {
		recycled += len(f)
	}
	if recycled == 0 {
		t.Fatal("no ring was returned to the pool; the test drives too little growth")
	}
}
