package netsim

import (
	"cmp"
	"math/bits"
	"math/rand"
	"slices"

	"repro/internal/engine"
	"repro/internal/routing"
	"repro/internal/topology"
)

// PktKind distinguishes packet roles.
type PktKind int

const (
	// Data carries flow payload.
	Data PktKind = iota
	// Ack is a transport acknowledgement (TCP cumulative or RoCE msg).
	Ack
	// Cnp is a DCQCN congestion notification packet.
	Cnp
)

// Packet is the unit of simulation.
type Packet struct {
	ID   int64
	Kind PktKind
	Src  int   // source host vertex ID
	Dst  int   // destination host vertex ID
	Size int   // bytes on the wire (payload + header)
	Tag  int   // virtual-channel tag, rewritten by rules
	Prio int   // PFC priority class: 0 = lossless data, 1 = control
	Flow int64 // flow / message identifier
	Seq  int64 // byte offset within the flow

	Len int // payload bytes

	// TS is the send timestamp stamped at QP emission and echoed back
	// on delay-CC acks; the sender derives its RTT sample from it.
	TS Time

	inPort   int // bookkeeping: ingress port at current switch
	arrClass int // bookkeeping: wire class the packet arrived with
	AckSeq   int64

	// idx is the packet's slot in its Network's slab. msg is the RoCE
	// message a data packet carries (0 otherwise); conn is the sending
	// queue pair of a RoCE packet, or the TCP connection of a TCP one,
	// so an ack or CNP finds its QP without a lookup.
	idx, msg, conn int32

	ECN    bool
	AckECN bool
}

// pktChunk is the number of packets in one slab chunk.
const pktChunk = 64

// packets is a Network's packet slab: fixed-size chunks that never
// move, so a handler may hold a *Packet while it allocates another,
// and a free list of slot indices. No slot index reaches a result:
// every creation site writes the whole packet.
type packets struct {
	chunks []*[pktChunk]Packet
	free   []int32
}

// at returns the packet in slot i.
func (s *packets) at(i int32) *Packet { return &s.chunks[i/pktChunk][i%pktChunk] }

// alloc copies v into a free slot and returns it.
func (s *packets) alloc(v Packet) *Packet {
	var i int32
	if n := len(s.free); n > 0 {
		i = s.free[n-1]
		s.free = s.free[:n-1]
	} else {
		i = int32(len(s.chunks) * pktChunk)
		s.chunks = append(s.chunks, new([pktChunk]Packet))
		for j := i + pktChunk - 1; j > i; j-- {
			s.free = append(s.free, j)
		}
	}
	p := s.at(i)
	*p = v
	p.idx = i
	return p
}

// release returns p's slot. Only terminal owners call it: the arrival
// handler after host delivery, and the drop sites.
func (s *packets) release(p *Packet) { s.free = append(s.free, p.idx) }

// Crossbar models the internal switching fabric of one physical switch.
// Under SDT several sub-switches share one crossbar, so its (slight)
// serialisation and the projected pipeline overhead are the physical
// source of the Fig. 11 deviation.
type Crossbar struct {
	bps       float64
	extra     Time
	busyUntil Time
}

// delay returns the crossbar contribution for a packet of n bytes
// arriving now, advancing the busy horizon.
func (x *Crossbar) delay(now Time, n int) Time {
	svc := serTime(n, x.bps)
	start := now
	if x.busyUntil > start {
		start = x.busyUntil
	}
	x.busyUntil = start + svc
	return (start - now) + svc + x.extra
}

// DirLink is one direction of a full-duplex cable.
type DirLink struct {
	id        int
	to        deviceRef
	bps       float64
	prop      Time
	busyUntil Time
	// TxBytes accumulates transmitted payloadful bytes (Network Monitor).
	TxBytes int64
	// src is the OutPort feeding this link (flushed when the link is
	// cut).
	src *OutPort
	// down marks a failed link: packets entering or traversing it are
	// dropped into Network.FaultDrops.
	down bool
}

type deviceRef struct {
	host   *Host // exactly one of host/sw set
	sw     *SimSwitch
	inPort int // ingress port at the receiving device
}

// fifo is a byte-accounted packet queue over a power-of-two ring
// buffer: pops release the head slot immediately (no backing-array
// retention) and steady-state push/pop allocates nothing. Its rings
// come from, and an outgrown ring returns to, its Network's ringPool.
type fifo struct {
	ring  []*Packet // power-of-two capacity
	head  int
	n     int
	bytes int
}

func (q *fifo) push(rp *ringPool, p *Packet) {
	if q.n == len(q.ring) {
		q.grow(rp)
	}
	q.ring[(q.head+q.n)&(len(q.ring)-1)] = p
	q.n++
	q.bytes += p.Size
}

func (q *fifo) grow(rp *ringPool) {
	next := rp.get(max(2*len(q.ring), minRing))
	for i := 0; i < q.n; i++ {
		next[i] = q.ring[(q.head+i)&(len(q.ring)-1)]
	}
	if q.ring != nil {
		clear(q.ring)
		rp.put(q.ring)
	}
	q.ring = next
	q.head = 0
}

func (q *fifo) pop() *Packet {
	p := q.ring[q.head]
	q.ring[q.head] = nil
	q.head = (q.head + 1) & (len(q.ring) - 1)
	q.n--
	q.bytes -= p.Size
	return p
}

func (q *fifo) empty() bool { return q.n == 0 }

// minRing is the capacity of a queue's first ring, and ringChunk the
// slot count of the chunks the pool carves rings of up to that size
// from.
const (
	minRing   = 8
	ringChunk = 512
)

// ringPool is a Network's storage for its queues' rings. free[c] lists
// the idle rings of minRing<<c slots. A ring of up to ringChunk slots
// is carved from the current chunk when its list is empty, and a
// larger one is allocated alone. A queue that outgrows its ring puts
// it back, cleared, so a fabric's rings cover about its queues'
// high-water marks, and a ring handed out is held by one queue only.
type ringPool struct {
	free  [32][][]*Packet
	chunk []*Packet // the current chunk's uncarved tail
}

// ringClass returns the free-list index of a ring of n slots, a power
// of two no smaller than minRing.
func ringClass(n int) int { return bits.Len(uint(n)) - bits.Len(minRing) }

// get returns a ring of n slots, n a power of two no smaller than
// minRing.
func (rp *ringPool) get(n int) []*Packet {
	c := ringClass(n)
	if f := rp.free[c]; len(f) > 0 {
		r := f[len(f)-1]
		rp.free[c] = f[:len(f)-1]
		return r
	}
	if n > ringChunk {
		return make([]*Packet, n)
	}
	if len(rp.chunk) < n {
		// The tail is a multiple of minRing slots: it goes to the free
		// lists as power-of-two rings before a new chunk replaces it.
		for len(rp.chunk) > 0 {
			m := 1 << (bits.Len(uint(len(rp.chunk))) - 1)
			rp.put(rp.chunk[:m:m])
			rp.chunk = rp.chunk[m:]
		}
		rp.chunk = make([]*Packet, ringChunk)
	}
	r := rp.chunk[:n:n]
	rp.chunk = rp.chunk[n:]
	return r
}

// put returns an idle ring to its free list.
func (rp *ringPool) put(r []*Packet) {
	c := ringClass(len(r))
	rp.free[c] = append(rp.free[c], r)
}

// nPrio is the number of PFC traffic classes. Data packets travel in
// the class of their current VC tag (classes 0..nPrio-2) — on real
// RoCE fabrics, virtual channels map to PFC priorities, and deadlock
// avoidance by "changing VC" (Table III) only works when each VC has
// its own lossless buffer. The top class carries control traffic
// (ACK/CNP) and is never paused.
const nPrio = 8

// Event payloads pack the priority class into 4 bits (the `<<4 | cls`
// encodings in tryTransmit and switch receive); this guard breaks the
// build if nPrio ever outgrows that field.
var _ [16 - nPrio]struct{}

// ctrlClass is the unpaused control class.
const ctrlClass = nPrio - 1

// pfcClass maps a packet to its traffic class from its current tag.
func pfcClass(pkt *Packet) int {
	if pkt.Kind != Data {
		return ctrlClass
	}
	c := pkt.Tag
	if c < 0 {
		c = 0
	}
	if c > nPrio-2 {
		c = c % (nPrio - 1)
	}
	return c
}

// OutPort is an egress port with per-priority queues feeding a link.
type OutPort struct {
	link    *DirLink
	queues  [nPrio]fifo
	paused  [nPrio]bool
	sending bool
	// ownerCache is the switch owning this port (nil for host NICs);
	// used for PFC ingress accounting on dequeue.
	ownerCache *SimSwitch
	// hostOwner is the host owning this NIC port (nil for switch
	// ports); its QPs are kicked when the queue drains so DCQCN pacing
	// is enforced at the wire, not just at enqueue.
	hostOwner *Host
}

func (o *OutPort) queuedBytes() int {
	n := 0
	for i := range o.queues {
		n += o.queues[i].bytes
	}
	return n
}

// queuedDataBytes returns queued bytes across the pausable data
// classes only (control excluded) — the NIC backlog the QP self-clock
// watches, whichever class size-priority stamping routed packets to.
func (o *OutPort) queuedDataBytes() int {
	n := 0
	for i := 0; i < ctrlClass; i++ {
		n += o.queues[i].bytes
	}
	return n
}

// SimSwitch is one logical switch in the simulated fabric. Its
// per-port slices are windows of fabric-wide arrays.
type SimSwitch struct {
	vertex   int // topology vertex ID
	net      *Network
	crossbar *Crossbar
	// outPorts indexed by logical port number (1-based; 0 unused).
	outPorts []*OutPort
	// upstream maps ingress port -> the OutPort at the far device that
	// feeds it (for PFC pause signalling).
	upstream []*OutPort
	// ingressBytes tracks buffered bytes per (ingress port, priority)
	// for PFC thresholds.
	ingressBytes [][nPrio]int
	// pfcPaused remembers which upstream ports we paused.
	pfcSent [][nPrio]bool
}

// Host is a simulated compute node: one NIC port plus transports.
type Host struct {
	vertex int
	net    *Network
	out    *OutPort

	roce roceEngine

	// DeliveredBytes counts payload bytes received (goodput).
	DeliveredBytes int64
}

// Forwarder decides forwarding at a logical switch.
type Forwarder interface {
	// Forward returns the logical egress port and new tag for a packet
	// arriving at switch vertex sw on logical port inPort. ok=false
	// drops the packet (table miss).
	Forward(sw, inPort int, pkt *Packet) (outPort, newTag int, ok bool)
}

// RouteForwarder forwards using a routing rule set (control plane
// compiled from the same rules that fill the OpenFlow tables) with
// every entry pre-installed (proactive deployment). The per-hop
// decision runs on the compiled FIB — a dense array load — rather than
// the rule-index probe of Routes.Lookup; the two are
// differential-tested to agree on every tuple.
//
// Every Forward goes through the route set's memoized FIB accessor —
// never a snapshot — so rules added later (the manual-strategy
// workflow) invalidate and recompile transparently, exactly as the
// Lookup-based forwarder behaved. Construct with NewRouteForwarder,
// which compiles the FIB before the first packet.
type RouteForwarder struct {
	Routes *routing.Routes
}

// NewRouteForwarder eagerly compiles the route set's FIB and returns a
// forwarder over it.
func NewRouteForwarder(r *routing.Routes) RouteForwarder {
	r.FIB()
	return RouteForwarder{Routes: r}
}

// Forward implements Forwarder.
func (rf RouteForwarder) Forward(sw, inPort int, pkt *Packet) (int, int, bool) {
	return rf.Routes.FIB().Forward(sw, inPort, pkt.Dst, pkt.Tag)
}

// Network is a simulated fabric: the logical topology's switches and
// hosts joined by directed links.
type Network struct {
	Sim    *Sim
	Cfg    Config
	Fwd    Forwarder
	nextID int64

	// rng draws the ECN ramp's marks; ecnRand makes it on first use.
	rng *rand.Rand

	// switches and hosts index their slabs by topology vertex ID (nil
	// where the vertex is the other kind); links is the directed-link
	// slab. None of the slabs grows after NewNetwork.
	switches []*SimSwitch
	hosts    []*Host
	links    []DirLink

	// rings holds the egress queues' ring buffers, mail the hosts'
	// message matching, and kick is nicDrained's scratch.
	rings ringPool
	mail  mailbox
	kick  []int32

	// Stats
	TotalDrops   int64
	PausesSent   int64
	EcnMarks     int64
	DeliveredPkt int64
	// FaultDrops counts packets lost to dead links: drained from the
	// queue feeding a cut link, or in flight on it when it was cut
	// (separate from TotalDrops, which stays the congestion/table-miss
	// count).
	FaultDrops int64

	// awaiting holds the AwaitDelivery callbacks for the next RoCE
	// payload delivery; empty outside fault and reconfiguration runs.
	awaiting []func(now Time)

	// cc is the resolved congestion-control policy of this fabric.
	cc ccKind

	// The transport state, named by int32 indices that packets and
	// events carry. qps holds every queue pair in creation order, and
	// dcqcn or timely (whichever policy cc names) its rate state at
	// the same index; msgs holds the RoCE messages, slot 0 the nil
	// message and freeMsg the head of the free slots; tcps holds the
	// TCP connections. Only Send appends to qps and msgs, so no
	// handler holds a pointer into them across an append.
	pkts    packets
	qps     []roceQP
	dcqcn   []dcqcnCC
	timely  []timelyCC
	msgs    []roceMsg
	freeMsg int32
	tcps    []*TCPConn
}

// NewNetwork builds the fabric for a logical topology. crossbarOf maps
// each switch vertex to a crossbar group: identity for a full testbed,
// the projection plan's physical switch for SDT. sdtExtra applies the
// per-hop projection overhead to every switch in a shared group.
//
// The fabric takes the same handful of allocations whatever its size:
// one slab each of switches, hosts, directed links, their egress ports
// and crossbars, and four port-indexed arrays that each switch's
// per-port slices are windows of.
func NewNetwork(g *topology.Graph, fwd Forwarder, cfg Config, crossbarOf func(v int) int, sdtExtra bool) (*Network, error) {
	if err := g.Validate(); err != nil {
		return nil, err
	}
	cc, err := ccKindOf(&cfg)
	if err != nil {
		return nil, err
	}
	sws, hvs := g.Switches(), g.Hosts()
	n := &Network{
		Sim:      NewSim(),
		Cfg:      cfg,
		Fwd:      fwd,
		cc:       cc,
		switches: make([]*SimSwitch, len(g.Vertices)),
		hosts:    make([]*Host, len(g.Vertices)),
		links:    make([]DirLink, 2*len(g.Edges)),
		msgs:     make([]roceMsg, 1),
	}

	// Logical port p of a switch is slot p of its window; slot 0 is
	// unused. A self loop sits in its vertex's CSR row once, with its A
	// port, so its B port is read from the edge.
	csr := g.CSR()
	maxPort := func(v int) int {
		m := 0
		for i := csr.Start[v]; i < csr.Start[v+1]; i++ {
			m = max(m, int(csr.Port[i]))
			if int(csr.Nbr[i]) == v {
				m = max(m, g.Edges[csr.Edge[i]].BPort)
			}
		}
		return m
	}
	slots := 0
	for _, v := range sws {
		slots += maxPort(v) + 1
	}
	outPorts := make([]*OutPort, slots)
	upstream := make([]*OutPort, slots)
	ingressBytes := make([][nPrio]int, slots)
	pfcSent := make([][nPrio]bool, slots)
	swSlab := make([]SimSwitch, len(sws))
	at := 0
	for i, v := range sws {
		end := at + maxPort(v) + 1
		swSlab[i] = SimSwitch{
			vertex:       v,
			net:          n,
			outPorts:     outPorts[at:end:end],
			upstream:     upstream[at:end:end],
			ingressBytes: ingressBytes[at:end:end],
			pfcSent:      pfcSent[at:end:end],
		}
		n.switches[v] = &swSlab[i]
		at = end
	}
	xbar := Crossbar{bps: cfg.CrossbarBps}
	if sdtExtra {
		xbar.extra = cfg.SDTPerHopExtra
	}
	groupCrossbars(swSlab, crossbarOf, xbar)
	hostSlab := make([]Host, len(hvs))
	for i, v := range hvs {
		hostSlab[i] = Host{vertex: v, net: n}
		n.hosts[v] = &hostSlab[i]
	}

	// Links: two directed channels per edge, each fed by its port.
	ports := make([]OutPort, len(n.links))
	for i, e := range g.Edges {
		n.wire(2*i, &ports[2*i], e.A, e.APort, e.B, e.BPort)
		n.wire(2*i+1, &ports[2*i+1], e.B, e.BPort, e.A, e.APort)
	}
	// Wire upstream references for PFC: the port feeding a link is
	// its receiving switch port's upstream. Hosts send no pause.
	for i := range n.links {
		if l := &n.links[i]; l.to.sw != nil {
			l.to.sw.upstream[l.to.inPort] = l.src
		}
	}
	return n, nil
}

// groupCrossbars gives each switch the crossbar of its group, one per
// distinct crossbarOf value (one per switch when crossbarOf is nil),
// each a copy of proto in one slab.
func groupCrossbars(sws []SimSwitch, crossbarOf func(v int) int, proto Crossbar) {
	type member struct{ gid, sw int }
	order := make([]member, len(sws))
	for i := range sws {
		gid := sws[i].vertex
		if crossbarOf != nil {
			gid = crossbarOf(gid)
		}
		order[i] = member{gid, i}
	}
	slices.SortFunc(order, func(a, b member) int { return cmp.Compare(a.gid, b.gid) })
	xbars := make([]Crossbar, len(sws))
	x := -1
	for j, m := range order {
		if j == 0 || m.gid != order[j-1].gid {
			x++
			xbars[x] = proto
		}
		sws[m.sw].crossbar = &xbars[x]
	}
}

// wire sets up directed link i, from port fromPort of vertex from to
// port toPort of vertex to, fed by egress port op.
func (n *Network) wire(i int, op *OutPort, from, fromPort, to, toPort int) {
	l := &n.links[i]
	*l = DirLink{id: i, bps: n.Cfg.LinkBps, prop: n.Cfg.PropDelay, src: op}
	if h := n.hosts[to]; h != nil {
		l.to = deviceRef{host: h, inPort: toPort}
	} else {
		l.to = deviceRef{sw: n.switches[to], inPort: toPort}
	}
	op.link = l
	if h := n.hosts[from]; h != nil {
		op.hostOwner = h
		h.out = op
	} else {
		op.ownerCache = n.switches[from]
		n.switches[from].outPorts[fromPort] = op
	}
}

// Host returns the host device for a topology host vertex (nil when v
// is out of range or a switch).
func (n *Network) Host(v int) *Host {
	if v < 0 || v >= len(n.hosts) {
		return nil
	}
	return n.hosts[v]
}

func (n *Network) pktID() int64 { n.nextID++; return n.nextID }

// ecnRand returns the ECN ramp's random source, seeding it on its
// first draw: most fabrics never mark on the ramp, and the stream is
// the same whenever it starts.
func (n *Network) ecnRand() *rand.Rand {
	if n.rng == nil {
		n.rng = rand.New(rand.NewSource(ecnSeed))
	}
	return n.rng
}

// OnEvent dispatches fabric-level events: transmit completions, wire
// arrivals, PFC pause/resume, and the queue pairs' paced sends and
// rate timers.
func (n *Network) OnEvent(now Time, ev engine.Event) {
	switch ev.Kind {
	case evTxDone:
		o := n.links[ev.Ref].src
		o.sending = false
		n.onDequeued(o, int(ev.A>>4), int(ev.A&0xf), int(ev.B))
		n.tryTransmit(o)
	case evArrive:
		pkt := n.pkts.at(ev.Ref)
		l := &n.links[ev.A]
		to := l.to
		if l.down {
			// The wire was cut while the packet was in flight.
			n.FaultDrops++
			n.pkts.release(pkt)
			return
		}
		pkt.inPort = to.inPort
		if to.sw != nil {
			to.sw.receive(pkt)
		} else {
			to.host.receive(pkt)
			n.pkts.release(pkt) // terminal: host consumed it synchronously
		}
	case evPfcPause:
		n.links[ev.Ref].src.paused[ev.A] = true
	case evPfcResume:
		o := n.links[ev.Ref].src
		o.paused[ev.A] = false
		n.tryTransmit(o)
	case evQPSend:
		q := &n.qps[ev.Ref]
		n.hosts[q.src].inject(n.pkts.at(int32(ev.B)))
		q.nextSendAt = now + Time(ev.A)
		q.pumping = false
		n.pump(ev.Ref)
	case evQPTick: // only DCQCN arms the timer
		n.dcqcn[ev.Ref].tick(n, ev.Ref, now)
	}
}

// tryTransmit starts transmission on an output port if idle, honouring
// PFC pause state per priority (highest priority first). A dead link
// transmits nothing: queued packets drain as fault drops, with the same
// dequeue accounting a completed transmission would have performed, so
// PFC state unwinds and the fabric recovers cleanly when the link comes
// back.
func (n *Network) tryTransmit(o *OutPort) {
	if o.sending {
		return
	}
	var pkt *Packet
	for {
		var q *fifo
		for p := nPrio - 1; p >= 0; p-- {
			if !o.queues[p].empty() && !o.paused[p] {
				q = &o.queues[p]
				break
			}
		}
		if q == nil {
			return
		}
		pkt = q.pop()
		if o.link.down {
			n.FaultDrops++
			n.onDequeued(o, pkt.inPort, pkt.arrClass, pkt.Size)
			n.pkts.release(pkt)
			continue
		}
		break
	}
	o.sending = true
	l := o.link
	ser := serTime(pkt.Size, l.bps)
	start := n.Sim.Now()
	if l.busyUntil > start {
		start = l.busyUntil
	}
	l.busyUntil = start + ser
	l.TxBytes += int64(pkt.Size)
	// Capture ingress accounting keys now: pkt.inPort is rewritten by
	// the downstream arrival, which under cut-through fires before our
	// serialisation completes. PFC accounting uses the class the packet
	// ARRIVED with (the wire class its upstream transmits on) — pausing
	// the post-rewrite class would backpressure the wrong queue and can
	// wedge VC-based deadlock avoidance.
	// Sender frees after serialisation.
	n.Sim.Schedule(start+ser, n, engine.Event{
		Kind: evTxDone, Ref: int32(l.id),
		A: int64(pkt.inPort)<<4 | int64(pkt.arrClass), B: int64(pkt.Size),
	})
	// Receiver processing starts once the header is in (cut-through).
	arr := start + l.prop + serTime(min(pkt.Size, HeaderBytes+64), l.bps)
	n.Sim.Schedule(arr, n, engine.Event{Kind: evArrive, Ref: pkt.idx, A: int64(l.id)})
}

// onDequeued updates PFC ingress accounting at the switch that owned
// the queue (if any) when a packet leaves it, and kicks host QP pumps
// when a NIC queue drains.
func (n *Network) onDequeued(o *OutPort, inPort, prio, size int) {
	if o.hostOwner != nil {
		o.hostOwner.nicDrained()
		return
	}
	sw := o.ownerCache
	if sw == nil {
		return
	}
	if inPort <= 0 || inPort >= len(sw.ingressBytes) {
		return
	}
	sw.ingressBytes[inPort][prio] -= size
	if n.Cfg.PFC && sw.pfcSent[inPort][prio] && sw.ingressBytes[inPort][prio] <= pfcXon {
		sw.pfcSent[inPort][prio] = false
		up := sw.upstream[inPort]
		if up != nil {
			// Resume after control-frame propagation.
			n.Sim.Schedule(n.Sim.Now()+n.Cfg.PropDelay+500*Nanosecond, n, engine.Event{
				Kind: evPfcResume, Ref: int32(up.link.id), A: int64(prio),
			})
		}
	}
}

// AwaitDelivery arms fn to run once, at the next RoCE payload delivery
// (the flow-application data path), with that delivery's simulated
// time. Fault repair and reconfiguration restore use it to stamp
// reconvergence; with nothing armed the delivery path pays one length
// test.
func (n *Network) AwaitDelivery(fn func(now Time)) {
	n.awaiting = append(n.awaiting, fn)
}

// deliverAwaited runs and clears the armed delivery callbacks. A
// callback that arms another waits for the delivery after this one.
func (n *Network) deliverAwaited() {
	now, fns := n.Sim.Now(), n.awaiting
	n.awaiting = nil
	for _, fn := range fns {
		fn(now)
	}
}

// SetLinkDown fails (or restores) both directions of a logical edge.
// Cutting a link flushes the queues feeding it — every queued packet
// drops into FaultDrops — and drops in-flight packets at their arrival
// instant. It reports whether the edge exists in this fabric.
func (n *Network) SetLinkDown(edge int, down bool) bool {
	if edge < 0 || 2*edge >= len(n.links) {
		return false
	}
	// NewNetwork wires edge e's two directions at links[2e] and
	// links[2e+1].
	for i := 2 * edge; i < 2*edge+2; i++ {
		l := &n.links[i]
		l.down = down
		// On a cut, drain the feeding queue as fault drops; on a
		// restore, restart transmission (both are no-ops on an idle
		// healthy port).
		n.tryTransmit(l.src)
	}
	return true
}

// LinkIsDown reports whether a logical edge is currently failed (false
// for an edge outside the fabric). It is the one record of link state:
// route repairs read it when they patch around the outage.
func (n *Network) LinkIsDown(edge int) bool {
	return edge >= 0 && 2*edge < len(n.links) && n.links[2*edge].down
}
