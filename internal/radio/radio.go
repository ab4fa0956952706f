// Package radio models the wireless medium as a unit-disc graph: two
// nodes can exchange link-layer frames iff their distance is at most the
// transmission range (the paper uses 10 m). Frames are delivered after a
// small per-hop latency with optional jitter and loss, and every transmit
// and receive debits the sender's/receiver's battery, which is what makes
// the paper's message-count metrics proxies for network lifetime.
//
// The medium deliberately omits MAC-level contention and capture effects:
// the paper's metrics are message counts and hop distances, which are
// insensitive to MAC timing (see EXPERIMENTS.md, substitutions).
package radio

import (
	"fmt"

	"manetp2p/internal/geom"
	"manetp2p/internal/netif"
	"manetp2p/internal/sim"
)

// BroadcastAddr addresses a frame to every node in range of the sender.
const BroadcastAddr = -1

// Frame is one link-layer transmission unit. The payload travels by
// value — relaying or queueing a frame never touches the heap.
type Frame struct {
	Src     int          // transmitting node
	Dst     int          // receiving node or BroadcastAddr
	Size    int          // bytes on air, for energy/traffic accounting
	Payload netif.Packet // upper-layer packet; never inspected by the medium
}

// Receiver is the upper-layer hook invoked on frame arrival.
type Receiver func(f Frame)

// LinkFilter vets each would-be frame delivery; returning true drops it
// (counted in the receiver's Gated stat). Installed by the fault
// injector to gate links (partitions, flaps) or to stack extra loss
// (jamming, loss bursts) on top of the medium's own LossProb.
type LinkFilter func(src, dst int) bool

// Config sets the physical parameters of the medium.
type Config struct {
	Arena    geom.Rect // simulation area
	Range    float64   // transmission range, metres
	NumNodes int       // node IDs are [0, NumNodes)
	Latency  sim.Time  // fixed per-hop delivery delay
	Jitter   sim.Time  // extra uniform [0, Jitter] per delivery
	LossProb float64   // independent per-delivery drop probability
	Energy   EnergyConfig
}

// Validate reports a descriptive error for out-of-range parameters.
func (c Config) Validate() error {
	switch {
	case c.Arena.W <= 0 || c.Arena.H <= 0:
		return fmt.Errorf("radio: arena %vx%v not positive", c.Arena.W, c.Arena.H)
	case c.Range <= 0:
		return fmt.Errorf("radio: range %v not positive", c.Range)
	case c.NumNodes <= 0:
		return fmt.Errorf("radio: NumNodes %d not positive", c.NumNodes)
	case c.Latency < 0 || c.Jitter < 0:
		return fmt.Errorf("radio: negative latency/jitter")
	case c.LossProb < 0 || c.LossProb >= 1:
		return fmt.Errorf("radio: loss probability %v outside [0,1)", c.LossProb)
	}
	return nil
}

// Stats aggregates per-node medium usage. The counters satisfy a
// conservation law the invariant checker validates: every delivery
// attempted toward a node is gated, dropped, or queued, and every queued
// delivery is received, lost to the receiver being down, or still in
// flight — Queued == RxFrames + LostDown + in-flight.
type Stats struct {
	TxFrames uint64
	RxFrames uint64
	TxBytes  uint64
	RxBytes  uint64
	Dropped  uint64 // deliveries lost to LossProb
	Gated    uint64 // deliveries dropped by the installed LinkFilter
	Queued   uint64 // deliveries queued toward this node (post-gate, post-loss)
	LostDown uint64 // queued deliveries that arrived while the node was down
}

// Medium is the shared wireless channel. Not safe for concurrent use;
// one Medium belongs to one Sim.
type Medium struct {
	cfg  Config
	sim  *sim.Sim
	grid *geom.Grid
	rng  interface{ Float64() float64 }
	jrng interface{ Int63n(int64) int64 }

	recv    []Receiver
	filter  LinkFilter
	up      []bool
	stats   []Stats
	battery []*Battery
	onDeath func(id int)

	scratch  []int // Neighbors/Degree query buffer
	bscratch []int // broadcast fan-out buffer; see the note in Send

	// In-flight deliveries: each is one ordinary kernel event whose
	// sim.Arg carries a slot index into this slab. The frame stays off
	// the event so the kernel heap sifts pointers, not 200+-byte
	// value-typed packets. Slot indices are stable across slab growth,
	// so a held index survives reentrant Sends from a receive callback;
	// pointers into the slab do not.
	slots    []slot
	freeIdx  []int // recycled slab slots
	arriveFn func(sim.Arg)
}

// slot is one in-flight delivery: frame f bound for node to. A free
// slot has to < 0, which lets InFlightTo count live slots directly.
type slot struct {
	to int
	f  Frame
}

// putFrame parks an in-flight frame bound for node to in the slab and
// returns its slot index.
func (m *Medium) putFrame(f Frame, to int) int {
	if n := len(m.freeIdx); n > 0 {
		idx := m.freeIdx[n-1]
		m.freeIdx = m.freeIdx[:n-1]
		m.slots[idx] = slot{to: to, f: f}
		return idx
	}
	m.slots = append(m.slots, slot{to: to, f: f})
	return len(m.slots) - 1
}

// releaseFrame recycles a slab slot, dropping the payload's slice
// references so the frame does not pin memory while the slot sits free.
func (m *Medium) releaseFrame(idx int) {
	m.slots[idx] = slot{to: -1}
	m.freeIdx = append(m.freeIdx, idx)
}

// NewMedium creates the medium; all nodes start down (not placed) until
// Join is called for them.
func NewMedium(s *sim.Sim, cfg Config) (*Medium, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	m := &Medium{
		cfg:     cfg,
		sim:     s,
		grid:    geom.NewGrid(cfg.Arena, cfg.Range, cfg.NumNodes),
		rng:     s.NewRand(),
		jrng:    s.NewRand(),
		recv:    make([]Receiver, cfg.NumNodes),
		up:      make([]bool, cfg.NumNodes),
		stats:   make([]Stats, cfg.NumNodes),
		battery: make([]*Battery, cfg.NumNodes),
	}
	for i := range m.battery {
		m.battery[i] = NewBattery(cfg.Energy)
	}
	m.arriveFn = m.arrive
	return m, nil
}

// Join places node id at p and installs its receive callback. Joining a
// node that is already up panics.
func (m *Medium) Join(id int, p geom.Point, r Receiver) {
	if m.up[id] {
		panic(fmt.Sprintf("radio: Join of already-up node %d", id))
	}
	if r == nil {
		panic("radio: Join with nil receiver")
	}
	m.up[id] = true
	m.recv[id] = r
	m.grid.Insert(id, p)
}

// Leave removes node id from the air (death, churn). In-flight frames
// addressed to it are silently lost. Leaving a down node is a no-op.
func (m *Medium) Leave(id int) {
	if !m.up[id] {
		return
	}
	m.up[id] = false
	m.grid.Remove(id)
}

// Up reports whether node id is currently on the air.
func (m *Medium) Up(id int) bool { return m.up[id] }

// SetPos moves node id (driven by the mobility tick).
func (m *Medium) SetPos(id int, p geom.Point) {
	if m.up[id] {
		m.grid.Move(id, p)
	}
}

// Pos returns the last set position of node id.
func (m *Medium) Pos(id int) geom.Point { return m.grid.Pos(id) }

// InRange reports whether a and b are both up and within range.
func (m *Medium) InRange(a, b int) bool {
	return m.up[a] && m.up[b] && m.grid.Pos(a).Dist2(m.grid.Pos(b)) <= m.cfg.Range*m.cfg.Range
}

// Neighbors appends to dst the up nodes within range of id and returns
// the extended slice.
func (m *Medium) Neighbors(dst []int, id int) []int {
	if !m.up[id] {
		return dst
	}
	return m.grid.Near(dst, m.grid.Pos(id), m.cfg.Range, id)
}

// Degree reports the number of current radio neighbors of id.
func (m *Medium) Degree(id int) int {
	m.scratch = m.Neighbors(m.scratch[:0], id)
	return len(m.scratch)
}

// Stats returns medium usage counters for node id.
func (m *Medium) Stats(id int) Stats { return m.stats[id] }

// Battery returns node id's battery for inspection.
func (m *Medium) Battery(id int) *Battery { return m.battery[id] }

// OnDeath installs a callback invoked when a node's battery empties.
func (m *Medium) OnDeath(fn func(id int)) { m.onDeath = fn }

// SetLinkFilter installs (or, with nil, removes) the per-delivery gate.
// The filter runs at transmit time, once per receiver.
//
// Reentrancy contract: the filter runs inside Send, so it may query the
// medium (Neighbors, Degree, InRange, Pos, Up) but must not mutate it —
// no Send, Join, Leave or SetPos — and must not draw from simulation RNG
// streams it does not own.
func (m *Medium) SetLinkFilter(f LinkFilter) { m.filter = f }

// InFlight reports how many deliveries are currently queued in the air.
func (m *Medium) InFlight() int { return len(m.slots) - len(m.freeIdx) }

// InFlightTo fills dst with the per-destination counts of in-flight
// deliveries and returns it, growing dst to NumNodes if needed (pass nil
// for a fresh slice). Used by the invariant checker to close the
// per-node conservation law.
func (m *Medium) InFlightTo(dst []uint64) []uint64 {
	if len(dst) < m.cfg.NumNodes {
		dst = make([]uint64, m.cfg.NumNodes)
	}
	for i := range dst {
		dst[i] = 0
	}
	for i := range m.slots {
		if to := m.slots[i].to; to >= 0 {
			dst[to]++
		}
	}
	return dst
}

// Range returns the configured transmission range in metres.
func (m *Medium) Range() float64 { return m.cfg.Range }

// NumNodes returns the node-ID space size.
func (m *Medium) NumNodes() int { return m.cfg.NumNodes }

// Send transmits a frame. For unicast the destination must be in range at
// transmit time or the frame is lost (returns 0). For Dst ==
// BroadcastAddr the frame is delivered to every in-range node. It returns
// the number of receivers the frame was queued for (pre-loss). Sending
// from a down node is a silent no-op returning 0: protocol timers can
// race with churn, and that race is real in a MANET.
func (m *Medium) Send(f Frame) int {
	if f.Src < 0 || f.Src >= m.cfg.NumNodes || !m.up[f.Src] {
		return 0
	}
	if f.Size <= 0 {
		panic("radio: Send with non-positive frame size")
	}
	m.stats[f.Src].TxFrames++
	m.stats[f.Src].TxBytes += uint64(f.Size)
	m.spendTx(f.Src, f.Size)

	if f.Dst == BroadcastAddr {
		// The fan-out iterates its own buffer, not m.scratch: deliver runs
		// the installed LinkFilter, which (fault injector) may legally call
		// Neighbors or Degree and would clobber the shared query buffer
		// mid-iteration. The reentrancy contract is documented on
		// SetLinkFilter.
		m.bscratch = m.Neighbors(m.bscratch[:0], f.Src)
		n := 0
		for _, nb := range m.bscratch {
			m.deliver(f, nb)
			n++
		}
		return n
	}
	if f.Dst < 0 || f.Dst >= m.cfg.NumNodes || !m.InRange(f.Src, f.Dst) {
		return 0
	}
	m.deliver(f, f.Dst)
	return 1
}

// deliver queues the frame for arrival at node to after latency+jitter,
// applying the loss probability. Each delivery is one kernel event, so
// same-instant arrivals interleave with other events in scheduling order.
func (m *Medium) deliver(f Frame, to int) {
	if m.filter != nil && m.filter(f.Src, to) {
		m.stats[to].Gated++
		return
	}
	if m.cfg.LossProb > 0 && m.rng.Float64() < m.cfg.LossProb {
		m.stats[to].Dropped++
		return
	}
	delay := m.cfg.Latency
	if m.cfg.Jitter > 0 {
		delay += sim.Time(m.jrng.Int63n(int64(m.cfg.Jitter) + 1))
	}
	m.stats[to].Queued++
	m.sim.ScheduleArg(delay, m.arriveFn, sim.Arg{I0: m.putFrame(f, to)})
}

// arrive completes the delivery parked in slot a.I0. The frame is read
// out of the slab by index at each use — never through a held pointer —
// because the receive callback may Send, growing the slab.
func (m *Medium) arrive(a sim.Arg) {
	idx := a.I0
	to := m.slots[idx].to
	// The receiver may have left or died while the frame was in
	// flight; radio waves do not chase nodes.
	if !m.up[to] {
		m.stats[to].LostDown++
		m.releaseFrame(idx)
		return
	}
	size := m.slots[idx].f.Size
	m.stats[to].RxFrames++
	m.stats[to].RxBytes += uint64(size)
	m.spendRx(to, size)
	if m.up[to] { // spendRx may have killed it
		m.recv[to](m.slots[idx].f)
	}
	m.releaseFrame(idx)
}

func (m *Medium) spendTx(id, size int) {
	if m.battery[id].SpendTx(size) {
		m.kill(id)
	}
}

func (m *Medium) spendRx(id, size int) {
	if m.battery[id].SpendRx(size) {
		m.kill(id)
	}
}

func (m *Medium) kill(id int) {
	if !m.up[id] {
		return
	}
	m.Leave(id)
	if m.onDeath != nil {
		m.onDeath(id)
	}
}
