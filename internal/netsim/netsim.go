// Package netsim provides an in-memory packet-level radio network used
// by the protocol layer: nodes with positions and radio range,
// broadcast/unicast within the radio neighborhood, per-link loss and
// latency, and tick-driven delivery. It is the substrate on which the
// testbed's control-plane protocols (time sync, schedule dissemination,
// data collection) are reproduced.
//
// # Layout
//
// Network is the flat batched core: nodes live in dense parallel slices
// indexed through a NodeID→index table, neighborhoods are served by the
// internal/geometry/grid spatial hash (a query inspects only the 3×3
// cell neighbourhood instead of scanning every node), and the pending
// store is a ring of per-tick flat message buckets bounded by MaxDelay,
// so Step is a single bucket drain with no map traffic and, in steady
// state, no per-message allocation. ReferenceNetwork retains the
// original map-based implementation; the differential harness holds the
// flat core to tick-for-tick identical delivery traces, counters, and
// RNG draws against it.
//
// # API
//
// New networks are built with NewNetwork and functional options
// (WithLoss, WithDelay, WithSeed); bulk fleets register through
// AddNodes. The hot delivery paths are Batch (one neighbor resolution
// and one RNG/loss sweep for a whole broadcast, zero allocations in
// steady state) and ReceiveInto (drain into a caller-owned buffer,
// zero allocations when capacity suffices). AddNode and Receive are
// the single-node conveniences over them.
package netsim

import (
	"errors"
	"fmt"
	"sort"

	"cool/internal/geometry"
	"cool/internal/geometry/grid"
	"cool/internal/stats"
)

// NodeID identifies a node in the radio network.
type NodeID int

// Message is one packet delivered to a node.
type Message struct {
	// From is the transmitting node.
	From NodeID
	// To is the destination (the receiving node; broadcasts are
	// expanded into one message per neighbor).
	To NodeID
	// Payload is the protocol-defined content.
	Payload any
	// SentAt and DeliveredAt are network ticks.
	SentAt, DeliveredAt int
}

// NodeSpec describes one node for bulk registration via AddNodes.
type NodeSpec struct {
	// ID identifies the node; IDs must be unique.
	ID NodeID
	// Pos is the node's position.
	Pos geometry.Point
	// Radio is the node's transmission range (> 0).
	Radio float64
}

// Config tunes the radio medium. NewNetwork fills it from functional
// options; NewReference takes it directly.
type Config struct {
	// Loss is the independent per-link drop probability in [0, 1).
	Loss float64
	// MinDelay and MaxDelay bound the per-packet delivery latency in
	// ticks (defaults 1 and 1: next-tick delivery).
	MinDelay, MaxDelay int
	// Seed drives loss and jitter.
	Seed uint64
}

func (c *Config) defaults() error {
	if c.Loss < 0 || c.Loss >= 1 {
		return fmt.Errorf("netsim: loss %v outside [0,1)", c.Loss)
	}
	if c.MinDelay == 0 {
		c.MinDelay = 1
	}
	if c.MaxDelay == 0 {
		c.MaxDelay = c.MinDelay
	}
	if c.MinDelay < 1 || c.MaxDelay < c.MinDelay {
		return fmt.Errorf("netsim: bad delay range [%d, %d]", c.MinDelay, c.MaxDelay)
	}
	return nil
}

// Option configures a network built by NewNetwork.
type Option func(*Config)

// WithLoss sets the independent per-link drop probability in [0, 1).
func WithLoss(p float64) Option { return func(c *Config) { c.Loss = p } }

// WithDelay bounds the per-packet delivery latency to [min, max] ticks
// (min ≥ 1; packets are never delivered on the tick they are sent).
func WithDelay(min, max int) Option {
	return func(c *Config) { c.MinDelay, c.MaxDelay = min, max }
}

// WithSeed seeds the loss and jitter randomness.
func WithSeed(seed uint64) Option { return func(c *Config) { c.Seed = seed } }

// Network is the simulated radio medium: the flat batched core (see the
// package comment for the layout). It is not safe for concurrent use;
// the protocol layer drives it from a single goroutine, matching the
// deterministic-simulation idiom.
type Network struct {
	cfg Config
	rng *stats.RNG

	// Dense node storage, parallel slices in insertion order.
	ids   []NodeID
	pos   []geometry.Point
	radio []float64
	down  []bool
	inbox [][]Message
	idx   map[NodeID]int32 // NodeID → dense index

	// byID lists dense indices in ascending NodeID order; it defines
	// the deterministic neighborhood and BFS enumeration order.
	byID []int32

	// Spatial hash over node positions: item k of the index is the node
	// at dense index byID[k], every item carrying Reach = maxRadio so a
	// query point within any node's transmission range is guaranteed to
	// see that node among its candidates. nil marks the index stale
	// (nodes were added); it is rebuilt lazily on the next neighborhood
	// query.
	index    *grid.Index
	maxRadio float64
	gridBuf  []int32 // candidate scratch (grid item indices)
	neighBuf []int32 // neighbor scratch (dense indices, ascending NodeID)

	// ring is the pending store: bucket (t % len(ring)) holds the
	// messages due at tick t. len(ring) = MaxDelay+1 and MinDelay ≥ 1,
	// so an enqueue at tick now can never land in the bucket being
	// drained; buckets are truncated (not freed) on drain so steady
	// state appends into retained capacity.
	ring [][]Message
	now  int

	// counters
	sent, delivered, dropped int

	// Connected scratch
	visited []bool
	queue   []int32
}

// NewNetwork builds an empty network configured by options, e.g.
//
//	net, err := netsim.NewNetwork(netsim.WithLoss(0.2), netsim.WithSeed(7))
//
// The defaults are lossless next-tick delivery with seed 0.
func NewNetwork(opts ...Option) (*Network, error) {
	var cfg Config
	for _, o := range opts {
		o(&cfg)
	}
	return newNetwork(cfg)
}

func newNetwork(cfg Config) (*Network, error) {
	if err := cfg.defaults(); err != nil {
		return nil, err
	}
	return &Network{
		cfg:  cfg,
		rng:  stats.NewRNG(cfg.Seed),
		idx:  make(map[NodeID]int32),
		ring: make([][]Message, cfg.MaxDelay+1),
	}, nil
}

// validateSpec rejects a spec that cannot join the network.
func (n *Network) validateSpec(s NodeSpec) error {
	if _, ok := n.idx[s.ID]; ok {
		return fmt.Errorf("netsim: duplicate node %d", s.ID)
	}
	if s.Radio <= 0 {
		return fmt.Errorf("netsim: node %d has non-positive radio range %v", s.ID, s.Radio)
	}
	return nil
}

// appendNode appends a validated spec to the dense arrays (byID and the
// spatial index are the caller's responsibility).
func (n *Network) appendNode(s NodeSpec) int32 {
	di := int32(len(n.ids))
	n.ids = append(n.ids, s.ID)
	n.pos = append(n.pos, s.Pos)
	n.radio = append(n.radio, s.Radio)
	n.down = append(n.down, false)
	n.inbox = append(n.inbox, nil)
	n.idx[s.ID] = di
	if s.Radio > n.maxRadio {
		n.maxRadio = s.Radio
	}
	return di
}

// AddNode registers a single node with a position and radio range. The
// node is spliced into the sorted ID order in place (binary search +
// shift); bulk registration should prefer AddNodes, which sorts once.
func (n *Network) AddNode(id NodeID, pos geometry.Point, radioRange float64) error {
	s := NodeSpec{ID: id, Pos: pos, Radio: radioRange}
	if err := n.validateSpec(s); err != nil {
		return err
	}
	di := n.appendNode(s)
	at := sort.Search(len(n.byID), func(i int) bool { return n.ids[n.byID[i]] >= id })
	n.byID = append(n.byID, 0)
	copy(n.byID[at+1:], n.byID[at:])
	n.byID[at] = di
	n.index = nil
	return nil
}

// AddNodes bulk-registers a fleet. Validation happens before any
// mutation (the call is atomic: either every spec joins or none does),
// and the sorted ID order is rebuilt with a single sort instead of one
// insertion per node, making registration O(k log k) for k nodes.
func (n *Network) AddNodes(specs []NodeSpec) error {
	if len(specs) == 0 {
		return nil
	}
	seen := make(map[NodeID]struct{}, len(specs))
	for _, s := range specs {
		if err := n.validateSpec(s); err != nil {
			return err
		}
		if _, dup := seen[s.ID]; dup {
			return fmt.Errorf("netsim: duplicate node %d", s.ID)
		}
		seen[s.ID] = struct{}{}
	}
	for _, s := range specs {
		n.appendNode(s)
	}
	n.byID = n.byID[:0]
	for di := range n.ids {
		n.byID = append(n.byID, int32(di))
	}
	sort.Slice(n.byID, func(i, j int) bool { return n.ids[n.byID[i]] < n.ids[n.byID[j]] })
	n.index = nil
	return nil
}

// ensureIndex (re)builds the spatial hash after node additions. Items
// are enumerated in ascending NodeID order so grid candidates — which
// ascend by item index — map to ascending NodeIDs without re-sorting.
func (n *Network) ensureIndex() {
	if n.index != nil {
		return
	}
	items := make([]grid.Item, len(n.byID))
	for k, di := range n.byID {
		items[k] = grid.Item{Pos: grid.Point(n.pos[di]), Reach: n.maxRadio}
	}
	n.index = grid.Build(items)
}

// neighborIndices returns the dense indices of the up nodes within
// radio range of the (up) node at dense index si, ascending by NodeID.
// The returned slice aliases an internal scratch buffer: it is valid
// until the next neighborhood query.
func (n *Network) neighborIndices(si int32) []int32 {
	out := n.neighBuf[:0]
	if n.down[si] {
		n.neighBuf = out
		return out
	}
	n.ensureIndex()
	n.gridBuf = n.index.CandidatesInto(n.gridBuf, grid.Point(n.pos[si]))
	sp, sr := n.pos[si], n.radio[si]
	for _, k := range n.gridBuf {
		di := n.byID[k]
		if di == si || n.down[di] {
			continue
		}
		if sp.Dist(n.pos[di]) <= sr {
			out = append(out, di)
		}
	}
	n.neighBuf = out
	return out
}

// Now returns the current tick.
func (n *Network) Now() int { return n.now }

// NumNodes returns the number of registered nodes.
func (n *Network) NumNodes() int { return len(n.ids) }

// Neighbors returns the nodes within radio range of id (symmetric links
// require both radios to reach; we use the transmitter's range, the
// usual unit-disk model), ascending by node ID. A down node has no
// neighbors. The slice is freshly allocated; the hot paths (Batch,
// Connected) use the internal zero-alloc query instead.
func (n *Network) Neighbors(id NodeID) ([]NodeID, error) {
	si, ok := n.idx[id]
	if !ok {
		return nil, fmt.Errorf("%w: %d", ErrUnknownNode, id)
	}
	neigh := n.neighborIndices(si)
	if len(neigh) == 0 {
		return nil, nil
	}
	out := make([]NodeID, len(neigh))
	for k, di := range neigh {
		out[k] = n.ids[di]
	}
	return out, nil
}

// SetDown marks a node failed (or recovered). A down node neither
// sends nor receives: its queued deliveries are silently dropped and it
// disappears from every neighborhood until brought back up.
func (n *Network) SetDown(id NodeID, down bool) error {
	di, ok := n.idx[id]
	if !ok {
		return fmt.Errorf("%w: %d", ErrUnknownNode, id)
	}
	n.down[di] = down
	if down {
		n.clearInbox(di)
	}
	return nil
}

// clearInbox empties a node's inbox, zeroing the vacated entries so the
// retained backing array does not pin payload references.
func (n *Network) clearInbox(di int32) {
	box := n.inbox[di]
	for i := range box {
		box[i] = Message{}
	}
	n.inbox[di] = box[:0]
}

// IsDown reports whether a node is currently failed.
func (n *Network) IsDown(id NodeID) bool {
	di, ok := n.idx[id]
	return ok && n.down[di]
}

// Connected reports whether the radio graph is connected (every node —
// including down ones — reachable from the lowest-ID node), a
// precondition for dissemination and collection to terminate. Down
// nodes relay nothing, so any down node in a multi-node network makes
// it disconnected.
func (n *Network) Connected() bool {
	nn := len(n.ids)
	if nn <= 1 {
		return true
	}
	if cap(n.visited) < nn {
		n.visited = make([]bool, nn)
	}
	n.visited = n.visited[:nn]
	for i := range n.visited {
		n.visited[i] = false
	}
	start := n.byID[0]
	n.queue = append(n.queue[:0], start)
	n.visited[start] = true
	reached := 1
	for head := 0; head < len(n.queue); head++ {
		cur := n.queue[head]
		for _, di := range n.neighborIndices(cur) {
			if !n.visited[di] {
				n.visited[di] = true
				reached++
				n.queue = append(n.queue, di)
			}
		}
	}
	return reached == nn
}

// enqueue schedules delivery of one message with loss and jitter. The
// RNG draw sequence (one Bernoulli per packet, one Intn only when the
// delay range is non-trivial) is the package contract: the reference
// implementation draws identically, which is what makes seeded runs of
// the two cores byte-comparable.
func (n *Network) enqueue(m Message) {
	n.sent++
	if n.rng.Bernoulli(n.cfg.Loss) {
		n.dropped++
		return
	}
	delay := n.cfg.MinDelay
	if n.cfg.MaxDelay > n.cfg.MinDelay {
		delay += n.rng.Intn(n.cfg.MaxDelay - n.cfg.MinDelay + 1)
	}
	m.DeliveredAt = n.now + delay
	slot := m.DeliveredAt % len(n.ring)
	n.ring[slot] = append(n.ring[slot], m)
}

// Batch transmits a payload to every radio neighbor of from in one
// flat sweep — a single neighborhood resolution and a single RNG/loss
// pass over the whole broadcast — and returns how many packets were
// enqueued (the sent count; lost packets still count as sent). In
// steady state Batch performs no allocations: the neighbor scratch and
// the ring buckets retain their capacity across ticks.
func (n *Network) Batch(from NodeID, payload any) (int, error) {
	si, ok := n.idx[from]
	if !ok {
		return 0, fmt.Errorf("%w: %d", ErrUnknownNode, from)
	}
	neigh := n.neighborIndices(si)
	for _, di := range neigh {
		n.enqueue(Message{From: from, To: n.ids[di], Payload: payload, SentAt: n.now})
	}
	return len(neigh), nil
}

// ReserveReach widens the spatial index's query reach to at least r,
// as if a node with radio range r were registered. Sharded simulations
// use it so that BatchFrom injections from foreign transmitters — whose
// radio range may exceed every local node's — stay on the O(local)
// grid-query path instead of the linear fallback. Idempotent; a no-op
// when r does not exceed the current maximum radio range.
func (n *Network) ReserveReach(r float64) {
	if r > n.maxRadio {
		n.maxRadio = r
		n.index = nil
	}
}

// BatchFrom injects a broadcast from an external transmitter that is
// not registered in this network: every up node within radio of pos
// receives the payload with the same loss/delay treatment as a local
// Batch, attributed to the given source ID. It returns the number of
// packets enqueued. Registered nodes with the transmitter's own ID are
// skipped (matching Batch's self-exclusion), so replaying a node's
// broadcast into a partition that also holds it cannot double-deliver.
//
// The sharded radio core uses BatchFrom for halo exchange: a border
// node's broadcast is executed locally in its home partition via Batch
// and replayed into each adjacent partition via BatchFrom, which keeps
// the summed packet counters exactly equal to a global network's —
// every receiver is registered in exactly one partition. When radio
// exceeds the index reach (see ReserveReach) the query degrades to a
// linear scan over all nodes; with a reserved reach it stays O(local
// density). In steady state the call performs no allocations.
func (n *Network) BatchFrom(from NodeID, pos geometry.Point, radio float64, payload any) int {
	out := n.neighBuf[:0]
	if radio > 0 && radio <= n.maxRadio {
		n.ensureIndex()
		n.gridBuf = n.index.CandidatesInto(n.gridBuf, grid.Point(pos))
		for _, k := range n.gridBuf {
			di := n.byID[k]
			if n.down[di] || n.ids[di] == from {
				continue
			}
			if pos.Dist(n.pos[di]) <= radio {
				out = append(out, di)
			}
		}
	} else if radio > 0 {
		for _, di := range n.byID {
			if n.down[di] || n.ids[di] == from {
				continue
			}
			if pos.Dist(n.pos[di]) <= radio {
				out = append(out, di)
			}
		}
	}
	n.neighBuf = out
	for _, di := range out {
		n.enqueue(Message{From: from, To: n.ids[di], Payload: payload, SentAt: n.now})
	}
	return len(out)
}

// Broadcast transmits a payload to every radio neighbor of from. It is
// a thin wrapper over Batch.
func (n *Network) Broadcast(from NodeID, payload any) error {
	_, err := n.Batch(from, payload)
	return err
}

// Send transmits a payload to a specific neighbor. It returns an error
// when the destination is not within radio range (or either endpoint is
// down). Unlike the reference's neighborhood scan, the check is a
// single O(1) distance test.
func (n *Network) Send(from, to NodeID, payload any) error {
	si, ok := n.idx[from]
	if !ok {
		return fmt.Errorf("%w: %d", ErrUnknownNode, from)
	}
	di, ok := n.idx[to]
	if !ok || di == si || n.down[si] || n.down[di] ||
		n.pos[si].Dist(n.pos[di]) > n.radio[si] {
		return fmt.Errorf("netsim: node %d cannot reach %d", from, to)
	}
	n.enqueue(Message{From: from, To: to, Payload: payload, SentAt: n.now})
	return nil
}

// Step advances the network by one tick: a single drain of the due ring
// bucket into the destinations' inboxes, in enqueue order.
func (n *Network) Step() {
	n.now++
	slot := n.now % len(n.ring)
	due := n.ring[slot]
	for i, m := range due {
		di, ok := n.idx[m.To]
		if !ok || n.down[di] {
			n.dropped++
		} else {
			n.inbox[di] = append(n.inbox[di], m)
			n.delivered++
		}
		due[i] = Message{} // release the payload reference
	}
	n.ring[slot] = due[:0]
}

// ReceiveInto drains the inbox of a node into buf[:0] and returns the
// extended slice. When buf has sufficient capacity the call performs no
// allocations; the internal inbox retains its capacity (entries are
// zeroed so payload references are released). Delivery order is the
// enqueue order of the due ticks.
func (n *Network) ReceiveInto(id NodeID, buf []Message) ([]Message, error) {
	di, ok := n.idx[id]
	if !ok {
		return nil, fmt.Errorf("%w: %d", ErrUnknownNode, id)
	}
	buf = append(buf[:0], n.inbox[di]...)
	n.clearInbox(di)
	return buf, nil
}

// Receive drains and returns the inbox of a node. It is a thin wrapper
// over ReceiveInto that allocates a fresh slice (nil when the inbox is
// empty); hot paths should call ReceiveInto with a reused buffer.
func (n *Network) Receive(id NodeID) ([]Message, error) {
	return n.ReceiveInto(id, nil)
}

// Stats returns cumulative (sent, delivered, dropped) packet counts.
// Sent counts per-receiver transmissions (a broadcast to k neighbors
// counts k).
func (n *Network) Stats() (sent, delivered, dropped int) {
	return n.sent, n.delivered, n.dropped
}

// ErrUnknownNode is a sentinel for lookups of unregistered nodes.
var ErrUnknownNode = errors.New("netsim: unknown node")

// Position returns a node's position.
func (n *Network) Position(id NodeID) (geometry.Point, error) {
	di, ok := n.idx[id]
	if !ok {
		return geometry.Point{}, fmt.Errorf("%w: %d", ErrUnknownNode, id)
	}
	return n.pos[di], nil
}
