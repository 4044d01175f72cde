package shard

import (
	"fmt"
	"runtime"

	"cool/internal/geometry"
	"cool/internal/geometry/grid"
	"cool/internal/netsim"
	"cool/internal/parallel"
	"cool/internal/stats"
)

// NetOptions configures a sharded radio network.
type NetOptions struct {
	// Shards is the requested partition count; <= 0 selects
	// runtime.NumCPU(). The effective count is clamped to the populated
	// cut geometry (EffectiveShards reports it).
	Shards int
	// Workers bounds the goroutines ticking partitions concurrently in
	// Step (<= 0 selects NumCPU; 1 degrades to a plain sequential loop).
	Workers int
	// Loss, MinDelay, MaxDelay, Seed mirror netsim.Config.
	Loss               float64
	MinDelay, MaxDelay int
	Seed               uint64
}

// tx is one queued cross-border broadcast replay, captured at Batch
// time and flushed into the destination partition at the next Step.
type tx struct {
	from    netsim.NodeID
	pos     geometry.Point
	radio   float64
	payload any
}

// netNode is the router's view of one registered node.
type netNode struct {
	home  int
	pos   geometry.Point
	radio float64
}

// Net is the sharded radio medium: the deployment is cut into vertical
// strips (the same cutsFor geometry as the planner), each strip is a
// flat netsim.Network holding exactly its home nodes, and the strips
// tick in lockstep. A broadcast runs locally in the sender's home
// partition via Batch; when the sender's radio disk crosses a cut, the
// broadcast is also queued for every adjacent partition it can reach
// and replayed there via netsim.BatchFrom at the start of the next
// Step — before the tick advances, so SentAt and DeliveredAt match a
// single global core's exactly. Every receiver is registered in exactly
// one partition, so the summed packet counters equal a global run's.
//
// Determinism: with Shards = 1 the single partition is seeded with
// NetOptions.Seed directly and is the global flat core — identical
// trace, counters and RNG draw sequence. With k > 1 each partition owns
// an independent RNG stream (stats.StreamSeed), so under lossless
// fixed-delay configurations the delivery trace is identical to the
// global core's up to the enqueue order within one (tick, receiver)
// bucket — the equivalence tests normalize by sorting each bucket on
// the sender ID. Down transitions must happen at tick boundaries
// (before the tick's sends) to preserve exact equivalence: the foreign
// replay re-checks receiver liveness at flush time, the global core at
// send time.
//
// Net is not safe for concurrent use; only Step fans out internally.
type Net struct {
	cuts    []float64
	cores   []*netsim.Network
	nodes   map[netsim.NodeID]netNode
	queues  [][]tx // queues[d]: replays pending for partition d
	workers int
	// stepOne is built once so the per-tick parallel.For does not
	// allocate a fresh closure (the zero-alloc Step gate).
	stepOne func(s int) error
}

// NewNet partitions the fleet into at most o.Shards strips and builds
// one flat netsim core per strip. The cut geometry is derived from the
// node positions with their radio ranges as reach, so a grid cell side
// is at least the maximum radio range and a broadcast can only reach
// partitions its radio disk overlaps.
func NewNet(specs []netsim.NodeSpec, o NetOptions) (*Net, error) {
	k := o.Shards
	if k <= 0 {
		k = runtime.NumCPU()
	}
	if k > len(specs) {
		k = len(specs)
	}
	if k < 1 {
		k = 1
	}

	var cuts []float64
	if k > 1 {
		items := make([]grid.Item, len(specs))
		xs := make([]float64, len(specs))
		for i, s := range specs {
			items[i] = grid.Item{Pos: grid.Point(s.Pos), Reach: s.Radio}
			xs[i] = s.Pos.X
		}
		cuts = cutsFor(grid.Build(items), xs, k)
	}
	kEff := len(cuts) + 1

	n := &Net{
		cuts:    cuts,
		cores:   make([]*netsim.Network, kEff),
		nodes:   make(map[netsim.NodeID]netNode, len(specs)),
		queues:  make([][]tx, kEff),
		workers: o.Workers,
	}
	var maxRadio float64
	perShard := make([][]netsim.NodeSpec, kEff)
	for _, s := range specs {
		if _, dup := n.nodes[s.ID]; dup {
			return nil, fmt.Errorf("shard: duplicate node %d", s.ID)
		}
		home := homeOf(cuts, s.Pos.X)
		n.nodes[s.ID] = netNode{home: home, pos: s.Pos, radio: s.Radio}
		perShard[home] = append(perShard[home], s)
		if s.Radio > maxRadio {
			maxRadio = s.Radio
		}
	}
	for s := 0; s < kEff; s++ {
		seed := o.Seed
		if kEff > 1 {
			seed = stats.StreamSeed(o.Seed, uint64(s))
		}
		core, err := netsim.NewNetwork(
			netsim.WithLoss(o.Loss),
			netsim.WithDelay(o.MinDelay, o.MaxDelay),
			netsim.WithSeed(seed),
		)
		if err != nil {
			return nil, err
		}
		if err := core.AddNodes(perShard[s]); err != nil {
			return nil, err
		}
		// Foreign transmitters may out-range every local node; widen the
		// index so their replays stay on the grid query path.
		core.ReserveReach(maxRadio)
		n.cores[s] = core
	}
	n.stepOne = func(s int) error {
		n.cores[s].Step()
		return nil
	}
	return n, nil
}

// EffectiveShards returns the partition count after geometric clamping.
func (n *Net) EffectiveShards() int { return len(n.cores) }

// Cuts returns the strip boundaries (ascending x, EffectiveShards-1 of
// them).
func (n *Net) Cuts() []float64 { return append([]float64(nil), n.cuts...) }

// NumNodes returns the registered fleet size.
func (n *Net) NumNodes() int { return len(n.nodes) }

// Batch broadcasts a payload from a node: immediately into its home
// partition, and — when the radio disk crosses a cut — queued for
// replay into every adjacent partition it reaches at the next Step.
// The return value counts the home-partition packets; cross-border
// packets join the Stats counters when their replay flushes (same
// tick, so cumulative counters observed between ticks are exact).
func (n *Net) Batch(from netsim.NodeID, payload any) (int, error) {
	info, ok := n.nodes[from]
	if !ok {
		return 0, fmt.Errorf("%w: %d", netsim.ErrUnknownNode, from)
	}
	home := n.cores[info.home]
	if home.IsDown(from) {
		return 0, nil
	}
	sent, err := home.Batch(from, payload)
	if err != nil {
		return 0, err
	}
	lo := homeOf(n.cuts, info.pos.X-info.radio)
	hi := homeOf(n.cuts, info.pos.X+info.radio)
	for d := lo; d <= hi; d++ {
		if d == info.home {
			continue
		}
		n.queues[d] = append(n.queues[d], tx{from: from, pos: info.pos, radio: info.radio, payload: payload})
	}
	return sent, nil
}

// Step flushes the queued cross-border replays into their destination
// partitions (still at the current tick, so timestamps match a global
// core), then advances every partition one tick, fanned out over
// Workers goroutines. Queue slots are zeroed on flush so retained
// capacity does not pin payload references; in steady state the call
// performs no allocations with Workers = 1.
func (n *Net) Step() {
	for d, q := range n.queues {
		core := n.cores[d]
		for i, t := range q {
			core.BatchFrom(t.from, t.pos, t.radio, t.payload)
			q[i] = tx{}
		}
		n.queues[d] = q[:0]
	}
	parallel.For(n.workers, len(n.cores), n.stepOne)
}

// ReceiveInto drains a node's inbox via its home partition (see
// netsim.Network.ReceiveInto).
func (n *Net) ReceiveInto(id netsim.NodeID, buf []netsim.Message) ([]netsim.Message, error) {
	info, ok := n.nodes[id]
	if !ok {
		return nil, fmt.Errorf("%w: %d", netsim.ErrUnknownNode, id)
	}
	return n.cores[info.home].ReceiveInto(id, buf)
}

// SetDown marks a node failed (or recovered) in its home partition.
func (n *Net) SetDown(id netsim.NodeID, down bool) error {
	info, ok := n.nodes[id]
	if !ok {
		return fmt.Errorf("%w: %d", netsim.ErrUnknownNode, id)
	}
	return n.cores[info.home].SetDown(id, down)
}

// IsDown reports whether a node is currently failed.
func (n *Net) IsDown(id netsim.NodeID) bool {
	info, ok := n.nodes[id]
	return ok && n.cores[info.home].IsDown(id)
}

// Stats sums the partitions' cumulative packet counters. Every receiver
// is registered in exactly one partition, so between ticks the sums
// equal a global core's counters exactly.
func (n *Net) Stats() (sent, delivered, dropped int) {
	for _, c := range n.cores {
		s, d, p := c.Stats()
		sent += s
		delivered += d
		dropped += p
	}
	return sent, delivered, dropped
}
