package netsim

import (
	"testing"
	"time"

	"cool/internal/geometry"
	"cool/internal/stats"
)

// buildFleet registers n nodes on a jittered grid with the given radio
// range via AddNodes and returns the network.
func buildFleet(t testing.TB, n int, radioRange float64, opts ...Option) *Network {
	t.Helper()
	net, err := NewNetwork(opts...)
	if err != nil {
		t.Fatal(err)
	}
	net.AddNodesGrid(t, n, radioRange)
	return net
}

// AddNodesGrid is a test helper placing n nodes on a √n×√n grid with
// 10-unit spacing.
func (n *Network) AddNodesGrid(t testing.TB, count int, radioRange float64) {
	t.Helper()
	side := 1
	for side*side < count {
		side++
	}
	specs := make([]NodeSpec, count)
	for i := range specs {
		specs[i] = NodeSpec{
			ID:    NodeID(i),
			Pos:   geometry.Point{X: float64(i%side) * 10, Y: float64(i/side) * 10},
			Radio: radioRange,
		}
	}
	if err := n.AddNodes(specs); err != nil {
		t.Fatal(err)
	}
}

// TestReceiveIntoAllocations is the allocation-regression gate for the
// delivery drain: with a capacity-sufficient caller buffer, the
// send→step→drain cycle must not allocate at all in steady state —
// the ring buckets, inboxes, and the caller buffer all retain their
// capacity across ticks.
func TestReceiveIntoAllocations(t *testing.T) {
	net := buildFleet(t, 2, 15)
	payload := any("pkt")
	buf := make([]Message, 0, 16)
	// One warm cycle so every backing array reaches steady-state size.
	cycle := func() {
		for k := 0; k < 8; k++ {
			if err := net.Send(0, 1, payload); err != nil {
				t.Fatal(err)
			}
		}
		net.Step()
		var err error
		buf, err = net.ReceiveInto(1, buf)
		if err != nil {
			t.Fatal(err)
		}
		if len(buf) != 8 {
			t.Fatalf("delivered %d of 8", len(buf))
		}
	}
	cycle()
	if a := testing.AllocsPerRun(200, cycle); a != 0 {
		t.Errorf("Send/Step/ReceiveInto cycle allocated %v times per run, want 0", a)
	}
}

// TestBatchAllocations gates the broadcast hot path: after warmup, a
// whole-fleet Batch round (every node broadcasts, one Step, every inbox
// drained) performs zero allocations — the neighbor scratch, the grid
// candidate buffer, the ring buckets, and the inboxes are all reused.
func TestBatchAllocations(t *testing.T) {
	const n = 64
	net := buildFleet(t, n, 15, WithLoss(0.2), WithSeed(7))
	payload := any("beacon")
	buf := make([]Message, 0, 1024)
	round := func() {
		for id := 0; id < n; id++ {
			if _, err := net.Batch(NodeID(id), payload); err != nil {
				t.Fatal(err)
			}
		}
		net.Step()
		for id := 0; id < n; id++ {
			var err error
			buf, err = net.ReceiveInto(NodeID(id), buf)
			if err != nil {
				t.Fatal(err)
			}
		}
	}
	round() // warm every bucket and inbox
	if a := testing.AllocsPerRun(100, round); a != 0 {
		t.Errorf("Batch round allocated %v times per run, want 0", a)
	}
}

// TestAddNodesBulkBudget is the regression gate for the bulk
// registration bug: AddNode used to re-sort the entire order slice on
// every insertion (O(n² log n) for a fleet of n). Registering 10⁴
// nodes through AddNodes (sort once) and through repeated AddNode
// (in-place insertion) must both complete in interactive time; the
// budgets are generous multiples of the measured cost so the gate only
// trips on an algorithmic regression.
func TestAddNodesBulkBudget(t *testing.T) {
	const n = 10000
	rng := stats.NewRNG(42)
	perm := rng.Perm(n) // shuffled IDs so the single sort actually works
	specs := make([]NodeSpec, n)
	for i := range specs {
		specs[i] = NodeSpec{
			ID:    NodeID(perm[i]),
			Pos:   geometry.Point{X: rng.Float64() * 1000, Y: rng.Float64() * 1000},
			Radio: 25,
		}
	}

	start := time.Now()
	net, err := NewNetwork()
	if err != nil {
		t.Fatal(err)
	}
	if err := net.AddNodes(specs); err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Errorf("AddNodes(%d) took %v, budget 2s", n, elapsed)
	}
	if net.NumNodes() != n {
		t.Fatalf("registered %d of %d", net.NumNodes(), n)
	}
	// byID must be ascending after the bulk sort.
	for k := 1; k < len(net.byID); k++ {
		if net.ids[net.byID[k-1]] >= net.ids[net.byID[k]] {
			t.Fatalf("byID not strictly ascending at %d", k)
		}
	}

	// The incremental path stays in budget too (in-place insertion, no
	// per-insert full sort).
	start = time.Now()
	one, err := NewNetwork()
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range specs {
		if err := one.AddNode(s.ID, s.Pos, s.Radio); err != nil {
			t.Fatal(err)
		}
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Errorf("%d AddNode calls took %v, budget 5s", n, elapsed)
	}

	// Both registration orders define the same neighborhood enumeration.
	probe := specs[n/2].ID
	a, err := net.Neighbors(probe)
	if err != nil {
		t.Fatal(err)
	}
	b, err := one.Neighbors(probe)
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != len(b) {
		t.Fatalf("bulk vs incremental neighborhoods differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("bulk vs incremental neighborhoods differ at %d: %v vs %v", i, a[i], b[i])
		}
	}

	// Allocation budget: bulk registration allocates O(log n) slice
	// growths plus the ID map, far below one allocation per node.
	fresh := make([]NodeSpec, n)
	copy(fresh, specs)
	if a := testing.AllocsPerRun(3, func() {
		net, err := NewNetwork()
		if err != nil {
			t.Fatal(err)
		}
		if err := net.AddNodes(fresh); err != nil {
			t.Fatal(err)
		}
	}); a > n/2 {
		t.Errorf("AddNodes(%d) allocated %v times per run, want ≤ %d", n, a, n/2)
	}
}

// BenchmarkNetsimBatch measures the flat core's broadcast round on a
// 1024-node fleet: every node Batch-broadcasts, one Step, every inbox
// drained through ReceiveInto.
func BenchmarkNetsimBatch(b *testing.B) {
	const n = 1024
	net := buildFleet(b, n, 15, WithLoss(0.1), WithSeed(1))
	payload := any("beacon")
	buf := make([]Message, 0, 4096)
	packets := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for id := 0; id < n; id++ {
			sent, err := net.Batch(NodeID(id), payload)
			if err != nil {
				b.Fatal(err)
			}
			packets += sent
		}
		net.Step()
		for id := 0; id < n; id++ {
			var err error
			buf, err = net.ReceiveInto(NodeID(id), buf)
			if err != nil {
				b.Fatal(err)
			}
		}
	}
	b.ReportMetric(float64(packets)/float64(b.N), "packets/op")
}

// BenchmarkNetsimReference is the same round on the retained map-based
// reference network; its ratio to BenchmarkNetsimBatch is the flat
// core's speedup.
func BenchmarkNetsimReference(b *testing.B) {
	const n = 1024
	net, err := NewReference(Config{Loss: 0.1, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	side := 32
	for i := 0; i < n; i++ {
		pos := geometry.Point{X: float64(i%side) * 10, Y: float64(i/side) * 10}
		if err := net.AddNode(NodeID(i), pos, 15); err != nil {
			b.Fatal(err)
		}
	}
	payload := any("beacon")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for id := 0; id < n; id++ {
			if err := net.Broadcast(NodeID(id), payload); err != nil {
				b.Fatal(err)
			}
		}
		net.Step()
		for id := 0; id < n; id++ {
			if _, err := net.Receive(NodeID(id)); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkNetsimAddNodes measures bulk registration of 10⁴ nodes.
func BenchmarkNetsimAddNodes(b *testing.B) {
	const n = 10000
	specs := make([]NodeSpec, n)
	for i := range specs {
		specs[i] = NodeSpec{
			ID:    NodeID(i),
			Pos:   geometry.Point{X: float64(i%100) * 10, Y: float64(i/100) * 10},
			Radio: 25,
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		net, err := NewNetwork()
		if err != nil {
			b.Fatal(err)
		}
		if err := net.AddNodes(specs); err != nil {
			b.Fatal(err)
		}
	}
}
