package netsim

import (
	"errors"
	"testing"

	"cool/internal/geometry"
)

// radio is the method set shared by the flat core and the retained
// reference implementation; the behavioural tests below run against
// both so the two cannot drift apart.
type radio interface {
	AddNode(NodeID, geometry.Point, float64) error
	AddNodes([]NodeSpec) error
	Neighbors(NodeID) ([]NodeID, error)
	SetDown(NodeID, bool) error
	IsDown(NodeID) bool
	Connected() bool
	Broadcast(NodeID, any) error
	Batch(NodeID, any) (int, error)
	Send(NodeID, NodeID, any) error
	Step()
	Receive(NodeID) ([]Message, error)
	ReceiveInto(NodeID, []Message) ([]Message, error)
	Stats() (sent, delivered, dropped int)
	Now() int
	NumNodes() int
	Position(NodeID) (geometry.Point, error)
}

// impls enumerates the two network constructors under test.
var impls = []struct {
	name string
	make func(Config) (radio, error)
}{
	{"flat", func(cfg Config) (radio, error) { return newNetwork(cfg) }},
	{"reference", func(cfg Config) (radio, error) { return NewReference(cfg) }},
}

// forEachImpl runs f once per implementation as a named subtest.
func forEachImpl(t *testing.T, cfg Config, f func(t *testing.T, net radio)) {
	t.Helper()
	for _, im := range impls {
		im := im
		t.Run(im.name, func(t *testing.T) {
			net, err := im.make(cfg)
			if err != nil {
				t.Fatal(err)
			}
			f(t, net)
		})
	}
}

func lineNetworkOn(t *testing.T, net radio, spacing float64, n int, radioRange float64) {
	t.Helper()
	for i := 0; i < n; i++ {
		if err := net.AddNode(NodeID(i), geometry.Point{X: float64(i) * spacing}, radioRange); err != nil {
			t.Fatal(err)
		}
	}
}

func TestConfigValidation(t *testing.T) {
	for _, im := range impls {
		t.Run(im.name, func(t *testing.T) {
			if _, err := im.make(Config{Loss: -0.1}); err == nil {
				t.Error("negative loss accepted")
			}
			if _, err := im.make(Config{Loss: 1}); err == nil {
				t.Error("loss=1 accepted")
			}
			if _, err := im.make(Config{MinDelay: 3, MaxDelay: 1}); err == nil {
				t.Error("inverted delays accepted")
			}
			if _, err := im.make(Config{MinDelay: -1, MaxDelay: -1}); err == nil {
				t.Error("negative delays accepted")
			}
		})
	}
}

func TestOptionsConstructor(t *testing.T) {
	if _, err := NewNetwork(WithLoss(-0.1)); err == nil {
		t.Error("negative loss accepted")
	}
	if _, err := NewNetwork(WithDelay(3, 1)); err == nil {
		t.Error("inverted delays accepted")
	}
	net, err := NewNetwork(WithLoss(0.25), WithDelay(2, 5), WithSeed(99))
	if err != nil {
		t.Fatal(err)
	}
	want := Config{Loss: 0.25, MinDelay: 2, MaxDelay: 5, Seed: 99}
	if net.cfg != want {
		t.Errorf("cfg = %+v, want %+v", net.cfg, want)
	}
	// The options constructor must behave byte-identically to a
	// network built straight from the Config the options fill.
	old, err := newNetwork(want)
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []*Network{net, old} {
		if err := n.AddNodes([]NodeSpec{
			{ID: 0, Pos: geometry.Point{}, Radio: 15},
			{ID: 1, Pos: geometry.Point{X: 10}, Radio: 15},
		}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 64; i++ {
		if err := net.Send(0, 1, i); err != nil {
			t.Fatal(err)
		}
		if err := old.Send(0, 1, i); err != nil {
			t.Fatal(err)
		}
	}
	for tick := 0; tick < 6; tick++ {
		net.Step()
		old.Step()
		a, _ := net.Receive(1)
		b, _ := old.Receive(1)
		if len(a) != len(b) {
			t.Fatalf("tick %d: options core delivered %d, config core %d", tick, len(a), len(b))
		}
	}
}

func TestAddNodeValidation(t *testing.T) {
	forEachImpl(t, Config{}, func(t *testing.T, net radio) {
		if err := net.AddNode(1, geometry.Point{}, 10); err != nil {
			t.Fatal(err)
		}
		if err := net.AddNode(1, geometry.Point{}, 10); err == nil {
			t.Error("duplicate node accepted")
		}
		if err := net.AddNode(2, geometry.Point{}, 0); err == nil {
			t.Error("zero radio range accepted")
		}
		if err := net.AddNode(3, geometry.Point{}, -1); err == nil {
			t.Error("negative radio range accepted")
		}
	})
}

func TestAddNodesBulk(t *testing.T) {
	forEachImpl(t, Config{}, func(t *testing.T, net radio) {
		specs := []NodeSpec{
			{ID: 4, Pos: geometry.Point{X: 40}, Radio: 15},
			{ID: 0, Pos: geometry.Point{X: 0}, Radio: 15},
			{ID: 2, Pos: geometry.Point{X: 20}, Radio: 15},
			{ID: 1, Pos: geometry.Point{X: 10}, Radio: 15},
			{ID: 3, Pos: geometry.Point{X: 30}, Radio: 15},
		}
		if err := net.AddNodes(specs); err != nil {
			t.Fatal(err)
		}
		if net.NumNodes() != 5 {
			t.Fatalf("NumNodes = %d", net.NumNodes())
		}
		// Neighborhoods come back ascending regardless of registration order.
		n2, err := net.Neighbors(2)
		if err != nil {
			t.Fatal(err)
		}
		if len(n2) != 2 || n2[0] != 1 || n2[1] != 3 {
			t.Errorf("Neighbors(2) = %v, want [1 3]", n2)
		}
		if !net.Connected() {
			t.Error("bulk-registered line should be connected")
		}
	})
}

func TestAddNodesRejectsBadSpecs(t *testing.T) {
	forEachImpl(t, Config{}, func(t *testing.T, net radio) {
		if err := net.AddNode(7, geometry.Point{}, 5); err != nil {
			t.Fatal(err)
		}
		if err := net.AddNodes([]NodeSpec{{ID: 8, Radio: 5}, {ID: 7, Radio: 5}}); err == nil {
			t.Error("batch colliding with an existing node accepted")
		}
		if err := net.AddNodes([]NodeSpec{{ID: 9, Radio: 0}}); err == nil {
			t.Error("zero radio range accepted")
		}
	})
	// Atomicity (flat core contract): a rejected batch must leave the
	// network untouched, including specs ordered before the bad one.
	net, err := NewNetwork()
	if err != nil {
		t.Fatal(err)
	}
	if err := net.AddNodes([]NodeSpec{
		{ID: 1, Radio: 5},
		{ID: 2, Radio: 5},
		{ID: 2, Radio: 5}, // duplicate within the batch
	}); err == nil {
		t.Fatal("in-batch duplicate accepted")
	}
	if net.NumNodes() != 0 {
		t.Errorf("failed AddNodes left %d nodes registered", net.NumNodes())
	}
}

func TestNeighborsLine(t *testing.T) {
	forEachImpl(t, Config{}, func(t *testing.T, net radio) {
		lineNetworkOn(t, net, 10, 4, 15)
		n1, err := net.Neighbors(1)
		if err != nil {
			t.Fatal(err)
		}
		if len(n1) != 2 || n1[0] != 0 || n1[1] != 2 {
			t.Errorf("Neighbors(1) = %v, want [0 2]", n1)
		}
		n0, err := net.Neighbors(0)
		if err != nil {
			t.Fatal(err)
		}
		if len(n0) != 1 || n0[0] != 1 {
			t.Errorf("Neighbors(0) = %v, want [1]", n0)
		}
		if _, err := net.Neighbors(99); err == nil {
			t.Error("unknown node accepted")
		}
	})
}

func TestConnected(t *testing.T) {
	forEachImpl(t, Config{}, func(t *testing.T, net radio) {
		lineNetworkOn(t, net, 10, 5, 15)
		if !net.Connected() {
			t.Error("line should be connected")
		}
	})
	forEachImpl(t, Config{}, func(t *testing.T, net radio) {
		lineNetworkOn(t, net, 100, 3, 15)
		if net.Connected() {
			t.Error("sparse line should be disconnected")
		}
	})
	forEachImpl(t, Config{}, func(t *testing.T, net radio) {
		lineNetworkOn(t, net, 10, 1, 15)
		if !net.Connected() {
			t.Error("singleton should be connected")
		}
	})
}

func TestConnectedEdgeCases(t *testing.T) {
	forEachImpl(t, Config{}, func(t *testing.T, net radio) {
		// Empty network: trivially connected.
		if !net.Connected() {
			t.Error("empty network should be connected")
		}
		lineNetworkOn(t, net, 10, 4, 15)
		// A down relay severs the line: down nodes are still part of the
		// population Connected must reach, but relay nothing.
		if err := net.SetDown(1, true); err != nil {
			t.Fatal(err)
		}
		if net.Connected() {
			t.Error("line with a down relay should be disconnected")
		}
		if err := net.SetDown(1, false); err != nil {
			t.Fatal(err)
		}
		if !net.Connected() {
			t.Error("recovered relay should reconnect the line")
		}
		// A down BFS root (lowest ID) reaches nothing.
		if err := net.SetDown(0, true); err != nil {
			t.Fatal(err)
		}
		if net.Connected() {
			t.Error("down lowest-ID node should disconnect the network")
		}
	})
	// Single down node: still "connected" (the ≤ 1 node short-circuit).
	forEachImpl(t, Config{}, func(t *testing.T, net radio) {
		lineNetworkOn(t, net, 10, 1, 15)
		if err := net.SetDown(0, true); err != nil {
			t.Fatal(err)
		}
		if !net.Connected() {
			t.Error("single down node should still report connected")
		}
	})
}

func TestAsymmetricRanges(t *testing.T) {
	// Node 0 has a long radio that reaches node 1; node 1's short radio
	// does not reach back. The unit-disk model uses the transmitter's
	// range, so the link is one-directional.
	forEachImpl(t, Config{}, func(t *testing.T, net radio) {
		if err := net.AddNodes([]NodeSpec{
			{ID: 0, Pos: geometry.Point{}, Radio: 20},
			{ID: 1, Pos: geometry.Point{X: 15}, Radio: 5},
		}); err != nil {
			t.Fatal(err)
		}
		n0, err := net.Neighbors(0)
		if err != nil {
			t.Fatal(err)
		}
		if len(n0) != 1 || n0[0] != 1 {
			t.Errorf("Neighbors(0) = %v, want [1]", n0)
		}
		n1, err := net.Neighbors(1)
		if err != nil {
			t.Fatal(err)
		}
		if len(n1) != 0 {
			t.Errorf("Neighbors(1) = %v, want []", n1)
		}
		if err := net.Send(0, 1, "down the link"); err != nil {
			t.Errorf("long-radio send failed: %v", err)
		}
		if err := net.Send(1, 0, "up the link"); err == nil {
			t.Error("short-radio send accepted")
		}
		// Asymmetric reachability means the graph is not connected in
		// the BFS-from-lowest-ID sense only if the forward direction is
		// missing; 0 reaches 1, so the network is connected.
		if !net.Connected() {
			t.Error("forward-reachable pair should be connected")
		}
	})
}

func TestSendAndReceive(t *testing.T) {
	forEachImpl(t, Config{}, func(t *testing.T, net radio) {
		lineNetworkOn(t, net, 10, 3, 15)
		if err := net.Send(0, 1, "hello"); err != nil {
			t.Fatal(err)
		}
		// Not delivered before the step.
		msgs, err := net.Receive(1)
		if err != nil {
			t.Fatal(err)
		}
		if len(msgs) != 0 {
			t.Fatal("message delivered before Step")
		}
		net.Step()
		msgs, err = net.Receive(1)
		if err != nil {
			t.Fatal(err)
		}
		if len(msgs) != 1 || msgs[0].Payload != "hello" || msgs[0].From != 0 {
			t.Fatalf("messages = %+v", msgs)
		}
		// Receive drains.
		msgs, _ = net.Receive(1)
		if len(msgs) != 0 {
			t.Error("Receive did not drain inbox")
		}
	})
}

func TestReceiveInto(t *testing.T) {
	forEachImpl(t, Config{}, func(t *testing.T, net radio) {
		lineNetworkOn(t, net, 10, 3, 15)
		for i := 0; i < 4; i++ {
			if err := net.Send(0, 1, i); err != nil {
				t.Fatal(err)
			}
		}
		net.Step()
		buf := make([]Message, 0, 8)
		buf, err := net.ReceiveInto(1, buf)
		if err != nil {
			t.Fatal(err)
		}
		if len(buf) != 4 {
			t.Fatalf("ReceiveInto returned %d messages, want 4", len(buf))
		}
		for i, m := range buf {
			if m.Payload != i || m.From != 0 || m.To != 1 {
				t.Errorf("message %d = %+v", i, m)
			}
		}
		// ReceiveInto drains: a second call truncates the buffer.
		buf, err = net.ReceiveInto(1, buf)
		if err != nil {
			t.Fatal(err)
		}
		if len(buf) != 0 {
			t.Error("ReceiveInto did not drain inbox")
		}
		if _, err := net.ReceiveInto(99, nil); err == nil {
			t.Error("ReceiveInto of unknown node accepted")
		}
	})
}

func TestSendOutOfRange(t *testing.T) {
	forEachImpl(t, Config{}, func(t *testing.T, net radio) {
		lineNetworkOn(t, net, 10, 3, 15)
		if err := net.Send(0, 2, "x"); err == nil {
			t.Error("send beyond radio range accepted")
		}
		if err := net.Send(99, 0, "x"); err == nil {
			t.Error("send from unknown node accepted")
		}
		if err := net.Send(0, 99, "x"); err == nil {
			t.Error("send to unknown node accepted")
		}
		if err := net.Send(0, 0, "x"); err == nil {
			t.Error("self-send accepted")
		}
	})
}

func TestBroadcastReachesAllNeighbors(t *testing.T) {
	forEachImpl(t, Config{}, func(t *testing.T, net radio) {
		lineNetworkOn(t, net, 10, 3, 15)
		if err := net.Broadcast(1, 42); err != nil {
			t.Fatal(err)
		}
		net.Step()
		for _, id := range []NodeID{0, 2} {
			msgs, err := net.Receive(id)
			if err != nil {
				t.Fatal(err)
			}
			if len(msgs) != 1 || msgs[0].Payload != 42 {
				t.Errorf("node %d messages = %+v", id, msgs)
			}
		}
		if msgs, _ := net.Receive(1); len(msgs) != 0 {
			t.Error("broadcaster received its own packet")
		}
	})
}

func TestBatchCountsNeighbors(t *testing.T) {
	forEachImpl(t, Config{}, func(t *testing.T, net radio) {
		lineNetworkOn(t, net, 10, 5, 15)
		sent, err := net.Batch(2, "beacon")
		if err != nil {
			t.Fatal(err)
		}
		if sent != 2 {
			t.Errorf("Batch(2) enqueued %d packets, want 2", sent)
		}
		sent, err = net.Batch(0, "beacon")
		if err != nil {
			t.Fatal(err)
		}
		if sent != 1 {
			t.Errorf("Batch(0) enqueued %d packets, want 1", sent)
		}
		if _, err := net.Batch(99, "beacon"); err == nil {
			t.Error("Batch from unknown node accepted")
		}
		// Batch from a down node reaches nobody and is not an error,
		// matching Broadcast-over-Neighbors semantics.
		if err := net.SetDown(1, true); err != nil {
			t.Fatal(err)
		}
		sent, err = net.Batch(1, "beacon")
		if err != nil {
			t.Fatal(err)
		}
		if sent != 0 {
			t.Errorf("down node batched %d packets", sent)
		}
	})
}

func TestLossDropsPackets(t *testing.T) {
	forEachImpl(t, Config{Loss: 0.5, Seed: 1}, func(t *testing.T, net radio) {
		lineNetworkOn(t, net, 10, 2, 15)
		const n = 1000
		for i := 0; i < n; i++ {
			if err := net.Send(0, 1, i); err != nil {
				t.Fatal(err)
			}
		}
		net.Step()
		msgs, err := net.Receive(1)
		if err != nil {
			t.Fatal(err)
		}
		got := float64(len(msgs)) / n
		if got < 0.4 || got > 0.6 {
			t.Errorf("delivery rate %v, want ~0.5", got)
		}
		sent, delivered, dropped := net.Stats()
		if sent != n || delivered+dropped != n {
			t.Errorf("stats inconsistent: %d %d %d", sent, delivered, dropped)
		}
	})
}

func TestDelayJitter(t *testing.T) {
	forEachImpl(t, Config{MinDelay: 1, MaxDelay: 3, Seed: 2}, func(t *testing.T, net radio) {
		lineNetworkOn(t, net, 10, 2, 15)
		const n = 300
		for i := 0; i < n; i++ {
			if err := net.Send(0, 1, i); err != nil {
				t.Fatal(err)
			}
		}
		counts := make([]int, 4)
		for step := 1; step <= 3; step++ {
			net.Step()
			msgs, err := net.Receive(1)
			if err != nil {
				t.Fatal(err)
			}
			counts[step] = len(msgs)
		}
		total := counts[1] + counts[2] + counts[3]
		if total != n {
			t.Fatalf("delivered %d of %d within max delay", total, n)
		}
		for d := 1; d <= 3; d++ {
			if counts[d] == 0 {
				t.Errorf("no messages with delay %d; jitter not applied", d)
			}
		}
	})
}

// TestRingWrapAround pushes traffic for many more ticks than the ring
// length so every bucket is reused repeatedly, interleaving sends at
// different ticks with jittered delays.
func TestRingWrapAround(t *testing.T) {
	forEachImpl(t, Config{MinDelay: 1, MaxDelay: 4, Seed: 3}, func(t *testing.T, net radio) {
		lineNetworkOn(t, net, 10, 2, 15)
		sentTotal, gotTotal := 0, 0
		for tick := 0; tick < 200; tick++ {
			for k := 0; k < 3; k++ {
				if err := net.Send(0, 1, tick*10+k); err != nil {
					t.Fatal(err)
				}
				sentTotal++
			}
			net.Step()
			msgs, err := net.Receive(1)
			if err != nil {
				t.Fatal(err)
			}
			for _, m := range msgs {
				if m.DeliveredAt != net.Now() {
					t.Fatalf("message delivered at tick %d but DeliveredAt=%d", net.Now(), m.DeliveredAt)
				}
				if d := m.DeliveredAt - m.SentAt; d < 1 || d > 4 {
					t.Fatalf("delay %d outside [1,4]", d)
				}
			}
			gotTotal += len(msgs)
		}
		// Drain the tail.
		for tick := 0; tick < 4; tick++ {
			net.Step()
			msgs, _ := net.Receive(1)
			gotTotal += len(msgs)
		}
		if gotTotal != sentTotal {
			t.Errorf("delivered %d of %d sent", gotTotal, sentTotal)
		}
	})
}

func TestStepMonotonicClock(t *testing.T) {
	forEachImpl(t, Config{}, func(t *testing.T, net radio) {
		lineNetworkOn(t, net, 10, 2, 15)
		if net.Now() != 0 {
			t.Error("fresh network clock not 0")
		}
		net.Step()
		net.Step()
		if net.Now() != 2 {
			t.Errorf("Now = %d, want 2", net.Now())
		}
	})
}

func TestPositionLookup(t *testing.T) {
	forEachImpl(t, Config{}, func(t *testing.T, net radio) {
		lineNetworkOn(t, net, 10, 2, 15)
		p, err := net.Position(1)
		if err != nil {
			t.Fatal(err)
		}
		if p.X != 10 {
			t.Errorf("position = %v", p)
		}
		if _, err := net.Position(9); !errors.Is(err, ErrUnknownNode) {
			t.Errorf("Position(9) error = %v, want ErrUnknownNode", err)
		}
		if _, err := net.Receive(9); err == nil {
			t.Error("Receive of unknown node accepted")
		}
	})
}

func TestSetDown(t *testing.T) {
	forEachImpl(t, Config{}, func(t *testing.T, net radio) {
		lineNetworkOn(t, net, 10, 3, 15)
		if err := net.SetDown(9, true); !errors.Is(err, ErrUnknownNode) {
			t.Errorf("SetDown(9) error = %v, want ErrUnknownNode", err)
		}
		if err := net.SetDown(1, true); err != nil {
			t.Fatal(err)
		}
		if !net.IsDown(1) || net.IsDown(0) {
			t.Error("IsDown wrong")
		}
		// Down nodes vanish from neighborhoods.
		n0, err := net.Neighbors(0)
		if err != nil {
			t.Fatal(err)
		}
		if len(n0) != 0 {
			t.Errorf("Neighbors(0) = %v with node 1 down", n0)
		}
		// A down transmitter has no neighborhood at all.
		n1, err := net.Neighbors(1)
		if err != nil {
			t.Fatal(err)
		}
		if len(n1) != 0 {
			t.Errorf("Neighbors(1) = %v while down", n1)
		}
		// In-flight messages to a node that fails are dropped.
		if err := net.SetDown(1, false); err != nil {
			t.Fatal(err)
		}
		if err := net.Send(0, 1, "x"); err != nil {
			t.Fatal(err)
		}
		if err := net.SetDown(1, true); err != nil {
			t.Fatal(err)
		}
		net.Step()
		if err := net.SetDown(1, false); err != nil {
			t.Fatal(err)
		}
		msgs, err := net.Receive(1)
		if err != nil {
			t.Fatal(err)
		}
		if len(msgs) != 0 {
			t.Error("message delivered to a down node")
		}
		// Down senders cannot transmit.
		if err := net.SetDown(0, true); err != nil {
			t.Fatal(err)
		}
		if err := net.Send(0, 1, "x"); err == nil {
			t.Error("down sender transmitted")
		}
	})
}

// TestSetDownQueuedInboxCleared covers the other failure direction: a
// node that already holds delivered messages loses them when it fails.
func TestSetDownQueuedInboxCleared(t *testing.T) {
	forEachImpl(t, Config{}, func(t *testing.T, net radio) {
		lineNetworkOn(t, net, 10, 3, 15)
		if err := net.Send(0, 1, "queued"); err != nil {
			t.Fatal(err)
		}
		net.Step()
		if err := net.SetDown(1, true); err != nil {
			t.Fatal(err)
		}
		if err := net.SetDown(1, false); err != nil {
			t.Fatal(err)
		}
		msgs, err := net.Receive(1)
		if err != nil {
			t.Fatal(err)
		}
		if len(msgs) != 0 {
			t.Errorf("inbox survived the failure: %+v", msgs)
		}
	})
}

// TestAddNodeAfterTraffic adds a node mid-run (invalidating the flat
// core's spatial index) and checks the new node joins neighborhoods and
// delivery immediately.
func TestAddNodeAfterTraffic(t *testing.T) {
	forEachImpl(t, Config{}, func(t *testing.T, net radio) {
		lineNetworkOn(t, net, 10, 2, 15)
		if err := net.Send(0, 1, "warmup"); err != nil {
			t.Fatal(err)
		}
		net.Step()
		if _, err := net.Receive(1); err != nil {
			t.Fatal(err)
		}
		if err := net.AddNode(2, geometry.Point{X: 20}, 15); err != nil {
			t.Fatal(err)
		}
		n1, err := net.Neighbors(1)
		if err != nil {
			t.Fatal(err)
		}
		if len(n1) != 2 || n1[0] != 0 || n1[1] != 2 {
			t.Errorf("Neighbors(1) = %v after late add, want [0 2]", n1)
		}
		if err := net.Send(2, 1, "late"); err != nil {
			t.Fatal(err)
		}
		net.Step()
		msgs, err := net.Receive(1)
		if err != nil {
			t.Fatal(err)
		}
		if len(msgs) != 1 || msgs[0].Payload != "late" {
			t.Errorf("late node's packet not delivered: %+v", msgs)
		}
	})
}
