package protocol

import (
	"math"
	"testing"

	"cool/internal/netsim"
)

func TestAggregationLossless(t *testing.T) {
	e, _ := gridEngine(t, Config{BeaconInterval: 2}, 4, netsim.WithSeed(21))
	// Let the tree form.
	if _, ok, err := e.RunUntil(func() bool { return e.SyncedCount() == 16 }, 300); err != nil || !ok {
		t.Fatalf("tree formation failed: %v", err)
	}
	value := func(id netsim.NodeID) float64 { return float64(id) }
	if err := e.StartAggregation(1, value, 8, 3); err != nil {
		t.Fatal(err)
	}
	_, ok, err := e.RunUntil(func() bool {
		res, _ := e.AggregateResult(1)
		return res.Count == 16
	}, 500)
	if err != nil {
		t.Fatal(err)
	}
	res, found := e.AggregateResult(1)
	if !found {
		t.Fatal("round not tracked")
	}
	if !ok {
		t.Fatalf("aggregation incomplete: %d/16", res.Count)
	}
	// Sum of 0..15 = 120, min 0, max 15, mean 7.5.
	if res.Sum != 120 || res.Min != 0 || res.Max != 15 {
		t.Errorf("aggregate = %+v", res)
	}
	if math.Abs(res.Mean()-7.5) > 1e-12 {
		t.Errorf("mean = %v", res.Mean())
	}
}

// TestAggregationPacketEfficiency: in-network aggregation moves O(n)
// packets total, far fewer than raw convergecast of n reports over
// multihop paths.
func TestAggregationPacketEfficiency(t *testing.T) {
	// Both methods run for the same number of ticks so that ambient
	// beacon traffic cancels out of the comparison.
	const measureTicks = 120
	run := func(aggregate bool) int {
		e, radio := gridEngine(t, Config{BeaconInterval: 2}, 4, netsim.WithSeed(22))
		if _, ok, err := e.RunUntil(func() bool { return e.SyncedCount() == 16 }, 300); err != nil || !ok {
			t.Fatalf("tree formation failed: %v", err)
		}
		sentBefore, _, _ := radio.Stats()
		if aggregate {
			if err := e.StartAggregation(1, func(id netsim.NodeID) float64 { return 1 }, 8, 3); err != nil {
				t.Fatal(err)
			}
		} else {
			for id := netsim.NodeID(1); id < 16; id++ {
				if err := e.Report(id, 0, 1); err != nil {
					t.Fatal(err)
				}
			}
		}
		for i := 0; i < measureTicks; i++ {
			if err := e.Tick(); err != nil {
				t.Fatal(err)
			}
		}
		if aggregate {
			res, _ := e.AggregateResult(1)
			if res.Count != 16 {
				t.Fatalf("aggregation incomplete: %d/16", res.Count)
			}
		} else if len(e.Collected()) < 15 {
			t.Fatalf("collection incomplete: %d/15", len(e.Collected()))
		}
		sentAfter, _, _ := radio.Stats()
		return sentAfter - sentBefore
	}
	aggPackets := run(true)
	rawPackets := run(false)
	if aggPackets >= rawPackets {
		t.Errorf("aggregation used %d packets, raw convergecast %d — expected savings",
			aggPackets, rawPackets)
	}
}

func TestAggregationUnderLossPartial(t *testing.T) {
	e, _ := gridEngine(t, Config{BeaconInterval: 2}, 4, netsim.WithLoss(0.3), netsim.WithSeed(23))
	if _, ok, err := e.RunUntil(func() bool { return e.SyncedCount() == 16 }, 2000); err != nil || !ok {
		t.Fatalf("tree formation failed: %v", err)
	}
	if err := e.StartAggregation(2, func(id netsim.NodeID) float64 { return 1 }, 8, 4); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 300; i++ {
		if err := e.Tick(); err != nil {
			t.Fatal(err)
		}
	}
	res, found := e.AggregateResult(2)
	if !found {
		t.Fatal("round missing")
	}
	// The base's own reading always lands; losses may drop subtrees but
	// the partial aggregate must stay consistent (count == sum here).
	if res.Count < 1 || res.Count > 16 {
		t.Errorf("count = %d out of [1,16]", res.Count)
	}
	if res.Sum != float64(res.Count) {
		t.Errorf("sum %v != count %d for all-ones readings", res.Sum, res.Count)
	}
}

func TestStartAggregationValidation(t *testing.T) {
	e, _ := gridEngine(t, Config{}, 2)
	if err := e.StartAggregation(1, nil, 4, 2); err == nil {
		t.Error("nil value function accepted")
	}
	if err := e.StartAggregation(1, func(netsim.NodeID) float64 { return 0 }, 0, 2); err == nil {
		t.Error("zero depth budget accepted")
	}
	if err := e.StartAggregation(1, func(netsim.NodeID) float64 { return 0 }, 4, 0); err == nil {
		t.Error("zero slack accepted")
	}
	if _, ok := e.AggregateResult(99); ok {
		t.Error("untracked round reported")
	}
}

func TestAggMsgMerge(t *testing.T) {
	var a AggMsg
	a.merge(AggMsg{})
	if a.Count != 0 {
		t.Error("merging empty changed state")
	}
	a.merge(AggMsg{Count: 1, Sum: 5, Min: 5, Max: 5})
	a.merge(AggMsg{Count: 2, Sum: 3, Min: 1, Max: 2})
	if a.Count != 3 || a.Sum != 8 || a.Min != 1 || a.Max != 5 {
		t.Errorf("merge = %+v", a)
	}
	if (AggResult{}).Mean() != 0 {
		t.Error("empty mean should be 0")
	}
}
