package experiments

import "testing"

// shardQuickConfig is the CI-sized shard bench: small enough to finish
// in seconds, real enough that every verdict field (k1_identical,
// gap_within_bound, trace_identical) is exercised by an actual
// decomposition.
func shardQuickConfig() ShardConfig {
	return ShardConfig{
		PlanSizes:  []int{1200},
		PlanKs:     []int{1, 2, 4},
		BigSensors: -1,
		NetNodes:   2000,
		NetKs:      []int{1, 4},
		NetTicks:   2,
		Seed:       7,
	}
}

// TestShardBenchQuick gates the bench's own verdicts: the k = 1 sharded
// plan must be bit-identical to the flat engine, every sharded case
// must stay within the utility-gap bound, and the sharded radio trace
// must match the flat core exactly.
func TestShardBenchQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("shard bench quick run skipped in -short mode")
	}
	fig, res, err := ShardBench(shardQuickConfig())
	if err != nil {
		t.Fatal(err)
	}
	if fig == nil || len(fig.Series) == 0 {
		t.Fatal("no figure series produced")
	}
	if len(res.PlanGroups) == 0 || len(res.NetCases) == 0 {
		t.Fatalf("missing groups: %d plan, %d net", len(res.PlanGroups), len(res.NetCases))
	}
	for _, g := range res.PlanGroups {
		if !g.K1Identical {
			t.Errorf("plan n=%d: k=1 not bit-identical to the flat engine", g.Sensors)
		}
		sawDecomposition := false
		for _, c := range g.Cases {
			if !c.GapWithinBound {
				t.Errorf("plan n=%d k=%d: gap %.3f%% beyond %.1f%%", g.Sensors, c.K, c.GapPct, ShardGapBoundPct)
			}
			if c.K == 1 && c.GapPct != 0 {
				t.Errorf("plan n=%d: k=1 gap %.3f%% != 0", g.Sensors, c.GapPct)
			}
			if c.EffectiveK > 1 {
				sawDecomposition = true
			}
		}
		if !sawDecomposition {
			t.Errorf("plan n=%d: no case produced a real decomposition", g.Sensors)
		}
	}
	for _, c := range res.NetCases {
		if !c.TraceIdentical {
			t.Errorf("net k=%d: delivery trace diverges from the flat core", c.K)
		}
		if c.Sent == 0 || c.Delivered == 0 {
			t.Errorf("net k=%d: empty traffic (sent %d, delivered %d)", c.K, c.Sent, c.Delivered)
		}
	}
}
