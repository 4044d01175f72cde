package shard

import (
	"fmt"
	"testing"

	"cool/internal/core"
	"cool/internal/netsim"
	"cool/internal/stats"
)

// FuzzShardEquivalence drives randomized deployments through the whole
// sharded stack and checks every cross-engine contract at once:
//
//   - k = 1 plans are bit-identical to the global engine (both modes,
//     both utility families);
//   - k > 1 plans are feasible, the correction sweep never loses
//     utility, and the gap against the global greedy stays under a
//     loose structural bound;
//   - the sharded radio network's delivery trace matches the reference
//     implementation per (tick, receiver) on a lossless fixed-delay
//     medium, dead nodes included, and the packet counters sum exactly.
func FuzzShardEquivalence(f *testing.F) {
	f.Add(uint64(1), uint8(40), uint8(20), uint8(3), false, true, uint8(0))
	f.Add(uint64(7), uint8(90), uint8(45), uint8(5), true, false, uint8(3))
	f.Add(uint64(42), uint8(60), uint8(10), uint8(8), false, false, uint8(7))
	f.Add(uint64(1234), uint8(120), uint8(60), uint8(2), true, true, uint8(1))
	f.Fuzz(func(t *testing.T, seed uint64, nRaw, mRaw, kRaw uint8, removal, detect bool, deadRaw uint8) {
		n := 8 + int(nRaw)%140
		m := 4 + int(mRaw)%70
		k := 1 + int(kRaw)%8
		period := placementPeriod()
		if removal {
			period = removalPeriod()
		}
		d := buildTestProblem(t, seed, n, m, 400, 120, 14, period, detect)

		// k = 1: bit-identity against the global engine.
		res, err := Plan(d.p, Options{Shards: 1})
		if err != nil {
			t.Fatal(err)
		}
		want, err := core.Greedy(d.p.Global)
		if err != nil {
			t.Fatal(err)
		}
		got, exp := res.Schedule.Assignment(), want.Assignment()
		for v := range exp {
			if got[v] != exp[v] {
				t.Fatalf("k=1: sensor %d slot %d != global %d", v, got[v], exp[v])
			}
		}

		// k > 1: feasibility, monotone sweep, bounded gap.
		if k > 1 {
			res, err := Plan(d.p, Options{Shards: k})
			if err != nil {
				t.Fatal(err)
			}
			if err := res.Schedule.CheckFeasible(period); err != nil {
				t.Fatal(err)
			}
			if res.Utility < res.UtilityBefore-1e-9 {
				t.Fatalf("sweep lost utility: %v -> %v", res.UtilityBefore, res.Utility)
			}
			global, err := core.Greedy(d.p.Global)
			if err != nil {
				t.Fatal(err)
			}
			gu := global.PeriodUtility(d.p.Global.Factory)
			if gu > 0 && res.Utility < gu*0.5 {
				t.Fatalf("gap beyond structural bound: sharded %v vs global %v (k=%d eff=%d)",
					res.Utility, gu, k, res.EffectiveShards)
			}
		}

		// Radio network trace equivalence on a small fleet derived from
		// the same seed.
		nn := 10 + int(nRaw)%60
		specs := netFleet(stats.SplitMix64(seed), nn, 300, 60, 22)
		sharded, err := NewNet(specs, NetOptions{Shards: k, MinDelay: 1, MaxDelay: 1, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		ref, err := netsim.NewReference(netsim.Config{MinDelay: 1, MaxDelay: 1, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range specs {
			if err := ref.AddNode(s.ID, s.Pos, s.Radio); err != nil {
				t.Fatal(err)
			}
		}
		dead := int(deadRaw) % (nn / 2)
		for i := 0; i < dead; i++ {
			id := specs[(i*7)%nn].ID
			if err := sharded.SetDown(id, true); err != nil {
				t.Fatal(err)
			}
			if err := ref.SetDown(id, true); err != nil {
				t.Fatal(err)
			}
		}
		var buf []netsim.Message
		for tick := 0; tick < 4; tick++ {
			for i := 0; i < nn; i += 2 {
				id := specs[i].ID
				if _, err := sharded.Batch(id, tick); err != nil {
					t.Fatal(err)
				}
				if !ref.IsDown(id) {
					if err := ref.Broadcast(id, tick); err != nil {
						t.Fatal(err)
					}
				}
			}
			sharded.Step()
			ref.Step()
			for _, s := range specs {
				buf, _ = sharded.ReceiveInto(s.ID, buf)
				want, err := ref.Receive(s.ID)
				if err != nil {
					t.Fatal(err)
				}
				if got, exp := traceKey(buf), traceKey(want); got != exp {
					t.Fatalf("tick %d node %d: senders %s vs reference %s", tick, s.ID, got, exp)
				}
			}
		}
		as, ad, ap := sharded.Stats()
		bs, bd, bp := ref.Stats()
		if as != bs || ad != bd || ap != bp {
			t.Fatal(fmt.Sprintf("stats diverge: sharded (%d,%d,%d) reference (%d,%d,%d)", as, ad, ap, bs, bd, bp))
		}
	})
}
