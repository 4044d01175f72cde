package shard

import (
	"encoding/binary"
	"encoding/json"
	"flag"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"testing"
)

// The golden-plan corpus pins the exact output of sharded plans with
// real cuts — k ∈ {2, 4, 8}, both regimes, both utility models, two
// deployments — so a change to the per-strip plans, the halo
// classification or the border sweep that moves any decision shows up
// as a diff. Per plan it records the decomposition, the sweep's rounds
// and moves, both utilities as bits and a digest of the assignment.
// Regenerate after an intentional change with
//
//	go test ./internal/shard -run TestGoldenPlans -update
var updateGolden = flag.Bool("update", false, "rewrite testdata golden files")

const goldenPlansPath = "testdata/golden_plans.json"

// goldenPlanCase names one sharded plan of the corpus.
type goldenPlanCase struct {
	Seed    uint64 `json:"seed"`
	Shards  int    `json:"shards"`
	Removal bool   `json:"removal"`
	Detect  bool   `json:"detect"`
}

// goldenPlan is what the corpus commits per case.
type goldenPlan struct {
	Case          goldenPlanCase `json:"case"`
	Effective     int            `json:"effective_shards"`
	Interior      int            `json:"interior"`
	Halo          int            `json:"halo"`
	Rounds        int            `json:"rounds"`
	Moves         int            `json:"moves"`
	UtilityBefore uint64         `json:"utility_before_bits"`
	Utility       uint64         `json:"utility_bits"`
	Digest        string         `json:"assignment_digest"`
}

func goldenPlanCases() []goldenPlanCase {
	var out []goldenPlanCase
	for _, seed := range []uint64{9, 21} {
		for _, k := range []int{2, 4, 8} {
			for _, removal := range []bool{false, true} {
				for _, detect := range []bool{true, false} {
					out = append(out, goldenPlanCase{Seed: seed, Shards: k, Removal: removal, Detect: detect})
				}
			}
		}
	}
	return out
}

// planDigest is the FNV-1a hash of the assignment, one little-endian
// int64 per sensor.
func planDigest(assign []int) string {
	h := fnv.New64a()
	var b [8]byte
	for _, a := range assign {
		binary.LittleEndian.PutUint64(b[:], uint64(int64(a)))
		h.Write(b[:])
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

func runGoldenPlan(t *testing.T, c goldenPlanCase) goldenPlan {
	t.Helper()
	period := placementPeriod()
	if c.Removal {
		period = removalPeriod()
	}
	d := buildTestProblem(t, c.Seed, 300, 150, 400, 120, 14, period, c.Detect)
	res, err := Plan(d.p, Options{Shards: c.Shards, Workers: 1})
	if err != nil {
		t.Fatalf("%+v: %v", c, err)
	}
	return goldenPlan{
		Case: c, Effective: res.EffectiveShards, Interior: res.Interior, Halo: res.Halo,
		Rounds: res.Rounds, Moves: res.Moves,
		UtilityBefore: math.Float64bits(res.UtilityBefore), Utility: math.Float64bits(res.Utility),
		Digest: planDigest(res.Schedule.Assignment()),
	}
}

func TestGoldenPlans(t *testing.T) {
	cases := goldenPlanCases()
	if *updateGolden {
		var plans []goldenPlan
		for _, c := range cases {
			plans = append(plans, runGoldenPlan(t, c))
		}
		data, err := json.MarshalIndent(plans, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPlansPath, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s with %d plans", goldenPlansPath, len(plans))
	}

	data, err := os.ReadFile(goldenPlansPath)
	if err != nil {
		t.Fatalf("reading golden plans (run with -update to create): %v", err)
	}
	var plans []goldenPlan
	if err := json.Unmarshal(data, &plans); err != nil {
		t.Fatal(err)
	}
	if len(plans) != len(cases) {
		t.Fatalf("golden corpus holds %d plans, the case list %d — regenerate with -update", len(plans), len(cases))
	}
	for i, c := range cases {
		if plans[i].Case != c {
			t.Fatalf("golden plan %d is for %+v, want %+v — regenerate with -update", i, plans[i].Case, c)
		}
		if got := runGoldenPlan(t, c); got != plans[i] {
			t.Errorf("plan %+v diverged from golden\n got %+v\nwant %+v", c, got, plans[i])
		}
	}
}
