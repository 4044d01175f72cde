package core

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"testing"

	"cool/internal/stats"
)

// The golden-repair corpus pins the Repairer's exact behaviour across
// scripted sessions: kill and deploy batches, RepairAll polishes and ρ
// drifts — one that keeps the period shape and two that cross ρ = 1 —
// on both utility models at ρ = 3, 1/2 and 1/3. After every operation
// it records each RepairStats field, the gap against a full replan (the
// floats as their bits) and a digest of the committed assignment, so a
// change to the damage front, the sweep or the cache refresh that moves
// any decision shows up as a diff. Regenerate after an intentional
// change with
//
//	go test ./internal/core -run TestGoldenRepairs -update

const goldenRepairsPath = "testdata/golden_repairs.json"

// repairSession is one scripted session: the instance (built like a
// golden schedule scenario, Dead leading sensors covering nothing) and
// the seed of its operation script.
type repairSession struct {
	Scenario goldenScenario `json:"scenario"`
	Ops      int            `json:"ops"`
}

// repairStep is what the corpus commits per operation.
type repairStep struct {
	Op            string `json:"op"`
	Changed       int    `json:"changed"`
	Dirty         int    `json:"dirty"`
	Rounds        int    `json:"rounds"`
	Moves         int    `json:"moves"`
	Full          bool   `json:"full"`
	UtilityBefore uint64 `json:"utility_before_bits"`
	Utility       uint64 `json:"utility_bits"`
	Gap           uint64 `json:"gap_bits"`
	Digest        string `json:"assignment_digest"`
}

// repairRecord is one session's corpus entry.
type repairRecord struct {
	Session repairSession `json:"session"`
	Steps   []repairStep  `json:"steps"`
}

func repairSessions() []repairSession {
	var out []repairSession
	for _, model := range []string{"detection", "coverage"} {
		for i, rho := range []float64{3, 0.5, 1.0 / 3} {
			out = append(out, repairSession{
				Scenario: goldenScenario{
					Name:  fmt.Sprintf("%s-rho%.3g", model, rho),
					Model: model, N: 80, M: 24, Rho: rho,
					Seed: 900 + uint64(10*i), Cover: 0.08, Dead: 3,
				},
				Ops: 40,
			})
		}
	}
	return out
}

// assignmentDigest is the FNV-1a hash of the assignment, one
// little-endian int64 per sensor.
func assignmentDigest(assign []int) string {
	h := fnv.New64a()
	var b [8]byte
	for _, a := range assign {
		binary.LittleEndian.PutUint64(b[:], uint64(int64(a)))
		h.Write(b[:])
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// runRepairSession plays a session's script and records every
// operation. The script draws from its own RNG: every fifth operation
// is a RepairAll, operations 13, 26 and 39 are ρ drifts (13 keeps the
// period shape, 26 crosses ρ = 1 and 39 crosses back), and the others
// kill or deploy one to four sensors. The first kill takes sensor 0,
// which covers nothing, so a deploy can bring back a sensor with an
// empty affected list.
func runRepairSession(t *testing.T, s repairSession) []repairStep {
	t.Helper()
	in := buildGoldenInstance(t, s.Scenario)
	r, err := NewRepairer(in)
	if err != nil {
		t.Fatal(err)
	}
	rng := stats.NewRNG(s.Scenario.Seed ^ 0x5eed)
	record := func(op string, st RepairStats) repairStep {
		gap, err := r.GapVsFullReplan()
		if err != nil {
			t.Fatalf("%s %s: %v", s.Scenario.Name, op, err)
		}
		sched, err := r.Schedule()
		if err != nil {
			t.Fatalf("%s %s: %v", s.Scenario.Name, op, err)
		}
		return repairStep{
			Op: op, Changed: st.Changed, Dirty: st.Dirty, Rounds: st.Rounds, Moves: st.Moves, Full: st.Full,
			UtilityBefore: math.Float64bits(st.UtilityBefore), Utility: math.Float64bits(st.Utility),
			Gap: math.Float64bits(gap), Digest: assignmentDigest(sched.Assignment()),
		}
	}
	steps := []repairStep{record("init", RepairStats{UtilityBefore: r.Utility(), Utility: r.Utility()})}
	rho := s.Scenario.Rho
	for op := 1; op <= s.Ops; op++ {
		var live, dead []int
		for v := 0; v < in.N; v++ {
			if r.Present(v) {
				live = append(live, v)
			} else {
				dead = append(dead, v)
			}
		}
		var (
			name string
			st   RepairStats
		)
		switch {
		case op%13 == 0:
			switch op / 13 {
			case 1:
				rho *= 1 + 1e-12
			default:
				rho = 1 / rho
			}
			name = fmt.Sprintf("rho %v", rho)
			st, err = r.UpdateRho(rho)
		case op%5 == 0:
			name = "repair-all"
			st = r.RepairAll()
		case len(dead) == 0 || (len(live) > in.N/2 && rng.Bernoulli(0.55)):
			pool := live
			if op == 1 {
				pool = live[1:]
			}
			batch := pickRandom(rng, pool, 1+rng.Intn(4))
			if op == 1 {
				batch[0] = 0
			}
			name = fmt.Sprintf("kill %v", batch)
			st, err = r.RemoveSensors(batch)
		default:
			batch := pickRandom(rng, dead, 1+rng.Intn(min(4, len(dead))))
			name = fmt.Sprintf("deploy %v", batch)
			st, err = r.AddSensors(batch)
		}
		if err != nil {
			t.Fatalf("%s op %d (%s): %v", s.Scenario.Name, op, name, err)
		}
		steps = append(steps, record(name, st))
	}
	return steps
}

func TestGoldenRepairs(t *testing.T) {
	sessions := repairSessions()
	if *updateGolden {
		var records []repairRecord
		for _, s := range sessions {
			records = append(records, repairRecord{Session: s, Steps: runRepairSession(t, s)})
		}
		data, err := json.MarshalIndent(records, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenRepairsPath, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s with %d sessions", goldenRepairsPath, len(records))
	}

	data, err := os.ReadFile(goldenRepairsPath)
	if err != nil {
		t.Fatalf("reading golden repairs (run with -update to create): %v", err)
	}
	var records []repairRecord
	if err := json.Unmarshal(data, &records); err != nil {
		t.Fatal(err)
	}
	if len(records) != len(sessions) {
		t.Fatalf("golden repairs hold %d sessions, the script lists %d — regenerate with -update", len(records), len(sessions))
	}
	for i, s := range sessions {
		rec := records[i]
		if rec.Session != s {
			t.Fatalf("golden session %d is %+v, want %+v — regenerate with -update", i, rec.Session, s)
		}
		t.Run(s.Scenario.Name, func(t *testing.T) {
			got := runRepairSession(t, s)
			if len(got) != len(rec.Steps) {
				t.Fatalf("%d steps, golden %d", len(got), len(rec.Steps))
			}
			for k := range got {
				if got[k] != rec.Steps[k] {
					t.Fatalf("step %d diverged from golden\n got %+v\nwant %+v", k, got[k], rec.Steps[k])
				}
			}
		})
	}
}
