package experiments

import (
	"reflect"
	"testing"
)

// quickFig9 is a small Figure-9 sweep used to check worker-count
// invariance without paying the paper-scale cost.
func quickFig9(workers int) Fig9Config {
	return Fig9Config{
		SensorCounts: []int{40, 80},
		TargetCounts: []int{5, 10},
		Repeats:      2,
		Seed:         3,
		Workers:      workers,
	}
}

// TestFig9WorkerInvariance: the refactor from the hand-rolled pool to
// index-addressed partial sums must make the figure bit-identical for
// every worker count (the old pool accumulated floats in completion
// order).
func TestFig9WorkerInvariance(t *testing.T) {
	want, err := Fig9(quickFig9(1))
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []int{2, 4, 0} {
		got, err := Fig9(quickFig9(w))
		if err != nil {
			t.Fatalf("workers=%d: %v", w, err)
		}
		if !reflect.DeepEqual(want, got) {
			t.Errorf("workers=%d: figure differs from workers=1", w)
		}
	}
}

func TestFig8WorkerInvariance(t *testing.T) {
	cfg := Fig8Config{
		SensorCounts: []int{10, 20, 30},
		Targets:      2,
		ExactUpTo:    10,
		SimulateDays: 2,
		Seed:         5,
	}
	seq := cfg
	seq.Workers = 1
	want, err := Fig8(seq)
	if err != nil {
		t.Fatal(err)
	}
	par := cfg
	par.Workers = 4
	got, err := Fig8(par)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want, got) {
		t.Error("fig8 differs across worker counts")
	}
}

func TestSensitivityWorkerInvariance(t *testing.T) {
	cfg := AblationConfig{Sensors: 30, Targets: 5, Seed: 2}
	seq, par := cfg, cfg
	seq.Workers, par.Workers = 1, 4
	for name, fn := range map[string]func(AblationConfig) (*Figure, error){
		"sensitivity-p":     SensitivityP,
		"sensitivity-range": SensitivityRange,
	} {
		want, err := fn(seq)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		got, err := fn(par)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !reflect.DeepEqual(want, got) {
			t.Errorf("%s differs across worker counts", name)
		}
	}
}

func TestFig7WorkerInvariance(t *testing.T) {
	seq := Fig7Config{Seed: 1, Workers: 1}
	par := Fig7Config{Seed: 1, Workers: 2}
	want, err := Fig7(seq)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Fig7(par)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want, got) {
		t.Error("fig7 differs across worker counts")
	}
}
