package parallel

import (
	"errors"
	"runtime"
	"sync/atomic"
	"testing"
)

func TestWorkersNormalization(t *testing.T) {
	if got := Workers(0); got != runtime.NumCPU() {
		t.Fatalf("Workers(0) = %d, want NumCPU %d", got, runtime.NumCPU())
	}
	if got := Workers(-3); got != runtime.NumCPU() {
		t.Fatalf("Workers(-3) = %d, want NumCPU", got)
	}
	if got := Workers(5); got != 5 {
		t.Fatalf("Workers(5) = %d, want 5", got)
	}
}

func TestForVisitsEveryIndexOnce(t *testing.T) {
	for _, workers := range []int{1, 2, 8, 64} {
		const n = 1000
		var hits [n]atomic.Int32
		if err := For(workers, n, func(i int) error {
			hits[i].Add(1)
			return nil
		}); err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i := range hits {
			if c := hits[i].Load(); c != 1 {
				t.Fatalf("workers=%d: index %d visited %d times", workers, i, c)
			}
		}
	}
}

func TestForReportsLowestFailingIndex(t *testing.T) {
	errBoom := errors.New("boom")
	for _, workers := range []int{1, 4} {
		err := For(workers, 100, func(i int) error {
			if i == 17 || i == 61 {
				return errBoom
			}
			return nil
		})
		if !errors.Is(err, errBoom) {
			t.Fatalf("workers=%d: got %v, want errBoom", workers, err)
		}
	}
}

func TestForEmptyAndNegative(t *testing.T) {
	called := false
	if err := For(4, 0, func(int) error { called = true; return nil }); err != nil {
		t.Fatal(err)
	}
	if err := For(4, -5, func(int) error { called = true; return nil }); err != nil {
		t.Fatal(err)
	}
	if called {
		t.Fatal("fn called for empty range")
	}
}

func TestForPanicPropagates(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic to propagate")
		}
	}()
	_ = For(4, 16, func(i int) error {
		if i == 7 {
			panic("kaboom")
		}
		return nil
	})
}
