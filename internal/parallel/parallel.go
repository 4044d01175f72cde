// Package parallel provides the repository's shared bounded worker-pool
// primitives: deterministic parallel-for loops over index ranges.
//
// Every concurrent fan-out in the library (the sharded lazy-greedy fill
// in internal/core, the Monte-Carlo simulator in internal/sim, and the
// per-point experiment sweeps in internal/experiments) funnels through
// this package so that worker-count normalization, error propagation,
// and panic safety are implemented exactly once.
//
// Determinism contract: For imposes no ordering between iterations, so
// callers must make every iteration independent — write results to
// index-addressed slots, never append to shared slices, and derive
// per-iteration RNG streams from the iteration index (see
// stats.SplitMix64) rather than sharing a generator.
package parallel

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
)

// Workers normalizes a requested worker count: values <= 0 select
// runtime.NumCPU() — the machine's full core count, so an unset
// -workers flag uses the hardware rather than whatever GOMAXPROCS
// happens to be capped to — and everything else is returned unchanged.
func Workers(requested int) int {
	if requested <= 0 {
		return runtime.NumCPU()
	}
	return requested
}

// For runs fn(i) for every i in [0, n) on up to workers goroutines and
// returns the error of the lowest failing index (so the reported error
// does not depend on goroutine scheduling). Panics inside fn are
// recovered and rethrown on the calling goroutine. workers <= 0 selects
// NumCPU; workers == 1 (or n <= 1) degrades to a plain sequential
// loop with zero goroutine overhead.
func For(workers, n int, fn func(i int) error) error {
	if n <= 0 {
		return nil
	}
	workers = Workers(workers)
	if workers > n {
		workers = n
	}
	if workers == 1 {
		for i := 0; i < n; i++ {
			if err := fn(i); err != nil {
				return err
			}
		}
		return nil
	}

	var (
		next     atomic.Int64
		wg       sync.WaitGroup
		mu       sync.Mutex
		firstIdx = n
		firstErr error
		panicVal any
	)
	record := func(i int, err error) {
		mu.Lock()
		if i < firstIdx {
			firstIdx, firstErr = i, err
		}
		mu.Unlock()
	}
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				err := func() (err error) {
					defer func() {
						if r := recover(); r != nil {
							mu.Lock()
							if panicVal == nil {
								panicVal = r
							}
							mu.Unlock()
							err = fmt.Errorf("parallel: panic in iteration %d: %v", i, r)
						}
					}()
					return fn(i)
				}()
				if err != nil {
					record(i, err)
				}
			}
		}()
	}
	wg.Wait()
	if panicVal != nil {
		panic(panicVal)
	}
	return firstErr
}
