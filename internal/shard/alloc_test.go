package shard

import (
	"testing"

	"cool/internal/netsim"
)

// TestNetStepSteadyStateAllocs pins the per-tick boundary exchange at
// zero allocations with sequential workers: the cross-border queues,
// the netsim scratch buffers, and the ring buckets all retain capacity.
func TestNetStepSteadyStateAllocs(t *testing.T) {
	specs := netFleet(77, 300, 600, 80, 35)
	n, err := NewNet(specs, NetOptions{Shards: 4, Workers: 1, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if n.EffectiveShards() < 2 {
		t.Fatal("decomposition collapsed")
	}
	payload := any("beacon")
	var buf []netsim.Message
	round := func() {
		for i := 0; i < len(specs); i += 5 {
			if _, err := n.Batch(specs[i].ID, payload); err != nil {
				t.Fatal(err)
			}
		}
		n.Step()
		for _, s := range specs {
			buf, _ = n.ReceiveInto(s.ID, buf)
		}
	}
	for i := 0; i < 5; i++ {
		round() // warm caches: queues, ring buckets, inboxes, grid scratch
	}
	if cap(buf) == 0 {
		buf = make([]netsim.Message, 0, 256)
	}
	allocs := testing.AllocsPerRun(30, round)
	if allocs != 0 {
		t.Errorf("sharded net round allocates %.1f times, want 0", allocs)
	}
}
