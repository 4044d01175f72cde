package protocol

import (
	"testing"

	"cool/internal/geometry"
	"cool/internal/netsim"
)

// gridEngine builds a connected grid network with the base at the
// origin and returns a ready engine.
func gridEngine(t *testing.T, cfg Config, side int, opts ...netsim.Option) (*Engine, *netsim.Network) {
	t.Helper()
	net, err := netsim.NewNetwork(opts...)
	if err != nil {
		t.Fatal(err)
	}
	id := netsim.NodeID(0)
	for r := 0; r < side; r++ {
		for c := 0; c < side; c++ {
			pos := geometry.Point{X: float64(c) * 10, Y: float64(r) * 10}
			if err := net.AddNode(id, pos, 12); err != nil {
				t.Fatal(err)
			}
			id++
		}
	}
	if !net.Connected() {
		t.Fatal("test grid not connected")
	}
	e, err := NewEngine(cfg, net)
	if err != nil {
		t.Fatal(err)
	}
	for i := netsim.NodeID(0); i < id; i++ {
		if err := e.Register(i); err != nil {
			t.Fatal(err)
		}
	}
	return e, net
}

func TestNewEngineValidation(t *testing.T) {
	if _, err := NewEngine(Config{}, nil); err == nil {
		t.Error("nil network accepted")
	}
	net, err := netsim.NewNetwork()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewEngine(Config{}, net); err == nil {
		t.Error("network without base accepted")
	}
	if err := net.AddNode(BaseID, geometry.Point{}, 10); err != nil {
		t.Fatal(err)
	}
	if _, err := NewEngine(Config{BeaconInterval: -1}, net); err == nil {
		t.Error("negative beacon interval accepted")
	}
}

func TestRegisterValidation(t *testing.T) {
	e, _ := gridEngine(t, Config{}, 2)
	if err := e.Register(0); err == nil {
		t.Error("double registration accepted")
	}
	if err := e.Register(99); err == nil {
		t.Error("unregistered network node accepted")
	}
}

func TestTickRequiresFullRegistration(t *testing.T) {
	net, err := netsim.NewNetwork()
	if err != nil {
		t.Fatal(err)
	}
	if err := net.AddNode(BaseID, geometry.Point{}, 10); err != nil {
		t.Fatal(err)
	}
	if err := net.AddNode(1, geometry.Point{X: 5}, 10); err != nil {
		t.Fatal(err)
	}
	e, err := NewEngine(Config{}, net)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Register(BaseID); err != nil {
		t.Fatal(err)
	}
	if err := e.Tick(); err == nil {
		t.Error("tick with unregistered nodes accepted")
	}
}

func TestTimeSyncConverges(t *testing.T) {
	e, _ := gridEngine(t, Config{BeaconInterval: 3}, 4, netsim.WithSeed(1))
	ticks, ok, err := e.RunUntil(func() bool { return e.SyncedCount() == 16 }, 200)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatalf("sync did not converge: %d/16 after %d ticks", e.SyncedCount(), ticks)
	}
	// Slot estimates are accurate on the lossless next-tick medium.
	for id := netsim.NodeID(1); id < 16; id++ {
		slot, synced, err := e.NodeSlot(id)
		if err != nil {
			t.Fatal(err)
		}
		if !synced {
			t.Fatalf("node %d not synced", id)
		}
		baseSlot, _, err := e.NodeSlot(BaseID)
		if err != nil {
			t.Fatal(err)
		}
		diff := slot - baseSlot
		if diff < -1 || diff > 1 {
			t.Errorf("node %d slot %d vs base %d (drift %d)", id, slot, baseSlot, diff)
		}
	}
}

func TestNodeSlotUnknown(t *testing.T) {
	e, _ := gridEngine(t, Config{}, 2)
	if _, _, err := e.NodeSlot(99); err == nil {
		t.Error("unknown node accepted")
	}
	if _, err := e.NodeSchedule(99); err == nil {
		t.Error("unknown node accepted")
	}
}

func TestDistributeValidation(t *testing.T) {
	e, _ := gridEngine(t, Config{}, 2)
	if err := e.Distribute(ScheduleMsg{Period: 0}); err == nil {
		t.Error("zero period accepted")
	}
	if err := e.Distribute(ScheduleMsg{Period: 2, Assign: []int{5}}); err == nil {
		t.Error("out-of-range assignment accepted")
	}
}

func TestScheduleDisseminationLossless(t *testing.T) {
	e, _ := gridEngine(t, Config{}, 4, netsim.WithSeed(2))
	sched := ScheduleMsg{Version: 1, Period: 4, Assign: []int{0, 1, 2, 3, 0, 1, 2, 3, 0, 1, 2, 3, 0, 1, 2, 3}}
	if err := e.Distribute(sched); err != nil {
		t.Fatal(err)
	}
	_, ok, err := e.RunUntil(e.AllAcked, 300)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatalf("dissemination incomplete: %d/16 acked", e.AckedCount())
	}
	// Every node holds the right schedule.
	for id := netsim.NodeID(1); id < 16; id++ {
		got, err := e.NodeSchedule(id)
		if err != nil {
			t.Fatal(err)
		}
		if got == nil || got.Version != 1 || got.Period != 4 || len(got.Assign) != 16 {
			t.Fatalf("node %d schedule = %+v", id, got)
		}
	}
}

func TestScheduleDisseminationSurvivesLoss(t *testing.T) {
	e, _ := gridEngine(t, Config{RefloodInterval: 5}, 4, netsim.WithLoss(0.3), netsim.WithSeed(3))
	sched := ScheduleMsg{Version: 1, Period: 2, Assign: make([]int, 16)}
	if err := e.Distribute(sched); err != nil {
		t.Fatal(err)
	}
	ticks, ok, err := e.RunUntil(e.AllAcked, 2000)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatalf("dissemination under loss incomplete after %d ticks: %d/16", ticks, e.AckedCount())
	}
}

func TestScheduleVersionUpgrade(t *testing.T) {
	e, _ := gridEngine(t, Config{}, 3, netsim.WithSeed(4))
	if err := e.Distribute(ScheduleMsg{Version: 1, Period: 2, Assign: make([]int, 9)}); err != nil {
		t.Fatal(err)
	}
	if _, ok, err := e.RunUntil(e.AllAcked, 300); err != nil || !ok {
		t.Fatalf("v1 dissemination failed: %v", err)
	}
	v2 := ScheduleMsg{Version: 2, Period: 4, Assign: make([]int, 9)}
	if err := e.Distribute(v2); err != nil {
		t.Fatal(err)
	}
	if e.AllAcked() {
		t.Error("acks should reset on new version")
	}
	if _, ok, err := e.RunUntil(e.AllAcked, 300); err != nil || !ok {
		t.Fatalf("v2 dissemination failed: %v", err)
	}
	got, err := e.NodeSchedule(8)
	if err != nil {
		t.Fatal(err)
	}
	if got.Version != 2 || got.Period != 4 {
		t.Errorf("node kept stale schedule: %+v", got)
	}
}

func TestConvergecastCollectsReports(t *testing.T) {
	e, _ := gridEngine(t, Config{BeaconInterval: 2}, 4, netsim.WithSeed(5))
	// Let the tree form first.
	if _, ok, err := e.RunUntil(func() bool { return e.SyncedCount() == 16 }, 300); err != nil || !ok {
		t.Fatalf("tree formation failed: %v", err)
	}
	for id := netsim.NodeID(1); id < 16; id++ {
		if err := e.Report(id, 7, float64(id)); err != nil {
			t.Fatal(err)
		}
	}
	_, ok, err := e.RunUntil(func() bool { return len(e.Collected()) >= 15 }, 500)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatalf("collected %d of 15 reports", len(e.Collected()))
	}
	seen := make(map[netsim.NodeID]bool)
	for _, r := range e.Collected() {
		if r.Slot != 7 || r.Value != float64(r.Origin) {
			t.Errorf("corrupted report %+v", r)
		}
		if seen[r.Origin] {
			t.Errorf("duplicate report from %d", r.Origin)
		}
		seen[r.Origin] = true
	}
}

// TestConvergecastSurvivesLoss: hop-by-hop acked retransmission keeps
// collection complete on a 30%-lossy medium.
func TestConvergecastSurvivesLoss(t *testing.T) {
	e, _ := gridEngine(t, Config{BeaconInterval: 2, ReportRetryInterval: 3},
		4, netsim.WithLoss(0.3), netsim.WithSeed(8))
	if _, ok, err := e.RunUntil(func() bool { return e.SyncedCount() == 16 }, 1000); err != nil || !ok {
		t.Fatalf("tree formation failed: %v (synced %d)", err, e.SyncedCount())
	}
	for id := netsim.NodeID(1); id < 16; id++ {
		for seq := 0; seq < 3; seq++ {
			if err := e.Report(id, seq, float64(id)); err != nil {
				t.Fatal(err)
			}
		}
	}
	ticks, ok, err := e.RunUntil(func() bool { return len(e.Collected()) >= 45 }, 5000)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatalf("collected %d of 45 reports after %d ticks", len(e.Collected()), ticks)
	}
	// No duplicates despite retransmissions.
	seen := make(map[reportKey]bool)
	for _, r := range e.Collected() {
		k := reportKey{r.Origin, r.Seq}
		if seen[k] {
			t.Errorf("duplicate collected report %+v", r)
		}
		seen[k] = true
	}
}

func TestReportFromBaseCollectsDirectly(t *testing.T) {
	e, _ := gridEngine(t, Config{}, 2)
	if err := e.Report(BaseID, 1, 3.5); err != nil {
		t.Fatal(err)
	}
	if got := e.Collected(); len(got) != 1 || got[0].Value != 3.5 {
		t.Errorf("Collected = %+v", got)
	}
	if err := e.Report(99, 0, 0); err == nil {
		t.Error("report from unknown node accepted")
	}
}

func TestReportDeduplication(t *testing.T) {
	e, _ := gridEngine(t, Config{}, 2)
	// Same origin, distinct sequence numbers: both collected.
	if err := e.Report(BaseID, 1, 1); err != nil {
		t.Fatal(err)
	}
	if err := e.Report(BaseID, 1, 2); err != nil {
		t.Fatal(err)
	}
	if len(e.Collected()) != 2 {
		t.Errorf("collected = %d, want 2", len(e.Collected()))
	}
}

func TestAllAckedWithoutSchedule(t *testing.T) {
	e, _ := gridEngine(t, Config{}, 2)
	if e.AllAcked() {
		t.Error("AllAcked true with no schedule")
	}
}

// TestReparentingAfterRelayFailure: killing a relay mid-collection
// forces its children to adopt a new parent from subsequent beacons and
// re-deliver their pending reports along the new route.
func TestReparentingAfterRelayFailure(t *testing.T) {
	// A 3-row corridor: base at origin; two parallel relay columns so an
	// alternative route exists when one relay dies.
	net, err := netsim.NewNetwork(netsim.WithSeed(31))
	if err != nil {
		t.Fatal(err)
	}
	add := func(id netsim.NodeID, x, y float64) {
		t.Helper()
		if err := net.AddNode(id, geometry.Point{X: x, Y: y}, 13); err != nil {
			t.Fatal(err)
		}
	}
	add(BaseID, 0, 0)
	add(1, 10, 5)  // relay A
	add(2, 10, -5) // relay B
	add(3, 20, 0)  // leaf reachable through either relay
	e, err := NewEngine(Config{BeaconInterval: 2, ReportRetryInterval: 3}, net)
	if err != nil {
		t.Fatal(err)
	}
	for id := netsim.NodeID(0); id <= 3; id++ {
		if err := e.Register(id); err != nil {
			t.Fatal(err)
		}
	}
	if _, ok, err := e.RunUntil(func() bool { return e.SyncedCount() == 4 }, 200); err != nil || !ok {
		t.Fatalf("tree formation failed: %v", err)
	}
	// Find the leaf's current relay and kill it.
	relay := netsim.NodeID(1)
	if e.nodes[3].parent == 2 {
		relay = 2
	}
	if e.nodes[3].parent != relay {
		t.Fatalf("leaf parent = %d, expected a relay", e.nodes[3].parent)
	}
	if err := net.SetDown(relay, true); err != nil {
		t.Fatal(err)
	}
	if err := e.Report(3, 5, 42); err != nil {
		t.Fatal(err)
	}
	_, ok, err := e.RunUntil(func() bool { return len(e.Collected()) >= 1 }, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatal("report never arrived after relay failure")
	}
	got := e.Collected()[0]
	if got.Origin != 3 || got.Value != 42 {
		t.Errorf("collected %+v", got)
	}
	if e.nodes[3].parent == relay {
		t.Error("leaf still parented to the dead relay")
	}
}

func TestAckedCountProgress(t *testing.T) {
	e, _ := gridEngine(t, Config{}, 3, netsim.WithSeed(40))
	// The base always holds its own (future) schedule, so it counts as
	// acked from the start.
	if e.AckedCount() != 1 {
		t.Errorf("acked before distribute = %d, want 1 (base)", e.AckedCount())
	}
	if err := e.Distribute(ScheduleMsg{Version: 1, Period: 2, Assign: make([]int, 9)}); err != nil {
		t.Fatal(err)
	}
	if e.AckedCount() != 1 {
		t.Errorf("base should self-ack: %d", e.AckedCount())
	}
	if _, ok, err := e.RunUntil(e.AllAcked, 300); err != nil || !ok {
		t.Fatalf("dissemination failed: %v", err)
	}
	if e.AckedCount() != 9 {
		t.Errorf("acked = %d, want 9", e.AckedCount())
	}
}

func TestRunUntilImmediateAndTimeout(t *testing.T) {
	e, _ := gridEngine(t, Config{}, 2, netsim.WithSeed(41))
	ticks, ok, err := e.RunUntil(func() bool { return true }, 10)
	if err != nil || !ok || ticks != 0 {
		t.Errorf("immediate predicate: ticks=%d ok=%v err=%v", ticks, ok, err)
	}
	ticks, ok, err = e.RunUntil(func() bool { return false }, 5)
	if err != nil || ok || ticks != 5 {
		t.Errorf("timeout: ticks=%d ok=%v err=%v", ticks, ok, err)
	}
}

// TestAggregationLateArrivalForwarded: a partial aggregate arriving
// after the relay already sent its own is forwarded raw instead of
// silently dropped.
func TestAggregationLateArrivalForwarded(t *testing.T) {
	// Line topology: base - relay - leaf, with a slow leaf (big slack
	// makes the relay send before the leaf's aggregate arrives).
	net, err := netsim.NewNetwork(netsim.WithDelay(1, 2), netsim.WithSeed(42))
	if err != nil {
		t.Fatal(err)
	}
	for i, x := range []float64{0, 10, 20} {
		if err := net.AddNode(netsim.NodeID(i), geometry.Point{X: x}, 12); err != nil {
			t.Fatal(err)
		}
	}
	e, err := NewEngine(Config{BeaconInterval: 2}, net)
	if err != nil {
		t.Fatal(err)
	}
	for i := netsim.NodeID(0); i < 3; i++ {
		if err := e.Register(i); err != nil {
			t.Fatal(err)
		}
	}
	if _, ok, err := e.RunUntil(func() bool { return e.SyncedCount() == 3 }, 200); err != nil || !ok {
		t.Fatalf("sync failed: %v", err)
	}
	// Tight slack: depth budget 1 means relay and leaf share a deadline,
	// so the leaf's aggregate can reach the relay after it already sent.
	if err := e.StartAggregation(1, func(id netsim.NodeID) float64 { return 1 }, 1, 1); err != nil {
		t.Fatal(err)
	}
	if _, _, err := e.RunUntil(func() bool {
		res, _ := e.AggregateResult(1)
		return res.Count == 3
	}, 300); err != nil {
		t.Fatal(err)
	}
	res, _ := e.AggregateResult(1)
	if res.Count != 3 {
		t.Errorf("count = %d, want 3 (late arrivals must be forwarded)", res.Count)
	}
}
