package core

import (
	"bytes"
	"encoding/json"
	"slices"
	"testing"
)

// FuzzScheduleJSON hardens the schedule decoder against malformed
// input: it must either reject or produce a structurally valid
// schedule — never panic or accept an inconsistent one. It is also a
// differential: every accepted schedule re-marshals to exactly the
// reflect encoding of scheduleJSON, and the active lists built on first
// use match an eager rebuild.
func FuzzScheduleJSON(f *testing.F) {
	f.Add([]byte(`{"mode":"placement","period":4,"assign":[0,1,2,3]}`))
	f.Add([]byte(`{"mode":"removal","period":3,"assign":[0,-1,2]}`))
	f.Add([]byte(`{"mode":"placement","period":0,"assign":[]}`))
	f.Add([]byte(`{`))
	f.Add([]byte(`{"mode":"placement","period":2,"assign":[9]}`))
	// Corpus extension for the flat-layout PR: decoded schedules now feed
	// oracles whose membership is a fixed-universe bitset, so seeds probe
	// the boundary indices that bitset word math cares about (64-aligned
	// sensor counts, last-word tails, duplicate and descending slots).
	f.Add([]byte(`{"mode":"removal","period":1,"assign":[0]}`))
	f.Add([]byte(`{"mode":"placement","period":64,"assign":[63,0,63]}`))
	f.Add([]byte(`{"mode":"placement","period":3,"assign":[2,2,2,2]}`))
	f.Add([]byte(`{"mode":"removal","period":8,"assign":[7,6,5,4,3,2,1,0]}`))
	f.Add([]byte(`{"mode":"placement","period":2,"assign":[-1,-5,1]}`))
	f.Add([]byte(`{"mode":"removal","period":4,"assign":[3,null,1]}`))
	f.Add([]byte(`{"mode":"PLACEMENT","period":2,"assign":[0,1]}`))
	f.Add([]byte(`{"mode":"placement","period":9007199254740993,"assign":[0]}`))
	f.Add([]byte(`{"mode":"placement","period":2,"assign":[0,1],"assign":[1,0]}`))
	f.Add([]byte(`[]`))
	// Absent sensors, as live schedules carry after a kill, and empty
	// or missing assignments, which encode as null.
	f.Add([]byte(`{"mode":"placement","period":4,"assign":[0,-2,3,-1,-2]}`))
	f.Add([]byte(`{"mode":"removal","period":3,"assign":[-2,1,-1,-2]}`))
	f.Add([]byte(`{"mode":"placement","period":2,"assign":[]}`))
	f.Add([]byte(`{"mode":"removal","period":5,"assign":null}`))
	f.Add([]byte(` {"period":1000000,"assign":[999999,-2],"mode":"placement"} `))
	f.Fuzz(func(t *testing.T, data []byte) {
		var s Schedule
		if err := json.Unmarshal(data, &s); err != nil {
			return // rejected: fine
		}
		if s.Period() <= 0 {
			t.Fatalf("accepted schedule with period %d", s.Period())
		}
		want, err := marshalScheduleReflect(&s)
		if err != nil {
			t.Fatal(err)
		}
		got, err := s.MarshalJSON()
		if err != nil || !bytes.Equal(got, want) {
			t.Fatalf("MarshalJSON = %s, %v; the reflect encoding is %s", got, err, want)
		}
		if got, err := json.Marshal(&s); err != nil || !bytes.Equal(got, want) {
			t.Fatalf("json.Marshal = %s, %v; the reflect encoding is %s", got, err, want)
		}
		eager := eagerSlots(&s)
		sizes := s.SlotSizes()
		for slot := 0; slot < s.Period(); slot++ {
			if !slices.Equal(s.ActiveAt(slot), eager[slot]) || sizes[slot] != len(eager[slot]) {
				t.Fatalf("slot %d: ActiveAt %v, SlotSizes %d; an eager rebuild has %v",
					slot, s.ActiveAt(slot), sizes[slot], eager[slot])
			}
		}
	})
}

// marshalScheduleReflect is the reflect encoding of scheduleJSON, the
// reference MarshalJSON must match byte for byte.
func marshalScheduleReflect(s *Schedule) ([]byte, error) {
	return json.Marshal(scheduleJSON{
		Mode:   s.mode.String(),
		Period: s.period,
		Assign: s.assign,
	})
}

// eagerSlots rebuilds every slot's active list from IsActiveAt, in
// ascending sensor order.
func eagerSlots(s *Schedule) [][]int {
	slots := make([][]int, s.Period())
	for slot := range slots {
		for v := 0; v < s.NumSensors(); v++ {
			if s.IsActiveAt(v, slot) {
				slots[slot] = append(slots[slot], v)
			}
		}
	}
	return slots
}

// FuzzSubsetSumGadget checks that gadget construction never panics and
// only accepts positive items.
func FuzzSubsetSumGadget(f *testing.F) {
	f.Add(int64(1), int64(2), int64(3))
	f.Add(int64(0), int64(5), int64(5))
	f.Add(int64(-7), int64(1), int64(1))
	f.Add(int64(1), int64(1), int64(1))
	f.Add(int64(1<<62), int64(1<<62), int64(2))
	f.Add(int64(9223372036854775807), int64(1), int64(1))
	f.Add(int64(3), int64(5), int64(7))
	f.Fuzz(func(t *testing.T, a, b, c int64) {
		g, err := NewSubsetSumGadget([]int64{a, b, c})
		if err != nil {
			if a > 0 && b > 0 && c > 0 {
				t.Fatalf("positive items rejected: %v", err)
			}
			return
		}
		if a <= 0 || b <= 0 || c <= 0 {
			t.Fatal("non-positive item accepted")
		}
		if g.PartitionTarget() <= 0 {
			t.Fatal("non-positive partition target")
		}
	})
}
