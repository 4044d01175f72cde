package energy

import (
	"errors"
	"math"
	"testing"
	"testing/quick"
	"time"
)

func TestStateString(t *testing.T) {
	cases := map[State]string{
		StateActive:  "active",
		StatePassive: "passive",
		StateReady:   "ready",
		State(0):     "State(0)",
	}
	for s, want := range cases {
		if got := s.String(); got != want {
			t.Errorf("State(%d).String() = %q, want %q", int(s), got, want)
		}
	}
}

func TestRatesValidate(t *testing.T) {
	if err := (Rates{Discharge: 1, Recharge: 0.5}).Validate(); err != nil {
		t.Errorf("valid rates rejected: %v", err)
	}
	bad := []Rates{
		{Discharge: 0, Recharge: 1},
		{Discharge: 1, Recharge: 0},
		{Discharge: -1, Recharge: 1},
		{Discharge: math.Inf(1), Recharge: 1},
		{Discharge: math.NaN(), Recharge: 1},
	}
	for _, r := range bad {
		if err := r.Validate(); err == nil {
			t.Errorf("rates %+v accepted", r)
		}
	}
}

func TestPeriodFromRhoIntegerRatios(t *testing.T) {
	cases := []struct {
		rho             float64
		active, passive int
	}{
		{3, 1, 3},
		{1, 1, 1},
		{5, 1, 5},
		{0.5, 2, 1},
		{1.0 / 3, 3, 1},
		{0.25, 4, 1},
	}
	for _, c := range cases {
		p, err := PeriodFromRho(c.rho)
		if err != nil {
			t.Fatalf("PeriodFromRho(%v): %v", c.rho, err)
		}
		if p.ActiveSlots != c.active || p.PassiveSlots != c.passive {
			t.Errorf("PeriodFromRho(%v) = %+v, want {%d %d}", c.rho, p, c.active, c.passive)
		}
		if err := p.Validate(); err != nil {
			t.Errorf("period %+v invalid: %v", p, err)
		}
		if math.Abs(p.Rho()-c.rho) > 1e-9 {
			t.Errorf("round trip rho = %v, want %v", p.Rho(), c.rho)
		}
	}
}

func TestPeriodFromRhoRejectsNonIntegral(t *testing.T) {
	for _, rho := range []float64{1.5, 2.7, 0.4, 0.7} {
		if _, err := PeriodFromRho(rho); !errors.Is(err, ErrBadRatio) {
			t.Errorf("PeriodFromRho(%v) error = %v, want ErrBadRatio", rho, err)
		}
	}
	for _, rho := range []float64{0, -1, math.Inf(1), math.NaN()} {
		if _, err := PeriodFromRho(rho); err == nil {
			t.Errorf("PeriodFromRho(%v) accepted", rho)
		}
	}
}

func TestPeriodSlots(t *testing.T) {
	p := Period{ActiveSlots: 1, PassiveSlots: 3}
	if p.Slots() != 4 {
		t.Errorf("Slots = %d, want 4 (the paper's T=ρ+1 with ρ=3)", p.Slots())
	}
}

func TestPeriodValidate(t *testing.T) {
	bad := []Period{
		{ActiveSlots: 0, PassiveSlots: 1},
		{ActiveSlots: 1, PassiveSlots: 0},
		{ActiveSlots: 2, PassiveSlots: 3},
	}
	for _, p := range bad {
		if err := p.Validate(); err == nil {
			t.Errorf("period %+v accepted", p)
		}
	}
}

func TestPeriodFromTimesPaperValues(t *testing.T) {
	// The paper's sunny-weather measurement: Tr = 45 min, Td = 15 min.
	p, slot, err := PeriodFromTimes(45*time.Minute, 15*time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	if p.ActiveSlots != 1 || p.PassiveSlots != 3 {
		t.Errorf("period = %+v, want {1 3}", p)
	}
	if slot != 15*time.Minute {
		t.Errorf("slot = %v, want 15m", slot)
	}
	if p.Slots() != 4 {
		t.Errorf("T = %d slots, want 4", p.Slots())
	}
}

func TestPeriodFromTimesInverted(t *testing.T) {
	p, slot, err := PeriodFromTimes(10*time.Minute, 30*time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	if p.ActiveSlots != 3 || p.PassiveSlots != 1 {
		t.Errorf("period = %+v, want {3 1}", p)
	}
	if slot != 10*time.Minute {
		t.Errorf("slot = %v, want 10m", slot)
	}
}

func TestPeriodFromTimesErrors(t *testing.T) {
	if _, _, err := PeriodFromTimes(0, time.Minute); err == nil {
		t.Error("zero recharge accepted")
	}
	if _, _, err := PeriodFromTimes(time.Minute, 0); err == nil {
		t.Error("zero discharge accepted")
	}
	if _, _, err := PeriodFromTimes(25*time.Minute, 10*time.Minute); err == nil {
		t.Error("non-integral ratio accepted")
	}
}

func TestNewBatteryValidation(t *testing.T) {
	good := Rates{Discharge: 1, Recharge: 1}
	if _, err := NewBattery(0, good); err == nil {
		t.Error("zero capacity accepted")
	}
	if _, err := NewBattery(-2, good); err == nil {
		t.Error("negative capacity accepted")
	}
	if _, err := NewBattery(1, Rates{}); err == nil {
		t.Error("zero rates accepted")
	}
	b, err := NewBattery(4, good)
	if err != nil {
		t.Fatal(err)
	}
	if b.State() != StateReady || b.Level() != 4 {
		t.Errorf("fresh battery wrong: %v %v", b.State(), b.Level())
	}
}

func TestBatteryLifecycle(t *testing.T) {
	// Capacity 1, discharge 1/slot, recharge 1/3 per slot: ρ = 3, T = 4.
	b, err := NewBattery(1, Rates{Discharge: 1, Recharge: 1.0 / 3})
	if err != nil {
		t.Fatal(err)
	}
	if err := b.ForceActivate(); err != nil {
		t.Fatal(err)
	}
	if s := b.Tick(); s != StatePassive {
		t.Fatalf("after active tick: state = %v, want passive", s)
	}
	for i := 0; i < 2; i++ {
		if s := b.Tick(); s != StatePassive {
			t.Fatalf("recharge tick %d: state = %v, want passive", i, s)
		}
	}
	if s := b.Tick(); s != StateReady {
		t.Fatalf("final recharge tick: state = %v, want ready", s)
	}
	if b.Level() != 1 {
		t.Errorf("recharged level = %v, want 1", b.Level())
	}
}

func TestForceActivateRequiresCharge(t *testing.T) {
	b, err := NewBattery(1, Rates{Discharge: 1, Recharge: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if err := b.ForceActivate(); err != nil {
		t.Fatal(err)
	}
	b.Tick() // depletes -> passive
	if err := b.ForceActivate(); !errors.Is(err, ErrNotReady) {
		t.Errorf("activate while empty error = %v, want ErrNotReady", err)
	}
	b.Tick() // half charged: still below one slot's drain
	if err := b.ForceActivate(); !errors.Is(err, ErrNotReady) {
		t.Errorf("activate while half charged error = %v, want ErrNotReady", err)
	}
}

func TestRestKeepsChargeAndRecharges(t *testing.T) {
	// ρ < 1: a node can be active several slots; resting it early keeps
	// the remaining charge and recharges from there.
	b, err := NewBattery(3, Rates{Discharge: 1, Recharge: 3})
	if err != nil {
		t.Fatal(err)
	}
	if err := b.ForceActivate(); err != nil {
		t.Fatal(err)
	}
	b.Tick()
	if b.State() != StateActive || b.Level() != 2 {
		t.Fatalf("after one active slot: state=%v level=%v, want active/2", b.State(), b.Level())
	}
	b.Rest()
	if b.State() != StatePassive || b.Level() != 2 {
		t.Errorf("after rest: state=%v level=%v, want passive/2", b.State(), b.Level())
	}
	if s := b.Tick(); s != StateReady || b.Level() != 3 {
		t.Errorf("after a recharge slot: state=%v level=%v, want ready/3", s, b.Level())
	}
}

func TestReadyStateHoldsLevel(t *testing.T) {
	b, err := NewBattery(2, Rates{Discharge: 1, Recharge: 1})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		b.Tick()
	}
	if b.Level() != 2 || b.State() != StateReady {
		t.Errorf("ready node drifted: level=%v state=%v", b.Level(), b.State())
	}
}

func TestSetRates(t *testing.T) {
	b, err := NewBattery(1, Rates{Discharge: 1, Recharge: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := b.SetRates(Rates{Discharge: 2, Recharge: 0.5}); err != nil {
		t.Fatal(err)
	}
	if b.Rates().Discharge != 2 {
		t.Error("SetRates did not apply")
	}
	if err := b.SetRates(Rates{}); err == nil {
		t.Error("invalid rates accepted by SetRates")
	}
}

func TestBatteryPeriodicityProperty(t *testing.T) {
	// For any integral ρ ≥ 1, an activate + T-1 ticks returns the node
	// to ready with a full battery: the invariant behind Theorem 4.3's
	// "repeat the schedule every period".
	f := func(rhoRaw uint8) bool {
		rho := int(rhoRaw%5) + 1
		b, err := NewBattery(1, Rates{Discharge: 1, Recharge: 1 / float64(rho)})
		if err != nil {
			return false
		}
		for period := 0; period < 3; period++ {
			if b.State() != StateReady {
				return false
			}
			if err := b.ForceActivate(); err != nil {
				return false
			}
			for s := 0; s < rho+1; s++ {
				b.Tick()
			}
			if b.State() != StateReady || math.Abs(b.Level()-1) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
