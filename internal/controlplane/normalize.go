package controlplane

import (
	"fmt"
	"math"

	"cool"
)

// Normalize canonicalizes and validates a deployment spec — the
// control plane's normalizer/validator stage. Invalid inputs are
// classified deterministically (the returned error depends only on the
// spec), and valid specs are brought to a canonical form so that
// equality of normalized specs is equality of deployments:
//
//   - Utility "" becomes UtilityTargets.
//   - Target weights 0 become 1 (the wsn.DeployConfig default).
//   - Rho is rounded to the exact ratio of its normalized period, so
//     3.0000000001 and 3 fingerprint identically.
//
// Sensor and target order is preserved — IDs are ordinal, so order is
// semantic, not presentation.
func Normalize(spec DeploymentSpec) (DeploymentSpec, error) {
	period, err := cool.PeriodFromRho(spec.Rho)
	if err != nil {
		return DeploymentSpec{}, fmt.Errorf("controlplane: spec rho: %w", err)
	}
	spec.Rho = period.Rho()

	switch spec.Utility {
	case "", UtilityTargets:
		spec.Utility = UtilityTargets
		if spec.DetectProb != 0 {
			return DeploymentSpec{}, fmt.Errorf("controlplane: detect_prob %v meaningless for %q utility", spec.DetectProb, UtilityTargets)
		}
	case UtilityDetection:
		if !(spec.DetectProb > 0 && spec.DetectProb <= 1) {
			return DeploymentSpec{}, fmt.Errorf("controlplane: detection utility needs detect_prob in (0,1], got %v", spec.DetectProb)
		}
	default:
		return DeploymentSpec{}, fmt.Errorf("controlplane: unknown utility %q", spec.Utility)
	}

	if len(spec.Sensors) == 0 {
		return DeploymentSpec{}, fmt.Errorf("controlplane: spec has no sensors")
	}
	if len(spec.Targets) == 0 {
		return DeploymentSpec{}, fmt.Errorf("controlplane: spec has no targets")
	}
	sensors := append([]SensorSpec(nil), spec.Sensors...)
	for i, s := range sensors {
		if !finite(s.X) || !finite(s.Y) {
			return DeploymentSpec{}, fmt.Errorf("controlplane: sensor %d has non-finite position (%v, %v)", i, s.X, s.Y)
		}
		if !(s.Range > 0) || !finite(s.Range) {
			return DeploymentSpec{}, fmt.Errorf("controlplane: sensor %d has invalid range %v", i, s.Range)
		}
	}
	targets := append([]TargetSpec(nil), spec.Targets...)
	for j := range targets {
		t := &targets[j]
		if !finite(t.X) || !finite(t.Y) {
			return DeploymentSpec{}, fmt.Errorf("controlplane: target %d has non-finite position (%v, %v)", j, t.X, t.Y)
		}
		if t.Weight == 0 {
			t.Weight = 1
		}
		if !(t.Weight > 0) || !finite(t.Weight) {
			return DeploymentSpec{}, fmt.Errorf("controlplane: target %d has invalid weight %v", j, t.Weight)
		}
	}
	spec.Sensors = sensors
	spec.Targets = targets
	return spec, nil
}

func finite(x float64) bool { return !math.IsNaN(x) && !math.IsInf(x, 0) }

// Fingerprint digests a normalized spec into the snapshot identity:
// the hex SHA-256 of its canonical bytes, those json.Marshal writes
// for it (appendSpec). The encoding is deterministic (fixed field
// order, shortest round-trip floats), so equal normalized specs always
// digest equally. Provenance (name, parent) is deliberately outside the
// digest — identity is content, lineage is metadata.
func Fingerprint(spec DeploymentSpec) (string, error) {
	_, fp, err := canonicalFingerprint(&spec)
	if err != nil {
		return "", fmt.Errorf("controlplane: fingerprinting spec: %w", err)
	}
	return fp, nil
}

// BuildPlanner materializes the engine stack for a normalized spec:
// network → utility → planner, exactly the construction a direct
// library user performs. The daemon calling this (and nothing else) is
// what makes it a transparent transport — the e2e differential harness
// holds the two paths bit-identical.
func BuildPlanner(spec DeploymentSpec) (*cool.Planner, error) {
	sensors := make([]cool.Sensor, len(spec.Sensors))
	for i, s := range spec.Sensors {
		sensors[i] = cool.Sensor{ID: i, Pos: cool.Point{X: s.X, Y: s.Y}, Range: s.Range}
	}
	targets := make([]cool.Target, len(spec.Targets))
	for j, t := range spec.Targets {
		targets[j] = cool.Target{ID: j, Pos: cool.Point{X: t.X, Y: t.Y}, Weight: t.Weight}
	}
	net, err := cool.NewNetwork(sensors, targets)
	if err != nil {
		return nil, err
	}
	var util cool.Utility
	switch spec.Utility {
	case UtilityDetection:
		util, err = cool.NewDetectionUtility(net, cool.FixedProb(spec.DetectProb))
	default:
		util, err = cool.NewTargetCountUtility(net)
	}
	if err != nil {
		return nil, err
	}
	period, err := cool.PeriodFromRho(spec.Rho)
	if err != nil {
		return nil, err
	}
	return cool.NewPlanner(util, period)
}
