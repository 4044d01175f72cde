package wsn

import (
	"errors"
	"fmt"
	"math"

	"cool/internal/geometry"
	"cool/internal/submodular"
)

// DetectionModel yields the probability that a covering sensor detects
// an event at a target. Implementations must return values in [0, 1].
type DetectionModel interface {
	// Prob returns p for the (sensor, target) pair. It is only called
	// for pairs where the sensor covers the target.
	Prob(s Sensor, t Target) float64
}

// FixedProb is the paper's evaluation model: every covering sensor
// detects with the same probability p (p = 0.4 in Section VI).
type FixedProb float64

var _ DetectionModel = FixedProb(0)

// Prob implements DetectionModel.
func (p FixedProb) Prob(Sensor, Target) float64 { return float64(p) }

// DistanceDecay models sensing quality that degrades with distance:
// p = PMax · (1 − d/range)^Gamma, clamped to [0, PMax].
type DistanceDecay struct {
	// PMax is the detection probability at zero distance.
	PMax float64
	// Gamma controls how fast quality decays towards the range edge
	// (1 = linear, 2 = quadratic, ...).
	Gamma float64
}

var _ DetectionModel = DistanceDecay{}

// Prob implements DetectionModel.
func (d DistanceDecay) Prob(s Sensor, t Target) float64 {
	r := s.Range
	if r <= 0 {
		if b, ok := s.Footprint.(geometry.Disk); ok {
			r = b.Radius
		}
	}
	if r <= 0 {
		return d.PMax
	}
	frac := 1 - s.Pos.Dist(t.Pos)/r
	if frac <= 0 {
		return 0
	}
	p := d.PMax * math.Pow(frac, d.Gamma)
	if p > d.PMax {
		p = d.PMax
	}
	return p
}

// BuildDetectionUtility assembles the multi-target probabilistic
// detection utility U(S) = Σ_j w_j (1 − Π_{i∈S∩V(O_j)}(1−p_ij)) for the
// network under the given detection model.
func BuildDetectionUtility(n *Network, model DetectionModel) (*submodular.DetectionUtility, error) {
	if n == nil {
		return nil, errors.New("wsn: nil network")
	}
	if model == nil {
		return nil, errors.New("wsn: nil detection model")
	}
	targets := make([]submodular.DetectionTarget, n.NumTargets())
	for j := range targets {
		t := n.Target(j)
		probs := make(map[int]float64, len(n.Coverers(j)))
		for _, i := range n.Coverers(j) {
			p := model.Prob(n.Sensor(i), t)
			if p < 0 || p > 1 || math.IsNaN(p) {
				return nil, fmt.Errorf(
					"wsn: model returned probability %v for sensor %d target %d", p, i, j)
			}
			probs[i] = p
		}
		targets[j] = submodular.DetectionTarget{Weight: t.Weight, Probs: probs}
	}
	return submodular.NewDetectionUtility(n.NumSensors(), targets)
}

// WeightFunc assigns a monitoring preference w > 0 to a subregion
// (identified by its centroid). Used to express location-dependent
// priorities over Ω.
type WeightFunc func(centroid geometry.Point) float64

// UniformWeight weights every subregion equally.
func UniformWeight(geometry.Point) float64 { return 1 }

// BuildAreaUtility assembles the paper's region-monitoring utility
// (Equation 2): subdivide Ω by the sensors' footprints, then value each
// subregion at w_i·|A_i|. The uncovered background cell is dropped
// (it can never contribute).
func BuildAreaUtility(
	n *Network, omega geometry.Rect, cellsPerSide int, weight WeightFunc,
) (*submodular.CoverageUtility, *geometry.Subdivision, error) {
	if n == nil {
		return nil, nil, errors.New("wsn: nil network")
	}
	if weight == nil {
		weight = UniformWeight
	}
	sub, err := geometry.Subdivide(omega, n.Regions(), cellsPerSide)
	if err != nil {
		return nil, nil, fmt.Errorf("wsn: subdividing Ω: %w", err)
	}
	items := make([]submodular.CoverageItem, 0, len(sub.Cells))
	for _, cell := range sub.Cells {
		if len(cell.Covers) == 0 {
			continue
		}
		w := weight(cell.Centroid)
		if !(w > 0) || math.IsInf(w, 0) {
			return nil, nil, fmt.Errorf(
				"wsn: weight function returned %v at %v", w, cell.Centroid)
		}
		items = append(items, submodular.CoverageItem{
			Value:     w * cell.Area,
			CoveredBy: cell.Covers,
		})
	}
	u, err := submodular.NewCoverageUtility(n.NumSensors(), items)
	if err != nil {
		return nil, nil, err
	}
	return u, sub, nil
}

// BuildTargetCountUtility assembles the simple weighted target-coverage
// utility: a target contributes its weight when at least one covering
// sensor is active (the detection model with p = 1).
func BuildTargetCountUtility(n *Network) (*submodular.CoverageUtility, error) {
	if n == nil {
		return nil, errors.New("wsn: nil network")
	}
	items := make([]submodular.CoverageItem, 0, n.NumTargets())
	for j := 0; j < n.NumTargets(); j++ {
		if len(n.Coverers(j)) == 0 {
			continue
		}
		items = append(items, submodular.CoverageItem{
			Value:     n.Target(j).Weight,
			CoveredBy: n.Coverers(j),
		})
	}
	return submodular.NewCoverageUtility(n.NumSensors(), items)
}
