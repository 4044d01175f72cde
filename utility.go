package cool

import (
	"errors"

	"cool/internal/geometry"
	"cool/internal/submodular"
	"cool/internal/wsn"
)

// Utility is a submodular set function over the network's sensors
// together with a factory for incremental oracles. All scheduling
// algorithms consume utilities through this interface.
type Utility interface {
	Function
	// NewOracle returns a fresh incremental oracle for the empty set.
	NewOracle() RemovalOracle
}

// detectionUtility adapts submodular.DetectionUtility to Utility.
type detectionUtility struct {
	*submodular.DetectionUtility
}

// NewOracle implements Utility.
func (u detectionUtility) NewOracle() RemovalOracle { return u.Oracle() }

// coverageUtility adapts submodular.CoverageUtility to Utility.
type coverageUtility struct {
	*submodular.CoverageUtility
}

// NewOracle implements Utility.
func (u coverageUtility) NewOracle() RemovalOracle { return u.Oracle() }

// wrappedFunction adapts an arbitrary Function via re-evaluation.
type wrappedFunction struct {
	Function
}

// NewOracle implements Utility.
func (u wrappedFunction) NewOracle() RemovalOracle {
	return submodular.NewEvalOracle(u.Function)
}

// NewDetectionUtility builds the paper's probabilistic multi-target
// detection utility U(S) = Σ_j w_j·(1 − Π_{i∈S∩V(O_j)}(1−p_ij)) for a
// network under a detection model.
func NewDetectionUtility(n *Network, model DetectionModel) (Utility, error) {
	u, err := wsn.BuildDetectionUtility(n, model)
	if err != nil {
		return nil, err
	}
	return detectionUtility{u}, nil
}

// NewTargetCountUtility builds weighted target coverage: each target
// contributes its weight when at least one covering sensor is active.
func NewTargetCountUtility(n *Network) (Utility, error) {
	u, err := wsn.BuildTargetCountUtility(n)
	if err != nil {
		return nil, err
	}
	return coverageUtility{u}, nil
}

// AreaWeight assigns a monitoring preference to a location of Ω;
// see NewAreaUtility.
type AreaWeight = wsn.WeightFunc

// NewAreaUtility builds the paper's region-monitoring utility
// (Equation 2): Ω is subdivided into the subregions induced by the
// sensor footprints on a grid of cellsPerSide² cells, and each covered
// subregion contributes weight(centroid)·area. A nil weight means
// uniform preference.
func NewAreaUtility(n *Network, omega Rect, cellsPerSide int, weight AreaWeight) (Utility, error) {
	u, _, err := wsn.BuildAreaUtility(n, omega, cellsPerSide, weight)
	if err != nil {
		return nil, err
	}
	return coverageUtility{u}, nil
}

// Subregions exposes the subdivision of Ω induced by the network's
// footprints (the A_i of Equation 2) for inspection or custom weights.
func Subregions(n *Network, omega Rect, cellsPerSide int) (*geometry.Subdivision, error) {
	if n == nil {
		return nil, errors.New("cool: nil network")
	}
	return geometry.Subdivide(omega, n.Regions(), cellsPerSide)
}

// WrapFunction adapts any normalized non-decreasing submodular Function
// into a Utility using a re-evaluating oracle. Gains cost one Eval per
// query; for large instances implement a specialized oracle instead.
// Validate small instances with CheckSubmodular — the 1/2-approximation
// only holds for submodular non-decreasing utilities.
func WrapFunction(fn Function) (Utility, error) {
	if fn == nil {
		return nil, errors.New("cool: nil function")
	}
	return wrappedFunction{fn}, nil
}

// CoverageItem re-exports the weighted-coverage item type for building
// custom coverage utilities.
type CoverageItem = submodular.CoverageItem

// NewCoverageUtility builds a weighted-coverage utility from explicit
// items (value + covering sensors) over n sensors — the general form of
// Equation 2 when the caller computes its own subregions.
func NewCoverageUtility(n int, items []CoverageItem) (Utility, error) {
	u, err := submodular.NewCoverageUtility(n, items)
	if err != nil {
		return nil, err
	}
	return coverageUtility{u}, nil
}
