// Package wsn models the sensor network of the paper (Section II-A):
// sensors with fixed sensing footprints, targets, the coverage relation
// V(O_i), and deployment generators for synthetic evaluations.
package wsn

import (
	"errors"
	"fmt"
	"math"

	"cool/internal/geometry"
	"cool/internal/geometry/grid"
)

// Sensor is one node v_i of the network. Its sensing footprint R(v_i)
// is fixed because the operating power is fixed (paper assumption).
type Sensor struct {
	// ID is the sensor's index in the network, 0-based.
	ID int
	// Pos is the node's location (the paper identifies node and
	// position).
	Pos geometry.Point
	// Range is the sensing radius of the default disk footprint.
	Range float64
	// Footprint optionally overrides the disk footprint with an
	// arbitrary region (e.g. a Sector for a directional sensor). When
	// nil, the disk (Pos, Range) is used.
	Footprint geometry.Region
}

// Region returns the sensing footprint R(v) of the sensor.
func (s Sensor) Region() geometry.Region {
	if s.Footprint != nil {
		return s.Footprint
	}
	return geometry.Disk{Center: s.Pos, Radius: s.Range}
}

// Covers reports whether the sensor's footprint contains the point.
func (s Sensor) Covers(p geometry.Point) bool { return s.Region().Contains(p) }

// Reach returns the Chebyshev reach of the sensor's footprint from its
// position: the smallest r such that the footprint fits inside
// [Pos.X±r] × [Pos.Y±r] (the grid.Item contract; see sensorReach). The
// sensing radius for the default disk, a bounds-derived radius for a
// custom Footprint. The shard partitioner uses it to classify sensors
// whose footprint crosses a shard border as halo.
func (s Sensor) Reach() float64 { return sensorReach(s, s.Region()) }

// Target is one monitored object O_i.
type Target struct {
	// ID is the target's index, 0-based.
	ID int
	// Pos is the target's location.
	Pos geometry.Point
	// Weight is the relative monitoring preference w_i (> 0).
	Weight float64
}

// Network is a deployment: sensors, targets, and the coverage relation
// between them. The target set is fixed at construction; the sensor
// population can evolve incrementally through AddSensors and
// RemoveSensors, which patch the incidence lists in place instead of
// rebuilding them — the O(perturbation)-not-O(fleet) contract the
// online replanner rests on.
type Network struct {
	sensors []Sensor
	targets []Target
	// coverers[j] = sorted sensor IDs covering target j (the paper's
	// V(O_j)).
	coverers [][]int
	// covered[i] = sorted target IDs covered by sensor i.
	covered [][]int
	// removed[i] marks sensors spliced out by RemoveSensors (nil until
	// the first removal). Their Sensor records stay addressable — IDs
	// are ordinal and never compact — but they have no incidence.
	removed []bool
	// targetIx is the reversed-orientation spatial index (targets as
	// zero-reach points), built lazily by the first AddSensors: a new
	// sensor's covered targets are the exact-filtered WithinInto
	// candidates of its position and reach, so one addition costs
	// O(local density), not O(m).
	targetIx *grid.Index
	// buf is the reusable candidate scratch for incremental queries.
	buf []int32
}

// ErrNoSensors is returned when a network is constructed without
// sensors.
var ErrNoSensors = errors.New("wsn: network needs at least one sensor")

// NewNetwork validates the deployment and precomputes the coverage
// relation a_ij (1 iff sensor v_i covers target O_j) using a uniform
// spatial-hash index over the sensor footprints: construction is
// O(n + m + edges) instead of the brute-force O(n·m) pairwise scan,
// which is what unlocks deployments with n ≥ 10⁵ sensors. The
// resulting incidence is *exactly* the brute-force incidence — every
// grid candidate is re-checked with the sensor's own Covers predicate,
// and candidates arrive in ascending sensor ID — so everything built
// on Coverers/CoveredTargets (CSR utilities, schedules, float
// accumulation order) is bit-identical to NewNetworkBruteForce's
// output. The differential tests in griddiff_test.go enforce that
// equality on random and degenerate deployments.
func NewNetwork(sensors []Sensor, targets []Target) (*Network, error) {
	n, err := newNetworkShell(sensors, targets)
	if err != nil {
		return nil, err
	}
	regions := n.Regions()
	items := make([]grid.Item, len(sensors))
	for i, s := range sensors {
		items[i] = grid.Item{Pos: grid.Point(s.Pos), Reach: sensorReach(s, regions[i])}
	}
	ix := grid.Build(items)
	buf := make([]int32, 0, 64)
	for j, t := range targets {
		buf = ix.CandidatesInto(buf, grid.Point(t.Pos))
		for _, ci := range buf {
			i := int(ci)
			if regions[i].Contains(t.Pos) {
				n.coverers[j] = append(n.coverers[j], i)
				n.covered[i] = append(n.covered[i], j)
			}
		}
	}
	return n, nil
}

// NewNetworkBruteForce builds the identical Network via the original
// O(n·m) pairwise scan. It is retained as the reference construction
// for the grid index's differential tests (griddiff_test.go and the
// grid-vs-brute schedule test in internal/experiments); library code
// should use NewNetwork.
func NewNetworkBruteForce(sensors []Sensor, targets []Target) (*Network, error) {
	n, err := newNetworkShell(sensors, targets)
	if err != nil {
		return nil, err
	}
	regions := n.Regions()
	for j, t := range targets {
		for i := range sensors {
			if regions[i].Contains(t.Pos) {
				n.coverers[j] = append(n.coverers[j], i)
				n.covered[i] = append(n.covered[i], j)
			}
		}
	}
	return n, nil
}

// newNetworkShell validates the deployment and allocates the Network
// with empty incidence lists; NewNetwork and NewNetworkBruteForce fill
// them through their respective candidate enumerations.
func newNetworkShell(sensors []Sensor, targets []Target) (*Network, error) {
	if len(sensors) == 0 {
		return nil, ErrNoSensors
	}
	for i, s := range sensors {
		if s.ID != i {
			return nil, fmt.Errorf("wsn: sensor %d has ID %d, want ordinal", i, s.ID)
		}
		if s.Footprint == nil && !(s.Range > 0) {
			return nil, fmt.Errorf("wsn: sensor %d has non-positive range %v", i, s.Range)
		}
	}
	for j, t := range targets {
		if t.ID != j {
			return nil, fmt.Errorf("wsn: target %d has ID %d, want ordinal", j, t.ID)
		}
		if !(t.Weight > 0) || math.IsInf(t.Weight, 0) {
			return nil, fmt.Errorf("wsn: target %d has invalid weight %v", j, t.Weight)
		}
	}
	return &Network{
		sensors:  append([]Sensor(nil), sensors...),
		targets:  append([]Target(nil), targets...),
		coverers: make([][]int, len(targets)),
		covered:  make([][]int, len(sensors)),
	}, nil
}

// sensorReach returns the Chebyshev reach of the sensor's footprint
// from its anchor position: the smallest r such that the footprint's
// bounding box fits in [Pos.X±r] × [Pos.Y±r] (the grid.Item contract).
// For the default disk footprint this is exactly the sensing radius;
// for an arbitrary Footprint it is derived from the region's Bounds,
// handling footprints not centred on the node. Non-finite bounds
// (exotic custom regions) yield a non-finite reach, which grid.Build
// routes to its always-candidate overflow bucket — conservative, never
// wrong.
func sensorReach(s Sensor, reg geometry.Region) float64 {
	if s.Footprint == nil {
		return s.Range
	}
	b := reg.Bounds()
	r := math.Max(
		math.Max(s.Pos.X-b.Min.X, b.Max.X-s.Pos.X),
		math.Max(s.Pos.Y-b.Min.Y, b.Max.Y-s.Pos.Y),
	)
	if r < 0 {
		return 0
	}
	return r
}

// AddSensors appends new sensors to the deployment and patches the
// coverage relation incrementally: each added sensor's covered targets
// come from the lazily-built target index (WithinInto candidates of the
// sensor's position and reach, re-checked with the sensor's own exact
// Covers predicate), so the cost is O(k · local density) for k added
// sensors instead of the O(n + m + edges) full rebuild. Because new IDs
// are strictly larger than every existing ID and candidates arrive in
// ascending target order, the patched incidence lists are bit-identical
// to a NewNetwork rebuild over the extended population (enforced by the
// differential tests in incremental_test.go).
//
// Sensor IDs must continue the ordinal numbering, including the IDs of
// removed sensors: a removed ID is never reused. On error the network
// is unchanged.
func (n *Network) AddSensors(added []Sensor) error {
	base := len(n.sensors)
	for k, s := range added {
		if s.ID != base+k {
			return fmt.Errorf("wsn: added sensor %d has ID %d, want ordinal %d", k, s.ID, base+k)
		}
		if s.Footprint == nil && !(s.Range > 0) {
			return fmt.Errorf("wsn: added sensor %d has non-positive range %v", s.ID, s.Range)
		}
	}
	if n.targetIx == nil {
		pts := make([]grid.Item, len(n.targets))
		for j, t := range n.targets {
			pts[j] = grid.Item{Pos: grid.Point(t.Pos)}
		}
		n.targetIx = grid.Build(pts)
	}
	for _, s := range added {
		reg := s.Region()
		reach := sensorReach(s, reg)
		i := len(n.sensors)
		n.sensors = append(n.sensors, s)
		n.covered = append(n.covered, nil)
		if n.removed != nil {
			n.removed = append(n.removed, false)
		}
		n.buf = n.targetIx.WithinInto(n.buf, grid.Point(s.Pos), reach)
		for _, cj := range n.buf {
			j := int(cj)
			if reg.Contains(n.targets[j].Pos) {
				n.covered[i] = append(n.covered[i], j)
				n.coverers[j] = append(n.coverers[j], i)
			}
		}
	}
	return nil
}

// RemoveSensors splices the given sensors out of the coverage relation:
// each one is deleted from the coverers list of every target it covered
// and its own covered list is cleared, in O(Σ degree) total. The Sensor
// records remain addressable (IDs are ordinal and never compact) but
// Removed reports true and CoversTarget false for them. Removing an
// unknown or already-removed ID is an error; on error the network may
// have removed a prefix of ids.
func (n *Network) RemoveSensors(ids []int) error {
	for _, i := range ids {
		if i < 0 || i >= len(n.sensors) {
			return fmt.Errorf("wsn: cannot remove sensor %d: no such sensor", i)
		}
		if n.removed != nil && n.removed[i] {
			return fmt.Errorf("wsn: sensor %d already removed", i)
		}
		if n.removed == nil {
			n.removed = make([]bool, len(n.sensors))
		}
		n.removed[i] = true
		for _, j := range n.covered[i] {
			list := n.coverers[j]
			for k, v := range list {
				if v == i {
					n.coverers[j] = append(list[:k], list[k+1:]...)
					break
				}
			}
		}
		n.covered[i] = nil
	}
	return nil
}

// Removed reports whether sensor i has been spliced out by
// RemoveSensors.
func (n *Network) Removed(i int) bool {
	return n.removed != nil && n.removed[i]
}

// NumSensors returns n.
func (n *Network) NumSensors() int { return len(n.sensors) }

// NumTargets returns m.
func (n *Network) NumTargets() int { return len(n.targets) }

// Sensor returns sensor i.
func (n *Network) Sensor(i int) Sensor { return n.sensors[i] }

// Target returns target j.
func (n *Network) Target(j int) Target { return n.targets[j] }

// Sensors returns a copy of the sensor slice.
func (n *Network) Sensors() []Sensor { return append([]Sensor(nil), n.sensors...) }

// Targets returns a copy of the target slice.
func (n *Network) Targets() []Target { return append([]Target(nil), n.targets...) }

// Coverers returns V(O_j): the sensors covering target j, in increasing
// ID order. The returned slice must not be modified.
func (n *Network) Coverers(j int) []int { return n.coverers[j] }

// CoveredTargets returns the targets covered by sensor i, in increasing
// ID order. The returned slice must not be modified.
func (n *Network) CoveredTargets(i int) []int { return n.covered[i] }

// CoversTarget reports a_ij: whether sensor i covers target j.
func (n *Network) CoversTarget(i, j int) bool {
	for _, v := range n.coverers[j] {
		if v == i {
			return true
		}
		if v > i {
			return false
		}
	}
	return false
}

// UncoveredTargets returns the IDs of targets no sensor can monitor.
// Such targets contribute zero utility under every policy; callers may
// want to warn about them.
func (n *Network) UncoveredTargets() []int {
	var out []int
	for j := range n.targets {
		if len(n.coverers[j]) == 0 {
			out = append(out, j)
		}
	}
	return out
}

// CoverageDegreeStats returns the min, mean and max number of sensors
// covering a target (0s included).
func (n *Network) CoverageDegreeStats() (min int, mean float64, max int) {
	if len(n.targets) == 0 {
		return 0, 0, 0
	}
	min = len(n.coverers[0])
	var sum int
	for _, c := range n.coverers {
		d := len(c)
		sum += d
		if d < min {
			min = d
		}
		if d > max {
			max = d
		}
	}
	return min, float64(sum) / float64(len(n.targets)), max
}

// Regions returns every sensor's footprint, indexed by sensor ID —
// the input to geometry.Subdivide for the region-coverage utility.
func (n *Network) Regions() []geometry.Region {
	out := make([]geometry.Region, len(n.sensors))
	for i, s := range n.sensors {
		out[i] = s.Region()
	}
	return out
}
