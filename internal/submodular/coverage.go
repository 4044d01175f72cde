package submodular

import (
	"fmt"
	"math"

	"cool/internal/bitset"
)

// CoverageItem is one element of a weighted-coverage ground truth — in
// the paper's region-monitoring model (Equation 2) an item is a
// subregion A_i with value w_i·|A_i|; in plain target-count coverage an
// item is a target with weight 1.
type CoverageItem struct {
	// Value is the utility contributed when the item is covered by at
	// least one active sensor (w_i·|A_i| in the paper).
	Value float64
	// CoveredBy lists the sensors whose footprint contains the item.
	CoveredBy []int
}

// CoverageUtility is the weighted coverage function
// U(S) = Σ_i I_i(S)·value_i where I_i(S)=1 iff some sensor of S covers
// item i. It is normalized, monotone and submodular.
//
// Memory layout: the sensor↔item incidence is stored twice as
// unweighted CSR (sensor→items for marginal queries, item→sensors for
// bulk sweeps and the LP relaxation's Items view). See DESIGN.md §5.2.
type CoverageUtility struct {
	n      int
	values []float64
	// sensorItems rows are sensors, columns item indices in ascending
	// order (fixing the accumulation order of marginal queries).
	sensorItems CSR
	// itemSensors rows are items, columns sensors in the order the
	// constructor received them (Items round-trips that order).
	itemSensors CSR
}

var _ Function = (*CoverageUtility)(nil)

// NewCoverageUtility builds the utility over a ground set of n sensors.
// Item values must be positive and sensor references in range;
// duplicate sensor references within one item are rejected.
func NewCoverageUtility(n int, items []CoverageItem) (*CoverageUtility, error) {
	if n < 0 {
		return nil, fmt.Errorf("submodular: negative ground size %d", n)
	}
	u := &CoverageUtility{
		n:      n,
		values: make([]float64, len(items)),
	}
	edges := make([]csrEdge, 0, countCovers(items))
	seen := bitset.New(n)
	for i, item := range items {
		if !(item.Value > 0) || math.IsInf(item.Value, 0) {
			return nil, fmt.Errorf("submodular: item %d has invalid value %v", i, item.Value)
		}
		u.values[i] = item.Value
		seen.Clear()
		for _, v := range item.CoveredBy {
			if v < 0 || v >= n {
				return nil, fmt.Errorf(
					"submodular: item %d references sensor %d outside [0,%d)", i, v, n)
			}
			if seen.Contains(v) {
				return nil, fmt.Errorf("submodular: item %d lists sensor %d twice", i, v)
			}
			seen.Add(v)
			edges = append(edges, csrEdge{row: int32(i), col: int32(v)})
		}
	}
	// item→sensors preserves the caller's CoveredBy order per item.
	u.itemSensors = buildCSR(len(items), edges, false)
	// sensor→items: emitted item-major, so every sensor row lists its
	// items in ascending order, matching the pre-CSR accumulation order.
	for k := range edges {
		edges[k].row, edges[k].col = edges[k].col, edges[k].row
	}
	u.sensorItems = buildCSR(n, edges, false)
	return u, nil
}

func countCovers(items []CoverageItem) int {
	c := 0
	for _, it := range items {
		c += len(it.CoveredBy)
	}
	return c
}

// GroundSize implements Function.
func (u *CoverageUtility) GroundSize() int { return u.n }

// NumItems returns the number of coverage items.
func (u *CoverageUtility) NumItems() int { return len(u.values) }

// TotalValue returns the value of covering every item — the maximum of
// the function.
func (u *CoverageUtility) TotalValue() float64 {
	var sum float64
	for i, v := range u.values {
		if u.itemSensors.Degree(i) > 0 {
			sum += v
		}
	}
	return sum
}

// Items returns a copy of the coverage items, exposing the linear
// structure the LP relaxation of the scheduling problem needs.
func (u *CoverageUtility) Items() []CoverageItem {
	items := make([]CoverageItem, len(u.values))
	for i := range items {
		sensors, _ := u.itemSensors.Row(i)
		covered := make([]int, len(sensors))
		for k, v := range sensors {
			covered[k] = int(v)
		}
		items[i] = CoverageItem{Value: u.values[i], CoveredBy: covered}
	}
	return items
}

// Eval implements Function.
func (u *CoverageUtility) Eval(set []int) float64 {
	covered := bitset.New(len(u.values))
	seen := bitset.New(u.n)
	var total float64
	for _, v := range set {
		checkElem(v, u.n)
		if seen.Contains(v) {
			continue
		}
		seen.Add(v)
		items, _ := u.sensorItems.Row(v)
		for _, item := range items {
			if !covered.Contains(int(item)) {
				covered.Add(int(item))
				total += u.values[item]
			}
		}
	}
	return total
}

// Oracle returns an incremental oracle for the empty set.
func (u *CoverageUtility) Oracle() *CoverageOracle {
	return &CoverageOracle{
		u:      u,
		in:     bitset.New(u.n),
		counts: make([]int32, len(u.values)),
	}
}

// CoverageOracle tracks the number of active sensors covering each item,
// giving O(deg) gains and losses with zero allocations.
type CoverageOracle struct {
	u      *CoverageUtility
	in     bitset.Bitset
	counts []int32
	value  float64
}

var (
	_ RemovalOracle  = (*CoverageOracle)(nil)
	_ BulkGainer     = (*CoverageOracle)(nil)
	_ BulkLosser     = (*CoverageOracle)(nil)
	_ AffectedLister = (*CoverageOracle)(nil)
)

// Value implements Oracle.
func (o *CoverageOracle) Value() float64 { return o.value }

// Contains implements Oracle.
func (o *CoverageOracle) Contains(v int) bool {
	checkElem(v, o.u.n)
	return o.in.Contains(v)
}

// Gain implements Oracle.
func (o *CoverageOracle) Gain(v int) float64 {
	checkElem(v, o.u.n)
	if o.in.Contains(v) {
		return 0
	}
	items, _ := o.u.sensorItems.Row(v)
	var delta float64
	for _, item := range items {
		if o.counts[item] == 0 {
			delta += o.u.values[item]
		}
	}
	return delta
}

// BulkGain implements BulkGainer with an item-major sweep: every
// uncovered item pushes its value to all covering sensors in one
// contiguous pass. out[v] is bit-identical to Gain(v).
func (o *CoverageOracle) BulkGain(out []float64) {
	u := o.u
	if len(out) != u.n {
		panic(fmt.Sprintf("submodular: BulkGain buffer %d != ground size %d", len(out), u.n))
	}
	for i := range out {
		out[i] = 0
	}
	for item, val := range u.values {
		if o.counts[item] != 0 {
			continue
		}
		sensors, _ := u.itemSensors.Row(item)
		addScatter(out, sensors, val)
	}
	o.in.ForEach(func(v int) { out[v] = 0 })
}

// AppendAffected implements AffectedLister: every sensor sharing an
// item with v (v itself included when it covers anything), with
// duplicates — callers deduplicate.
func (o *CoverageOracle) AppendAffected(buf []int32, v int) []int32 {
	u := o.u
	checkElem(v, u.n)
	items, _ := u.sensorItems.Row(v)
	for _, item := range items {
		sensors, _ := u.itemSensors.Row(int(item))
		buf = append(buf, sensors...)
	}
	return buf
}

// Add implements Oracle.
func (o *CoverageOracle) Add(v int) {
	checkElem(v, o.u.n)
	if o.in.Contains(v) {
		return
	}
	o.in.Add(v)
	items, _ := o.u.sensorItems.Row(v)
	for _, item := range items {
		if o.counts[item] == 0 {
			o.value += o.u.values[item]
		}
		o.counts[item]++
	}
}

// Loss implements RemovalOracle.
func (o *CoverageOracle) Loss(v int) float64 {
	checkElem(v, o.u.n)
	if !o.in.Contains(v) {
		return 0
	}
	items, _ := o.u.sensorItems.Row(v)
	var delta float64
	for _, item := range items {
		if o.counts[item] == 1 {
			delta += o.u.values[item]
		}
	}
	return delta
}

// BulkLoss implements BulkLosser: every critically-covered item
// (count == 1) pushes its value to its single active coverer. out[v]
// is bit-identical to Loss(v) for members and 0 for non-members.
func (o *CoverageOracle) BulkLoss(out []float64) {
	u := o.u
	if len(out) != u.n {
		panic(fmt.Sprintf("submodular: BulkLoss buffer %d != ground size %d", len(out), u.n))
	}
	for i := range out {
		out[i] = 0
	}
	for item, val := range u.values {
		if o.counts[item] != 1 {
			continue
		}
		sensors, _ := u.itemSensors.Row(item)
		for _, v := range sensors {
			if o.in.Contains(int(v)) {
				out[v] += val
			}
		}
	}
}

// Remove implements RemovalOracle.
func (o *CoverageOracle) Remove(v int) {
	checkElem(v, o.u.n)
	if !o.in.Contains(v) {
		return
	}
	o.in.Remove(v)
	items, _ := o.u.sensorItems.Row(v)
	for _, item := range items {
		o.counts[item]--
		if o.counts[item] == 0 {
			o.value -= o.u.values[item]
		}
	}
}
