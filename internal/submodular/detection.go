package submodular

import (
	"fmt"
	"math"

	"cool/internal/bitset"
)

// DetectionTarget describes one monitored target O_i for the
// probabilistic-detection utility U_i(S) = w · (1 − Π_{v∈S}(1−p_v)):
// the probability that at least one activated covering sensor detects
// an event at the target (Section II-C of the paper).
type DetectionTarget struct {
	// Weight scales the target's utility (w_i > 0); use 1 for the
	// paper's unweighted sum.
	Weight float64
	// Probs maps a covering sensor's index to its detection probability
	// p ∈ [0, 1]. Sensors absent from the map do not cover the target.
	// The map is only the construction-time input format; NewDetection-
	// Utility compiles it into flat CSR incidence arrays.
	Probs map[int]float64
}

// DetectionUtility is the multi-target probabilistic detection utility
// U(S) = Σ_i U_i(S ∩ V(O_i)). It is normalized, monotone and submodular
// for any probabilities in [0, 1].
//
// Memory layout: the sensor↔target incidence is stored twice as CSR
// (sensor→targets for marginal queries, target→sensors for bulk
// target-major sweeps and per-target reporting), with the per-edge
// survival factor q = 1−p as the parallel value array. See DESIGN.md
// §5.2.
type DetectionUtility struct {
	n       int
	weights []float64
	// sensorTargets rows are sensors, columns targets, values q = 1−p.
	// Within each row targets appear in ascending order, which fixes the
	// floating-point accumulation order of every marginal query.
	sensorTargets CSR
	// targetSensors rows are targets, columns sensors (ascending),
	// values q = 1−p.
	targetSensors CSR
}

var _ Function = (*DetectionUtility)(nil)

// NewDetectionUtility builds the utility over a ground set of n
// sensors. It validates that every referenced sensor index is in range,
// every probability is in [0, 1], and every weight is positive.
func NewDetectionUtility(n int, targets []DetectionTarget) (*DetectionUtility, error) {
	if n < 0 {
		return nil, fmt.Errorf("submodular: negative ground size %d", n)
	}
	u := &DetectionUtility{
		n:       n,
		weights: make([]float64, len(targets)),
	}
	edges := make([]csrEdge, 0, countProbs(targets))
	for i, tgt := range targets {
		if !(tgt.Weight > 0) || math.IsInf(tgt.Weight, 0) {
			return nil, fmt.Errorf("submodular: target %d has invalid weight %v", i, tgt.Weight)
		}
		u.weights[i] = tgt.Weight
		for v, p := range tgt.Probs {
			if v < 0 || v >= n {
				return nil, fmt.Errorf(
					"submodular: target %d references sensor %d outside [0,%d)", i, v, n)
			}
			if p < 0 || p > 1 || math.IsNaN(p) {
				return nil, fmt.Errorf(
					"submodular: target %d sensor %d has probability %v outside [0,1]", i, v, p)
			}
			edges = append(edges, csrEdge{row: int32(i), col: int32(v), val: 1 - p})
		}
	}
	// target→sensors: group by target, then sort each row by sensor so
	// map-iteration order never leaks into the layout.
	u.targetSensors = buildCSR(len(targets), edges, true)
	u.targetSensors.sortRowsByCol()
	// sensor→targets: emit edges target-major from the sorted structure,
	// so each sensor's row lists its targets in ascending order — the
	// same per-sensor accumulation order the pre-CSR implementation used.
	edges = edges[:0]
	for i := 0; i < len(targets); i++ {
		sensors, qs := u.targetSensors.Row(i)
		for k, v := range sensors {
			edges = append(edges, csrEdge{row: v, col: int32(i), val: qs[k]})
		}
	}
	u.sensorTargets = buildCSR(n, edges, true)
	return u, nil
}

func countProbs(targets []DetectionTarget) int {
	c := 0
	for _, t := range targets {
		c += len(t.Probs)
	}
	return c
}

// GroundSize implements Function.
func (u *DetectionUtility) GroundSize() int { return u.n }

// NumTargets returns the number of targets m.
func (u *DetectionUtility) NumTargets() int { return len(u.weights) }

// TotalWeight returns Σ_i w_i, the utility of detecting everything with
// certainty — the natural upper bound of the function.
func (u *DetectionUtility) TotalWeight() float64 {
	var sum float64
	for _, w := range u.weights {
		sum += w
	}
	return sum
}

// Eval implements Function. The per-target survival update and the
// weighted complement reduction run on the unrolled scatter kernels of
// kernels.go; the tests hold it bit for bit to the plain loops of
// EvalScalar.
func (u *DetectionUtility) Eval(set []int) float64 {
	seen := bitset.New(u.n)
	surv := make([]float64, len(u.weights))
	for i := range surv {
		surv[i] = 1
	}
	for _, v := range set {
		checkElem(v, u.n)
		if seen.Contains(v) {
			continue
		}
		seen.Add(v)
		ts, qs := u.sensorTargets.Row(v)
		mulScatter(surv, ts, qs)
	}
	return weightedComplementSum(u.weights, surv)
}

// TargetValue returns U_i(S) for a single target index, useful for
// reporting per-target quality.
func (u *DetectionUtility) TargetValue(target int, set []int) float64 {
	if target < 0 || target >= len(u.weights) {
		panic(fmt.Sprintf("submodular: target %d out of range", target))
	}
	surv := 1.0
	seen := bitset.New(u.n)
	for _, v := range set {
		if seen.Contains(v) {
			continue
		}
		seen.Add(v)
		if q, ok := u.targetSensors.lookup(target, int32(v)); ok {
			surv *= q
		}
	}
	return u.weights[target] * (1 - surv)
}

// Oracle returns an incremental oracle for the empty set. Gain and Loss
// queries cost O(deg(v)) where deg(v) is the number of targets sensor v
// covers, with zero allocations.
func (u *DetectionUtility) Oracle() *DetectionOracle {
	m := len(u.weights)
	o := &DetectionOracle{
		u:     u,
		in:    bitset.New(u.n),
		surv:  make([]float64, m),
		eff:   make([]float64, m),
		zeros: make([]int32, m),
		mark:  make([]uint32, u.n),
	}
	for i := range o.surv {
		o.surv[i] = 1
		o.eff[i] = 1
	}
	return o
}

// DetectionOracle incrementally tracks, per target, the survival
// probability Π(1−p) of the current set. Sensors with p = 1 are counted
// separately (zeros) so that Remove can undo them without dividing by
// zero; eff caches the effective survival (0 when zeros > 0, surv
// otherwise) so the Gain hot loop touches a single float64 array per
// target instead of re-deriving it from two.
type DetectionOracle struct {
	u     *DetectionUtility
	in    bitset.Bitset
	surv  []float64 // product of q over members with q > 0
	eff   []float64 // effective survival: 0 if zeros > 0, else surv
	zeros []int32   // count of members with q == 0 (p == 1)
	value float64
	// mark/epoch are the sparse-refresh dedup scratch: mark[v] == epoch
	// means sensor v was already recomputed during the current
	// SparseGainRefreshAll/SparseLossRefreshAll sweep. Pure scratch — never
	// part of the set state.
	mark  []uint32
	epoch uint32
}

var (
	_ RemovalOracle            = (*DetectionOracle)(nil)
	_ BulkGainer               = (*DetectionOracle)(nil)
	_ BulkLosser               = (*DetectionOracle)(nil)
	_ SparseGainBatchRefresher = (*DetectionOracle)(nil)
	_ SparseLossBatchRefresher = (*DetectionOracle)(nil)
	_ AffectedLister           = (*DetectionOracle)(nil)
)

// refreshEff re-derives eff[t] after a surv/zeros update.
func (o *DetectionOracle) refreshEff(t int32) {
	if o.zeros[t] > 0 {
		o.eff[t] = 0
	} else {
		o.eff[t] = o.surv[t]
	}
}

// Value implements Oracle.
func (o *DetectionOracle) Value() float64 { return o.value }

// Contains implements Oracle.
func (o *DetectionOracle) Contains(v int) bool {
	checkElem(v, o.u.n)
	return o.in.Contains(v)
}

// Gain implements Oracle.
func (o *DetectionOracle) Gain(v int) float64 {
	checkElem(v, o.u.n)
	if o.in.Contains(v) {
		return 0
	}
	ts, qs := o.u.sensorTargets.Row(v)
	var delta float64
	for k, t := range ts {
		s := o.eff[t]
		delta += o.u.weights[t] * (s - s*qs[k])
	}
	return delta
}

// BulkGain implements BulkGainer with a target-major sweep over the
// target→sensors CSR: one pass of contiguous reads, accumulating into
// out, instead of GroundSize independent sensor-major walks. Per
// sensor the contributions arrive in ascending target order — exactly
// Gain's accumulation order — so out[v] is bit-identical to Gain(v).
func (o *DetectionOracle) BulkGain(out []float64) {
	u := o.u
	if len(out) != u.n {
		panic(fmt.Sprintf("submodular: BulkGain buffer %d != ground size %d", len(out), u.n))
	}
	for i := range out {
		out[i] = 0
	}
	for t := range u.weights {
		e := o.eff[t]
		if e == 0 {
			continue // contributes w·(0−0·q) = 0 to every covering sensor
		}
		w := u.weights[t]
		vs, qs := u.targetSensors.Row(t)
		gainScatter(out, vs, qs, w, e)
	}
	o.in.ForEach(func(v int) { out[v] = 0 })
}

// bumpEpoch advances the sparse-refresh stamp, clearing the mark array
// on the (once per 2³² sweeps) wraparound so stale stamps can never
// alias the fresh epoch.
func (o *DetectionOracle) bumpEpoch() {
	o.epoch++
	if o.epoch == 0 {
		for i := range o.mark {
			o.mark[i] = 0
		}
		o.epoch = 1
	}
}

// SparseGainRefreshAll implements SparseGainBatchRefresher: one epoch,
// one sweep over the union of the changed sensors' target rows — a
// sensor reachable from several changed sensors' footprints is
// recomputed exactly once. Exactness of the untouched entries is
// definitional: a sensor sharing no target with a changed sensor has a
// gain summing over per-target survivals none of the mutations
// altered. Touched sensors are recomputed via Gain (recompute, not
// delta), which the Bulk contract keeps bit-identical to a full
// BulkGain sweep however many mutations the batch applied. The epoch
// mark that dedups the recompute also dedups the row report: each
// recomputed sensor is appended to rows exactly once.
func (o *DetectionOracle) SparseGainRefreshAll(changed []int, out []float64, rows []int32) []int32 {
	u := o.u
	if len(out) != u.n {
		panic(fmt.Sprintf("submodular: SparseGainRefreshAll buffer %d != ground size %d", len(out), u.n))
	}
	o.bumpEpoch()
	for _, c := range changed {
		checkElem(c, u.n)
		ts, _ := u.sensorTargets.Row(c)
		for _, t := range ts {
			vs, _ := u.targetSensors.Row(int(t))
			for _, v := range vs {
				if o.mark[v] == o.epoch {
					continue
				}
				o.mark[v] = o.epoch
				out[v] = o.Gain(int(v))
				rows = append(rows, v)
			}
		}
	}
	// Degree-0 changed sensors are never visited by the row sweep; their
	// entries still need the member-is-zero rewrite.
	for _, c := range changed {
		if o.mark[c] != o.epoch {
			o.mark[c] = o.epoch
			out[c] = o.Gain(c)
			rows = append(rows, int32(c))
		}
	}
	return rows
}

// SparseLossRefreshAll implements SparseLossBatchRefresher: the
// removal-side dual of SparseGainRefreshAll.
func (o *DetectionOracle) SparseLossRefreshAll(changed []int, out []float64, rows []int32) []int32 {
	u := o.u
	if len(out) != u.n {
		panic(fmt.Sprintf("submodular: SparseLossRefreshAll buffer %d != ground size %d", len(out), u.n))
	}
	o.bumpEpoch()
	for _, c := range changed {
		checkElem(c, u.n)
		ts, _ := u.sensorTargets.Row(c)
		for _, t := range ts {
			vs, _ := u.targetSensors.Row(int(t))
			for _, v := range vs {
				if o.mark[v] == o.epoch {
					continue
				}
				o.mark[v] = o.epoch
				out[v] = o.Loss(int(v))
				rows = append(rows, v)
			}
		}
	}
	for _, c := range changed {
		if o.mark[c] != o.epoch {
			o.mark[c] = o.epoch
			out[c] = o.Loss(c)
			rows = append(rows, int32(c))
		}
	}
	return rows
}

// AppendAffected implements AffectedLister: every sensor sharing a
// target with v (v itself included when it covers anything), with
// duplicates — callers deduplicate.
func (o *DetectionOracle) AppendAffected(buf []int32, v int) []int32 {
	u := o.u
	checkElem(v, u.n)
	ts, _ := u.sensorTargets.Row(v)
	for _, t := range ts {
		vs, _ := u.targetSensors.Row(int(t))
		buf = append(buf, vs...)
	}
	return buf
}

// Add implements Oracle.
func (o *DetectionOracle) Add(v int) {
	checkElem(v, o.u.n)
	if o.in.Contains(v) {
		return
	}
	o.in.Add(v)
	ts, qs := o.u.sensorTargets.Row(v)
	for k, t := range ts {
		s := o.eff[t]
		if q := qs[k]; q == 0 {
			o.zeros[t]++
		} else {
			o.surv[t] *= q
		}
		o.refreshEff(t)
		o.value += o.u.weights[t] * (s - o.eff[t])
	}
}

// lossAt returns the survival probability of target t if one member
// with factor q were removed, given the current surv/zeros state.
func (o *DetectionOracle) lossWithout(t int32, q float64) float64 {
	if q == 0 {
		if o.zeros[t] > 1 {
			return 0
		}
		return o.surv[t]
	}
	if o.zeros[t] > 0 {
		return 0
	}
	return o.surv[t] / q
}

// Loss implements RemovalOracle.
func (o *DetectionOracle) Loss(v int) float64 {
	checkElem(v, o.u.n)
	if !o.in.Contains(v) {
		return 0
	}
	ts, qs := o.u.sensorTargets.Row(v)
	var delta float64
	for k, t := range ts {
		cur := o.eff[t]
		delta += o.u.weights[t] * (o.lossWithout(t, qs[k]) - cur)
	}
	return delta
}

// BulkLoss implements BulkLosser: the target-major dual of BulkGain.
// out[v] is bit-identical to Loss(v) for members and 0 for non-members.
func (o *DetectionOracle) BulkLoss(out []float64) {
	u := o.u
	if len(out) != u.n {
		panic(fmt.Sprintf("submodular: BulkLoss buffer %d != ground size %d", len(out), u.n))
	}
	for i := range out {
		out[i] = 0
	}
	for t := range u.weights {
		w := u.weights[t]
		cur := o.eff[t]
		vs, qs := u.targetSensors.Row(t)
		qs = qs[:len(vs)]
		for k, v := range vs {
			if !o.in.Contains(int(v)) {
				continue
			}
			out[v] += w * (o.lossWithout(int32(t), qs[k]) - cur)
		}
	}
}

// Remove implements RemovalOracle.
func (o *DetectionOracle) Remove(v int) {
	checkElem(v, o.u.n)
	if !o.in.Contains(v) {
		return
	}
	o.in.Remove(v)
	ts, qs := o.u.sensorTargets.Row(v)
	for k, t := range ts {
		before := o.eff[t]
		if q := qs[k]; q == 0 {
			o.zeros[t]--
		} else {
			o.surv[t] /= q
		}
		o.refreshEff(t)
		o.value -= o.u.weights[t] * (o.eff[t] - before)
	}
}
