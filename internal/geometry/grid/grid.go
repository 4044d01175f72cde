// Package grid is a uniform spatial-hash index over point-anchored
// items with a bounded reach. It is the geometry layer behind O(n + m +
// edges) incidence construction: deployment and utility assembly used
// to test every sensor against every target (O(n·m) distance checks);
// with the index, a coverage query inspects only the 3×3 cell
// neighbourhood of the query point.
//
// The package is deliberately dependency-free (its Point is
// structurally identical to geometry.Point, so callers convert with a
// plain type conversion). The contract is *candidate generation*, not
// containment: Candidates(p) returns a superset of every item whose
// footprint can contain p, and the caller applies its exact
// Contains/Covers predicate to the candidates. Because the filter is
// exact, the index can be conservative at floating-point boundaries
// without ever changing a result — the differential tests in this
// package and in internal/wsn hold the filtered incidence to *exact*
// equality with the brute-force scan.
//
// Layout: one counting-sorted bucket array (CSR-style Offs/ids pair,
// the same discipline as submodular.CSR) over a cols×rows cell grid
// whose cell side is at least the maximum item reach, so a query never
// needs to look beyond the neighbouring cell in each direction. Within
// a cell, item IDs are ascending (the counting sort is stable over the
// ascending input enumeration), and CandidatesInto merges the ≤ 9
// visited buckets into one ascending ID list with zero allocations.
package grid

import "math"

// Point is a location in the plane. It is structurally identical to
// geometry.Point; convert with grid.Point(p).
type Point struct {
	X, Y float64
}

// Item is one indexed object: an anchor position and a reach. The
// item's footprint must be contained in the axis-aligned square
// [Pos.X±Reach] × [Pos.Y±Reach]; for a sensing disk the anchor is the
// center and the reach the radius, for an arbitrary footprint the
// reach is the Chebyshev distance from the anchor to the farthest
// corner of the footprint's bounding box.
type Item struct {
	Pos   Point
	Reach float64
}

// Index is the immutable spatial-hash index built by Build.
type Index struct {
	ox, oy     float64 // origin: min corner of the anchor bounding box
	invX, invY float64 // 1 / cell side per axis (0 for a 1-cell axis)
	winX, winY float64 // query half-window in cell units: maxReach·inv + slack
	cols, rows int

	// start/ids is the counting-sorted bucket CSR: cell (c, r)'s items
	// are ids[start[r*cols+c]:start[r*cols+c+1]], ascending.
	start []int32
	ids   []int32

	// overflow holds items that cannot be placed in a finite cell
	// (non-finite anchor or reach). They are candidates for every
	// query, keeping Candidates a true superset without error paths.
	overflow []int32

	n int
}

// slack widens the query window by a relative epsilon so that anchors
// lying exactly on a cell boundary can never be missed through
// floating-point rounding of the cell arithmetic. The exact
// Contains-filter on the caller's side makes the extra candidates
// harmless.
const slack = 1.0000001

// maxCellsPerAxis bounds the grid resolution so the bucket array stays
// O(n) even when reaches are tiny relative to the field extent.
func maxCellsPerAxis(n int) int {
	limit := int(math.Ceil(math.Sqrt(float64(4*n + 1))))
	if limit < 1 {
		limit = 1
	}
	return limit
}

// Build indexes the items. It never fails: items whose anchor or reach
// is not finite fall into an overflow list that every query returns,
// so the candidate-superset contract holds for arbitrary input. The
// index holds no reference to the items slice.
func Build(items []Item) *Index {
	ix := &Index{n: len(items)}
	// Pass 1: classify items, find the anchor bounding box and the
	// maximum reach of the gridded population.
	var (
		minX, minY = math.Inf(1), math.Inf(1)
		maxX, maxY = math.Inf(-1), math.Inf(-1)
		maxReach   float64
		gridded    int
	)
	finite := itemFinite
	for _, it := range items {
		if !finite(it) {
			continue
		}
		gridded++
		minX = math.Min(minX, it.Pos.X)
		maxX = math.Max(maxX, it.Pos.X)
		minY = math.Min(minY, it.Pos.Y)
		maxY = math.Max(maxY, it.Pos.Y)
		if it.Reach > maxReach {
			maxReach = it.Reach // negative reaches degrade to 0
		}
	}
	if gridded == 0 {
		ix.cols, ix.rows = 1, 1
		ix.start = make([]int32, 2)
		for i, it := range items {
			if !finite(it) {
				ix.overflow = append(ix.overflow, int32(i))
			}
		}
		return ix
	}
	ix.ox, ix.oy = minX, minY
	limit := maxCellsPerAxis(gridded)
	ix.cols, ix.invX = axisCells(maxX-minX, maxReach, limit)
	ix.rows, ix.invY = axisCells(maxY-minY, maxReach, limit)
	// The query half-window, in cell units: a covering item's anchor
	// lies within maxReach of the query on each axis, i.e. within
	// maxReach·inv fractional cells; slack absorbs boundary rounding.
	// When the cell side is ≥ maxReach (the normal regime) this is ≤ 1
	// + slack, so a query visits at most a 3×3 neighbourhood; clamped
	// single-cell axes may exceed 1 but degenerate to scanning the axis.
	ix.winX = maxReach*ix.invX + slack
	ix.winY = maxReach*ix.invY + slack

	// Pass 2: counting sort into buckets. Enumerating items in
	// ascending ID order makes every bucket ascending (stable sort).
	ncells := ix.cols * ix.rows
	ix.start = make([]int32, ncells+1)
	cellOf := make([]int32, len(items))
	for i, it := range items {
		if !finite(it) {
			cellOf[i] = -1
			ix.overflow = append(ix.overflow, int32(i))
			continue
		}
		c := ix.clampCell((it.Pos.X-ix.ox)*ix.invX, ix.cols)
		r := ix.clampCell((it.Pos.Y-ix.oy)*ix.invY, ix.rows)
		cell := int32(r*ix.cols + c)
		cellOf[i] = cell
		ix.start[cell+1]++
	}
	for c := 0; c < ncells; c++ {
		ix.start[c+1] += ix.start[c]
	}
	ix.ids = make([]int32, gridded)
	cursor := make([]int32, ncells)
	for i := range items {
		cell := cellOf[i]
		if cell < 0 {
			continue
		}
		ix.ids[ix.start[cell]+cursor[cell]] = int32(i)
		cursor[cell]++
	}
	return ix
}

// itemFinite reports whether the item can be placed in a finite cell.
func itemFinite(it Item) bool {
	return !math.IsNaN(it.Pos.X) && !math.IsInf(it.Pos.X, 0) &&
		!math.IsNaN(it.Pos.Y) && !math.IsInf(it.Pos.Y, 0) &&
		!math.IsNaN(it.Reach) && !math.IsInf(it.Reach, 0)
}

// axisCells picks the cell count and inverse cell side for one axis of
// extent w. The cell side is kept ≥ the maximum reach (so a covering
// item's anchor is at most one cell away from the query's cell) and
// the cell count is capped at limit (so the bucket array stays O(n)).
func axisCells(w, maxReach float64, limit int) (cells int, inv float64) {
	if !(w > 0) || math.IsInf(w, 0) {
		return 1, 0 // degenerate axis: every anchor shares one cell
	}
	cells = limit
	if maxReach > 0 {
		// cells ≤ w/maxReach ⇒ cell side w/cells ≥ maxReach.
		if byReach := int(math.Floor(w / maxReach)); byReach < cells {
			cells = byReach
		}
	}
	if cells < 1 {
		cells = 1
	}
	inv = float64(cells) / w
	if math.IsInf(inv, 0) || math.IsNaN(inv) {
		return 1, 0 // w denormal: cell arithmetic would overflow
	}
	return cells, inv
}

// clampCell converts a fractional cell coordinate to an in-range index.
// Anchors landing exactly on the far boundary (coordinate == cells)
// clamp into the last cell; the query window's slack covers the shift.
func (ix *Index) clampCell(a float64, cells int) int {
	if !(a > 0) { // also catches NaN defensively
		return 0
	}
	if a >= float64(cells) {
		return cells - 1
	}
	return int(a)
}

// Len returns the number of indexed items.
func (ix *Index) Len() int { return ix.n }

// Columns returns the number of cell columns along the x axis. The
// column boundaries are the natural cut lines for geometric sharding:
// the cell side is at least the maximum item reach, so an item whose
// anchor is more than one column away from a cut can never have a
// footprint crossing it.
func (ix *Index) Columns() int { return ix.cols }

// ColumnOf returns the cell column an x coordinate falls in, clamped to
// [0, Columns()). Non-finite coordinates clamp to column 0, mirroring
// the defensive NaN handling of the bucket assignment.
func (ix *Index) ColumnOf(x float64) int {
	return ix.clampCell((x-ix.ox)*ix.invX, ix.cols)
}

// ColumnLeft returns the x coordinate of column c's left boundary
// (c may equal Columns(), giving the right edge of the last column).
// On a degenerate single-cell axis every boundary collapses to the
// origin.
func (ix *Index) ColumnLeft(c int) float64 {
	if ix.invX == 0 {
		return ix.ox
	}
	return ix.ox + float64(c)/ix.invX
}

// Dims returns the cell-grid dimensions (cols, rows).
func (ix *Index) Dims() (int, int) { return ix.cols, ix.rows }

// Overflow returns how many items were not gridded (non-finite anchor
// or reach) and are therefore returned by every query.
func (ix *Index) Overflow() int { return len(ix.overflow) }

// Candidates returns the IDs of every item whose footprint may contain
// p, in ascending order with no duplicates. It allocates a fresh
// slice; use CandidatesInto on hot paths.
func (ix *Index) Candidates(p Point) []int32 {
	return ix.CandidatesInto(nil, p)
}

// CandidatesInto appends the candidate IDs for p to buf[:0] and
// returns the extended slice, ascending and duplicate-free. When buf
// has sufficient capacity the query performs no allocations. The
// result is a superset of the items covering p: an item covering p has
// |Pos.X−p.X| ≤ Reach and |Pos.Y−p.Y| ≤ Reach (the Item contract), so
// its anchor cell lies within the ±win window around p's fractional
// cell coordinate that cellRange scans.
func (ix *Index) CandidatesInto(buf []int32, p Point) []int32 {
	buf = buf[:0]
	if ix.n == 0 {
		return buf
	}
	buf = append(buf, ix.overflow...)
	if cLo, cHi, ok := cellRange((p.X-ix.ox)*ix.invX, ix.winX, ix.cols); ok {
		if rLo, rHi, ok := cellRange((p.Y-ix.oy)*ix.invY, ix.winY, ix.rows); ok {
			for r := rLo; r <= rHi; r++ {
				base := r * ix.cols
				lo, hi := ix.start[base+cLo], ix.start[base+cHi+1]
				buf = append(buf, ix.ids[lo:hi]...)
			}
		}
	}
	// The buffer is a concatenation of ascending runs (overflow, then ≤
	// 3 buckets per visited row — each ascending by the stable counting
	// sort). Insertion sort is near-linear on such input and
	// allocation-free; candidate counts are O(local density).
	insertionSort(buf)
	return buf
}

// cellRange maps a fractional cell coordinate to the closed cell index
// window [lo, hi] a query must scan: win cells either side (floor
// monotonicity — every anchor within ±win of a lands in a cell of
// [⌊a−win⌋, ⌊a+win⌋]). ok is false when the window misses the grid
// entirely (query far outside the indexed area). A non-finite
// coordinate (overflowing or degenerate axis arithmetic, e.g. ∞·0)
// degrades to the full axis — returning extra candidates is always
// legal, missing one never is.
func cellRange(a, win float64, cells int) (lo, hi int, ok bool) {
	if math.IsNaN(a) || math.IsInf(a, 0) {
		return 0, cells - 1, true
	}
	loF := math.Floor(a - win)
	hiF := math.Floor(a + win)
	if hiF < 0 || loF >= float64(cells) {
		return 0, -1, false
	}
	lo = 0
	if loF > 0 {
		lo = int(loF)
	}
	hi = cells - 1
	if hiF < float64(cells-1) {
		hi = int(hiF)
	}
	return lo, hi, true
}

// insertionSort sorts ids ascending in place. The input is a handful
// of concatenated ascending runs, for which insertion sort is linear;
// it also keeps the query path free of sort.Slice's closure allocation.
func insertionSort(ids []int32) {
	for i := 1; i < len(ids); i++ {
		v := ids[i]
		j := i - 1
		for j >= 0 && ids[j] > v {
			ids[j+1] = ids[j]
			j--
		}
		ids[j+1] = v
	}
}
