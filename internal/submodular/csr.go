package submodular

import "sort"

// CSR is a compressed-sparse-row incidence structure: the bipartite
// sensor↔target (or sensor↔item) graph stored as three contiguous
// arrays. Row r's incident columns are Idx[Offs[r]:Offs[r+1]] with
// parallel per-edge values Val[Offs[r]:Offs[r+1]] (Val may be nil for
// unweighted incidence).
//
// It is the flat memory layout behind every utility in this package:
// one CSR per direction (sensor→targets and target→sensors) replaces
// the per-target map[int]float64 and per-sensor slice-of-struct layouts
// of the original implementation. A marginal-gain query walks one row —
// a single contiguous int32 stream plus a single contiguous float64
// stream — instead of chasing per-row slice headers and hashing map
// keys, and the whole structure is three allocations regardless of row
// count.
type CSR struct {
	// Offs has length rows+1; row r spans [Offs[r], Offs[r+1]).
	Offs []int32
	// Idx holds the column index of every edge, grouped by row.
	Idx []int32
	// Val holds the per-edge value parallel to Idx; nil for unweighted
	// incidence.
	Val []float64
}

// Rows returns the number of rows.
func (c *CSR) Rows() int { return len(c.Offs) - 1 }

// Row returns row r's column indices and parallel values (values nil
// for unweighted incidence). The slices alias the CSR's storage and
// must not be modified.
func (c *CSR) Row(r int) ([]int32, []float64) {
	lo, hi := c.Offs[r], c.Offs[r+1]
	if c.Val == nil {
		return c.Idx[lo:hi], nil
	}
	return c.Idx[lo:hi], c.Val[lo:hi]
}

// Degree returns the number of edges incident to row r.
func (c *CSR) Degree(r int) int { return int(c.Offs[r+1] - c.Offs[r]) }

// csrEdge is one (row, col, val) triple fed to buildCSR.
type csrEdge struct {
	row, col int32
	val      float64
}

// buildCSR assembles a CSR over rows rows from an edge list using a
// stable counting sort by row: within each row, edges keep the order in
// which they appear in edges. Callers that need ascending column order
// within rows must therefore supply edges sorted by (row-insensitive)
// column order, or sort rows afterwards via sortRowsByCol. weighted
// selects whether Val is materialized.
func buildCSR(rows int, edges []csrEdge, weighted bool) CSR {
	c := CSR{Offs: make([]int32, rows+1)}
	for _, e := range edges {
		c.Offs[e.row+1]++
	}
	for r := 0; r < rows; r++ {
		c.Offs[r+1] += c.Offs[r]
	}
	c.Idx = make([]int32, len(edges))
	if weighted {
		c.Val = make([]float64, len(edges))
	}
	cursor := make([]int32, rows)
	for _, e := range edges {
		k := c.Offs[e.row] + cursor[e.row]
		cursor[e.row]++
		c.Idx[k] = e.col
		if weighted {
			c.Val[k] = e.val
		}
	}
	return c
}

// sortRowsByCol sorts every row's edges by ascending column index,
// keeping Val parallel. Used where a deterministic within-row order is
// required but the input order is not (e.g. map-iteration order of
// DetectionTarget.Probs).
func (c *CSR) sortRowsByCol() {
	for r := 0; r < c.Rows(); r++ {
		lo, hi := int(c.Offs[r]), int(c.Offs[r+1])
		if hi-lo < 2 {
			continue
		}
		if c.Val == nil {
			s := c.Idx[lo:hi]
			sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
			continue
		}
		idx, val := c.Idx[lo:hi], c.Val[lo:hi]
		sort.Sort(&colSorter{idx: idx, val: val})
	}
}

type colSorter struct {
	idx []int32
	val []float64
}

func (s *colSorter) Len() int           { return len(s.idx) }
func (s *colSorter) Less(i, j int) bool { return s.idx[i] < s.idx[j] }
func (s *colSorter) Swap(i, j int) {
	s.idx[i], s.idx[j] = s.idx[j], s.idx[i]
	s.val[i], s.val[j] = s.val[j], s.val[i]
}
