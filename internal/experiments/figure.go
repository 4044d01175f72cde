// Package experiments regenerates every figure of the paper's
// evaluation section (Figures 7, 8 and 9) plus the ablation studies
// DESIGN.md calls out, on the simulated substrate. Each experiment
// returns a Figure that renders as an aligned text table or CSV — the
// same rows/series the paper plots.
package experiments

import (
	"encoding/csv"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// Series is one curve of a figure: a label and aligned X/Y points.
type Series struct {
	// Label names the curve (e.g. "greedy", "upper-bound").
	Label string
	// X and Y are the aligned coordinates.
	X, Y []float64
}

// Figure is the regenerated content of one paper figure (or ablation
// table).
type Figure struct {
	// ID is the experiment identifier ("fig7", "fig8a", ...).
	ID string
	// Title describes the experiment.
	Title string
	// XLabel and YLabel name the axes.
	XLabel, YLabel string
	// Series holds the curves.
	Series []Series
	// Notes carries derived observations (estimated patterns, bound
	// comparisons) that accompany the figure in the paper's text.
	Notes []string
}

// validate checks the series are well formed and share X grids when
// rendered as one table.
func (f *Figure) validate() error {
	if len(f.Series) == 0 {
		return fmt.Errorf("experiments: figure %s has no series", f.ID)
	}
	for _, s := range f.Series {
		if len(s.X) != len(s.Y) {
			return fmt.Errorf("experiments: series %q has %d xs, %d ys", s.Label, len(s.X), len(s.Y))
		}
	}
	return nil
}

// sharedGrid reports whether all series share the first series' X grid.
func (f *Figure) sharedGrid() bool {
	base := f.Series[0].X
	for _, s := range f.Series[1:] {
		if len(s.X) != len(base) {
			return false
		}
		for i := range base {
			if s.X[i] != base[i] {
				return false
			}
		}
	}
	return true
}

// Render writes the figure as an aligned text table. Series sharing an
// X grid render as one table with a column per series; otherwise each
// series renders as its own block.
func (f *Figure) Render(w io.Writer) error {
	if err := f.validate(); err != nil {
		return err
	}
	fmt.Fprintf(w, "== %s: %s ==\n", f.ID, f.Title)
	if f.sharedGrid() {
		if err := f.renderShared(w); err != nil {
			return err
		}
	} else {
		for _, s := range f.Series {
			fmt.Fprintf(w, "-- %s --\n", s.Label)
			fmt.Fprintf(w, "%14s %14s\n", f.XLabel, f.YLabel)
			for i := range s.X {
				fmt.Fprintf(w, "%14.4f %14.6f\n", s.X[i], s.Y[i])
			}
		}
	}
	for _, n := range f.Notes {
		fmt.Fprintf(w, "note: %s\n", n)
	}
	return nil
}

func (f *Figure) renderShared(w io.Writer) error {
	header := make([]string, 0, len(f.Series)+1)
	header = append(header, f.XLabel)
	for _, s := range f.Series {
		header = append(header, s.Label)
	}
	widths := make([]int, len(header))
	for i, h := range header {
		widths[i] = len(h)
		if widths[i] < 12 {
			widths[i] = 12
		}
	}
	var b strings.Builder
	for i, h := range header {
		fmt.Fprintf(&b, "%*s ", widths[i], h)
	}
	fmt.Fprintln(w, strings.TrimRight(b.String(), " "))
	for row := range f.Series[0].X {
		b.Reset()
		fmt.Fprintf(&b, "%*.4f ", widths[0], f.Series[0].X[row])
		for si, s := range f.Series {
			fmt.Fprintf(&b, "%*.6f ", widths[si+1], s.Y[row])
		}
		fmt.Fprintln(w, strings.TrimRight(b.String(), " "))
	}
	return nil
}

// WriteCSV writes the figure in long form: series,x,y.
func (f *Figure) WriteCSV(w io.Writer) error {
	if err := f.validate(); err != nil {
		return err
	}
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"series", f.XLabel, f.YLabel}); err != nil {
		return err
	}
	for _, s := range f.Series {
		for i := range s.X {
			rec := []string{
				s.Label,
				strconv.FormatFloat(s.X[i], 'g', -1, 64),
				strconv.FormatFloat(s.Y[i], 'g', -1, 64),
			}
			if err := cw.Write(rec); err != nil {
				return err
			}
		}
	}
	cw.Flush()
	return cw.Error()
}

// falseVerdict is the error a bench returns instead of publishing a
// result in which one of its verdict fields is false: the verdict's
// JSON name and the case it failed on.
func falseVerdict(bench, verdict, where string) error {
	return fmt.Errorf("experiments: %s bench: %s is false for %s", bench, verdict, where)
}

// FindSeries returns the series with the given label, or nil.
func (f *Figure) FindSeries(label string) *Series {
	for i := range f.Series {
		if f.Series[i].Label == label {
			return &f.Series[i]
		}
	}
	return nil
}
