package geometry

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"
)

// bruteSubdivide is the original all-regions reference sweep: every
// sample point tests every region in index order. The production
// Subdivide must reproduce its output byte-for-byte — same cells, same
// accumulation order, and therefore bit-equal Area and Centroid floats
// — because the grid index only prunes candidates that the exact
// Contains predicate would have rejected anyway.
func bruteSubdivide(omega Rect, regions []Region, cellsPerSide int) (*Subdivision, error) {
	if cellsPerSide <= 0 {
		return nil, ErrBadResolution
	}
	dx := omega.Width() / float64(cellsPerSide)
	dy := omega.Height() / float64(cellsPerSide)
	cellArea := dx * dy

	type accum struct {
		covers []int
		area   float64
		cx, cy float64
	}
	cells := make(map[string]*accum)
	sig := make([]int, 0, 16)
	for row := 0; row < cellsPerSide; row++ {
		cy := omega.Min.Y + (float64(row)+0.5)*dy
		for col := 0; col < cellsPerSide; col++ {
			cx := omega.Min.X + (float64(col)+0.5)*dx
			p := Point{cx, cy}
			sig = sig[:0]
			for i, reg := range regions {
				if reg.Contains(p) {
					sig = append(sig, i)
				}
			}
			key := signatureKey(sig)
			a, ok := cells[key]
			if !ok {
				a = &accum{covers: append([]int(nil), sig...)}
				cells[key] = a
			}
			a.area += cellArea
			a.cx += cx * cellArea
			a.cy += cy * cellArea
		}
	}

	sub := &Subdivision{
		Omega:      omega,
		Cells:      make([]Subregion, 0, len(cells)),
		Resolution: dx,
	}
	for _, a := range cells {
		sub.Cells = append(sub.Cells, Subregion{
			Covers:   a.covers,
			Area:     a.area,
			Centroid: Point{a.cx / a.area, a.cy / a.area},
		})
	}
	sort.Slice(sub.Cells, func(i, j int) bool {
		return compareCovers(sub.Cells[i].Covers, sub.Cells[j].Covers) < 0
	})
	return sub, nil
}

// requireSameSubdivision asserts exact structural equality and
// bit-level float equality between two subdivisions.
func requireSameSubdivision(t *testing.T, got, want *Subdivision) {
	t.Helper()
	if len(got.Cells) != len(want.Cells) {
		t.Fatalf("cell count %d, want %d", len(got.Cells), len(want.Cells))
	}
	if got.Resolution != want.Resolution {
		t.Fatalf("resolution %v, want %v", got.Resolution, want.Resolution)
	}
	for k := range want.Cells {
		g, w := got.Cells[k], want.Cells[k]
		if compareCovers(g.Covers, w.Covers) != 0 {
			t.Fatalf("cell %d covers %v, want %v", k, g.Covers, w.Covers)
		}
		if math.Float64bits(g.Area) != math.Float64bits(w.Area) {
			t.Fatalf("cell %d (%q) area %v, want bit-identical %v", k, w.Key(), g.Area, w.Area)
		}
		if math.Float64bits(g.Centroid.X) != math.Float64bits(w.Centroid.X) ||
			math.Float64bits(g.Centroid.Y) != math.Float64bits(w.Centroid.Y) {
			t.Fatalf("cell %d (%q) centroid %v, want bit-identical %v", k, w.Key(), g.Centroid, w.Centroid)
		}
	}
}

// randomRegions draws a mixed population of disks and sectors, with a
// sprinkling of degenerate shapes: zero-radius disks, regions far
// outside Ω, and one giant disk dwarfing the field.
func randomRegions(rng *rand.Rand, n int, span float64) []Region {
	out := make([]Region, n)
	for i := range out {
		c := Point{rng.Float64() * span, rng.Float64() * span}
		r := span * (0.02 + 0.2*rng.Float64())
		switch rng.Intn(10) {
		case 0:
			out[i] = Disk{Center: c, Radius: 0}
		case 1:
			out[i] = Disk{Center: Point{c.X + 10*span, c.Y - 10*span}, Radius: r}
		case 2:
			out[i] = Disk{Center: c, Radius: span * 5}
		case 3, 4:
			out[i] = Sector{
				Center: c, Radius: r,
				Heading:   rng.Float64() * 2 * math.Pi,
				HalfAngle: math.Pi / 4 * (0.5 + rng.Float64()),
			}
		default:
			out[i] = Disk{Center: c, Radius: r}
		}
	}
	return out
}

// TestSubdivideGridDifferential drives the production (grid-indexed)
// Subdivide against the all-regions reference on random mixed
// populations and asserts byte-identical output.
func TestSubdivideGridDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(303))
	omega := NewRect(Point{0, 0}, Point{100, 100})
	for trial := 0; trial < 25; trial++ {
		n := 1 + rng.Intn(40)
		regions := randomRegions(rng, n, 100)
		cells := 8 + rng.Intn(56)
		got, err := Subdivide(omega, regions, cells)
		if err != nil {
			t.Fatalf("trial %d: Subdivide: %v", trial, err)
		}
		want, err := bruteSubdivide(omega, regions, cells)
		if err != nil {
			t.Fatalf("trial %d: reference: %v", trial, err)
		}
		t.Run(fmt.Sprintf("trial%d_n%d_c%d", trial, n, cells), func(t *testing.T) {
			requireSameSubdivision(t, got, want)
		})
	}
}

// TestSubdivideGridDegenerate pins the grid-indexed sweep on the
// populations most likely to expose indexing bugs: coincident regions,
// regions anchored exactly on cell boundaries, and empty populations.
func TestSubdivideGridDegenerate(t *testing.T) {
	omega := NewRect(Point{0, 0}, Point{64, 64})
	cases := map[string][]Region{
		"empty": {},
		"coincident": {
			Disk{Center: Point{32, 32}, Radius: 10},
			Disk{Center: Point{32, 32}, Radius: 10},
			Disk{Center: Point{32, 32}, Radius: 10},
		},
		"cell-boundary-anchors": {
			Disk{Center: Point{0, 0}, Radius: 16},
			Disk{Center: Point{16, 16}, Radius: 16},
			Disk{Center: Point{32, 32}, Radius: 16},
			Disk{Center: Point{48, 48}, Radius: 16},
			Disk{Center: Point{64, 64}, Radius: 16},
		},
		"all-outside": {
			Disk{Center: Point{-500, -500}, Radius: 5},
			Disk{Center: Point{1e6, 1e6}, Radius: 5},
		},
		"zero-radius": {
			Disk{Center: Point{32, 32}, Radius: 0},
			Disk{Center: Point{31.5, 32.5}, Radius: 4},
		},
	}
	for name, regions := range cases {
		t.Run(name, func(t *testing.T) {
			got, err := Subdivide(omega, regions, 32)
			if err != nil {
				t.Fatalf("Subdivide: %v", err)
			}
			want, err := bruteSubdivide(omega, regions, 32)
			if err != nil {
				t.Fatalf("reference: %v", err)
			}
			requireSameSubdivision(t, got, want)
		})
	}
}

// TestRegionIndexSignatures checks the shared region index's per-point
// signatures against the all-regions scan at every base-cell center
// and corner probe.
func TestRegionIndexSignatures(t *testing.T) {
	rng := rand.New(rand.NewSource(909))
	omega := NewRect(Point{0, 0}, Point{50, 50})
	for trial := 0; trial < 10; trial++ {
		regions := randomRegions(rng, 1+rng.Intn(25), 50)
		ri, err := newRegionIndex(regions)
		if err != nil {
			t.Fatalf("trial %d: newRegionIndex: %v", trial, err)
		}
		// Signature oracle equivalence on an adversarial probe set:
		// cell centers, ±1e-9 corner probes, and points far outside Ω.
		const cells = 16
		dx := omega.Width() / cells
		dy := omega.Height() / cells
		probes := []Point{{-1e6, 1e6}, {math.Inf(1), 0}}
		for row := 0; row < cells; row++ {
			y0 := omega.Min.Y + float64(row)*dy
			for col := 0; col < cells; col++ {
				x0 := omega.Min.X + float64(col)*dx
				probes = append(probes,
					Point{x0 + 0.5*dx, y0 + 0.5*dy},
					Point{x0 + 1e-9, y0 + 1e-9},
					Point{x0 + dx - 1e-9, y0 + dy - 1e-9},
				)
			}
		}
		var sig []int
		for _, p := range probes {
			sig = ri.signatureAt(sig[:0], regions, p)
			var want []int
			for i, reg := range regions {
				if reg.Contains(p) {
					want = append(want, i)
				}
			}
			if compareCovers(sig, want) != 0 {
				t.Fatalf("trial %d: signature at %v = %v, want %v", trial, p, sig, want)
			}
		}
	}
}

// TestSubdivideNilRegion confirms the index constructor surfaces nil
// regions with the same error shape as the pre-index validation.
func TestSubdivideNilRegion(t *testing.T) {
	omega := NewRect(Point{0, 0}, Point{10, 10})
	if _, err := Subdivide(omega, []Region{Disk{Center: Point{5, 5}, Radius: 2}, nil}, 8); err == nil {
		t.Fatal("Subdivide accepted a nil region")
	}
}
