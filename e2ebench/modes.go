package main

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// quartiles returns Q1, median and Q3 exactly as Python's
// statistics.quantiles(values, n=4) (the exclusive method) computes
// them, so the spread this prints is the one a checker computing it
// that way sees.
func quartiles(values []float64) (q1, med, q3 float64) {
	data := append([]float64(nil), values...)
	sort.Float64s(data)
	ld := len(data)
	switch ld {
	case 0:
		return math.NaN(), math.NaN(), math.NaN()
	case 1:
		return data[0], data[0], data[0]
	}
	const n = 4
	m := ld + 1
	var q [3]float64
	for i := 1; i < n; i++ {
		j := i * m / n
		j = min(max(j, 1), ld-1)
		delta := i*m - j*n
		q[i-1] = (data[j-1]*float64(n-delta) + data[j]*float64(delta)) / n
	}
	return q[0], q[1], q[2]
}

// repeat runs the workload over N consecutive seeds and prints every
// metric's median, quartiles and spread ((Q3−Q1)/median), so the
// benchmark's own output shows whether it is steady. The last line is
// the usual JSON summary carrying the medians.
func repeat(e env, o options, sc scale) error {
	values := map[string][]float64{}
	units := map[string]string{}
	var order []string
	var summaryOf []string
	attempted, failed := 0, 0
	for k := 0; k < o.repeat; k++ {
		res, err := benchOnce(e, o.workload, o.seed+uint64(k), o.seconds, o.trace == 1, sc)
		if err != nil {
			return err
		}
		fmt.Print(res.text)
		if res.invalid != "" {
			return fmt.Errorf("invalid run at seed %d: %s", o.seed+uint64(k), res.invalid)
		}
		line, err := res.summary()
		if err != nil {
			return err
		}
		fmt.Println(line)
		attempted += res.attempted
		failed += res.failed
		summaryOf = res.summaryOf
		for _, m := range res.rep.metrics {
			if _, seen := units[m.Name]; !seen {
				order = append(order, m.Name)
				units[m.Name] = m.Unit
			}
			values[m.Name] = append(values[m.Name], m.Value)
		}
	}
	fmt.Printf("# repeat workload=%s seeds=%d..%d\n", o.workload, o.seed, o.seed+uint64(o.repeat)-1)
	medians := newReport()
	for _, name := range order {
		q1, med, q3 := quartiles(values[name])
		fmt.Printf("repeat %-34s median %12.6g  q1 %12.6g  q3 %12.6g  spread %6.3f  %s\n",
			name, med, q1, q3, (q3-q1)/math.Abs(med), units[name])
		medians.set(name, units[name], med, len(values[name]), "")
	}
	res := &result{rep: medians, summaryOf: summaryOf, attempted: attempted, failed: failed}
	line, err := res.summary()
	if err != nil {
		return err
	}
	fmt.Println(line)
	return nil
}

// selftest runs every workload end to end on tiny fleets, untraced and
// traced, and checks that verification passes, that every named metric
// is printed with its unit, and that the in-process replay reproduced
// coold's answers (fingerprints and utilities included) for the seed.
func selftest(e env) error {
	const seconds = 3
	var problems []string
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			res, err := benchOnce(e, w, 7, seconds, traced, tinyScale)
			if err != nil {
				return fmt.Errorf("%s traced=%v: %w", w, traced, err)
			}
			fmt.Print(res.text)
			want := append(append([]string(nil), endToEnd...), named[w]...)
			if traced {
				want = append(append([]string(nil), perLayer...), "wal.checkpoints")
			}
			for _, name := range want {
				m, ok := res.rep.get(name)
				if !ok || m.Unit == "" || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
					problems = append(problems, fmt.Sprintf("%s traced=%v: metric %s missing or not finite", w, traced, name))
				} else if !strings.Contains(res.text, "metric "+name+" ") {
					problems = append(problems, fmt.Sprintf("%s traced=%v: metric %s not printed", w, traced, name))
				}
			}
			if res.failed > 0 {
				problems = append(problems, fmt.Sprintf("%s traced=%v: %d failed operations", w, traced, res.failed))
			}
			if traced && !strings.Contains(res.text, "ops phase=replay op=answer attempted=1 succeeded=1") {
				problems = append(problems, fmt.Sprintf("%s: replay did not reproduce coold's answers", w))
			}
			if _, err := res.summary(); err != nil {
				problems = append(problems, fmt.Sprintf("%s traced=%v: %v", w, traced, err))
			}
		}
	}
	if len(problems) > 0 {
		return fmt.Errorf("selftest failed:\n  %s", strings.Join(problems, "\n  "))
	}
	fmt.Println("selftest ok: every workload ran, verified and printed every metric; replays reproduced coold's answers")
	return nil
}
