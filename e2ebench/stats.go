package main

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"time"
)

// sample is a set of observations of one quantity.
type sample []float64

func (s sample) sorted() []float64 {
	out := append([]float64(nil), s...)
	sort.Float64s(out)
	return out
}

// quantile returns the q-quantile by linear interpolation between
// closest ranks (NaN for an empty sample).
func (s sample) quantile(q float64) float64 {
	if len(s) == 0 {
		return math.NaN()
	}
	v := s.sorted()
	pos := q * float64(len(v)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return v[lo] + (v[hi]-v[lo])*(pos-float64(lo))
}

func (s sample) median() float64 { return s.quantile(0.5) }

func (s sample) mean() float64 {
	if len(s) == 0 {
		return math.NaN()
	}
	var sum float64
	for _, x := range s {
		sum += x
	}
	return sum / float64(len(s))
}

// enoughFor reports whether the sample has at least ten observations
// beyond the q-quantile, the rule every reported percentile follows.
func (s sample) enoughFor(q float64) bool {
	return float64(len(s))*(1-q) >= 10
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// metric is one named, unit-carrying result of a run.
type metric struct {
	Name    string
	Unit    string
	Value   float64
	Samples int // observations behind the value (0 for a single measurement)
	Note    string
}

// report collects a run's metrics and accounting, in print order.
type report struct {
	metrics []metric
	index   map[string]int
	lines   []string
}

func newReport() *report { return &report{index: make(map[string]int)} }

// set records (or replaces) a metric.
func (r *report) set(name, unit string, value float64, samples int, note string) {
	m := metric{Name: name, Unit: unit, Value: value, Samples: samples, Note: note}
	if i, ok := r.index[name]; ok {
		r.metrics[i] = m
		return
	}
	r.index[name] = len(r.metrics)
	r.metrics = append(r.metrics, m)
}

// pct records the q-quantile of a millisecond sample, noting when the
// sample is too small for that percentile.
func (r *report) pct(name string, s sample, q float64) {
	note := ""
	if !s.enoughFor(q) {
		note = fmt.Sprintf("fewer than 10 samples beyond p%g", q*100)
	}
	r.set(name, "ms", s.quantile(q), len(s), note)
}

func (r *report) get(name string) (metric, bool) {
	i, ok := r.index[name]
	if !ok {
		return metric{}, false
	}
	return r.metrics[i], true
}

func (r *report) logf(format string, args ...any) {
	r.lines = append(r.lines, fmt.Sprintf(format, args...))
}

// print writes the accounting lines and every metric by name and unit.
func (r *report) print(sb *strings.Builder) {
	for _, l := range r.lines {
		sb.WriteString(l)
		sb.WriteByte('\n')
	}
	for _, m := range r.metrics {
		fmt.Fprintf(sb, "metric %-34s %14.6g %-6s", m.Name, m.Value, m.Unit)
		if m.Samples > 0 {
			fmt.Fprintf(sb, " n=%d", m.Samples)
		}
		if m.Note != "" {
			fmt.Fprintf(sb, " (%s)", m.Note)
		}
		sb.WriteByte('\n')
	}
}

// tally counts operations by phase, op and outcome.
type tally struct {
	keys   []string
	counts map[string]*opCount
}

type opCount struct {
	attempted, ok int
	codes         map[string]int
}

func newTally() *tally { return &tally{counts: make(map[string]*opCount)} }

// add records one operation; code is "" for success.
func (t *tally) add(phase, op, code string) {
	k := phase + " " + op
	c, ok := t.counts[k]
	if !ok {
		c = &opCount{codes: make(map[string]int)}
		t.counts[k] = c
		t.keys = append(t.keys, k)
	}
	c.attempted++
	if code == "" {
		c.ok++
	} else {
		c.codes[code]++
	}
}

func (t *tally) totals() (attempted, failed int) {
	for _, c := range t.counts {
		attempted += c.attempted
		failed += c.attempted - c.ok
	}
	return attempted, failed
}

func (t *tally) lines() []string {
	var out []string
	for _, k := range t.keys {
		c := t.counts[k]
		phase, op, _ := strings.Cut(k, " ")
		l := fmt.Sprintf("ops phase=%s op=%s attempted=%d succeeded=%d failed=%d",
			phase, op, c.attempted, c.ok, c.attempted-c.ok)
		codes := make([]string, 0, len(c.codes))
		for code := range c.codes {
			codes = append(codes, code)
		}
		sort.Strings(codes)
		for _, code := range codes {
			l += fmt.Sprintf(" %s=%d", code, c.codes[code])
		}
		out = append(out, l)
	}
	return out
}
