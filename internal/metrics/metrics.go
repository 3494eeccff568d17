// Package metrics is the observability layer of the simulator: a
// low-overhead registry of named counters, gauges, and fixed-bucket
// histograms that the pipeline (SMs, the Warped-DMR engine, the
// functional executor, the run orchestrator) reports into. The
// simulator's per-SM layers count in plain fields and Tally values and
// publish once per launch; the service layers bump instruments as
// events happen.
//
// The design goals, in priority order:
//
//   - Zero cost when unconfigured. Every instrument method is nil-safe:
//     a nil *Counter, *Gauge, or *Histogram no-ops behind a single
//     branch, and a nil *Registry hands out nil instruments. Code can
//     therefore instrument unconditionally and let the caller decide
//     whether metrics exist at all.
//   - Zero allocation on the hot path. Instruments are resolved by name
//     once, at setup time; Add/Set/Observe touch only atomics, and
//     Tally.Observe touches only its owner's plain fields.
//   - Safe for concurrent use. Counters and gauges are single atomics;
//     histograms use one atomic per bucket. A registry shared across
//     the worker pool of Runner.RunMany or experiments.Engine
//     aggregates correctly without locks on the hot path.
//
// The full set of metric names emitted by the simulator, their units,
// and exactly when each one moves is documented in
// docs/OBSERVABILITY.md; that file is the compatibility contract for
// anything parsing Snapshot output.
package metrics

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically-increasing atomic counter. The zero value
// is ready to use; all methods are safe on a nil receiver.
type Counter struct {
	v atomic.Int64
}

// Inc adds one.
func (c *Counter) Inc() {
	if c != nil {
		c.v.Add(1)
	}
}

// Add adds n (negative n is permitted but makes the counter no longer
// monotonic; the simulator never does that).
func (c *Counter) Add(n int64) {
	if c != nil {
		c.v.Add(n)
	}
}

// Value returns the current count (0 on a nil receiver).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an atomic instantaneous value that also tracks its
// high-water mark. The zero value is ready to use; all methods are safe
// on a nil receiver.
type Gauge struct {
	v    atomic.Int64
	high atomic.Int64
}

// Set replaces the gauge value, updating the high-water mark.
func (g *Gauge) Set(v int64) {
	if g == nil {
		return
	}
	g.v.Store(v)
	g.raiseHigh(v)
}

// Add shifts the gauge by d, updating the high-water mark.
func (g *Gauge) Add(d int64) {
	if g == nil {
		return
	}
	g.raiseHigh(g.v.Add(d))
}

// Publish stores v as the gauge value and raises the high-water mark to
// high: the flush of a single-owner tracker that kept its own peak
// between publications.
func (g *Gauge) Publish(v, high int64) {
	if g == nil {
		return
	}
	g.v.Store(v)
	g.raiseHigh(high)
}

func (g *Gauge) raiseHigh(v int64) {
	for {
		h := g.high.Load()
		if v <= h || g.high.CompareAndSwap(h, v) {
			return
		}
	}
}

// Value returns the current gauge value (0 on a nil receiver).
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// High returns the largest value the gauge has held (0 on a nil
// receiver, and 0 if the gauge never rose above zero).
func (g *Gauge) High() int64 {
	if g == nil {
		return 0
	}
	return g.high.Load()
}

// Histogram counts observations into fixed buckets chosen at
// registration time. Bucket i counts observations v with
// bounds[i-1] < v <= bounds[i] (the first bucket counts v <=
// bounds[0]); one extra overflow bucket counts v > bounds[len-1].
// All methods are safe on a nil receiver.
type Histogram struct {
	bounds []int64
	counts []atomic.Int64 // len(bounds)+1; last is the overflow bucket
	count  atomic.Int64
	sum    atomic.Int64
}

// newHistogram builds a histogram over ascending bounds.
func newHistogram(bounds []int64) *Histogram {
	b := make([]int64, len(bounds))
	copy(b, bounds)
	return &Histogram{bounds: b, counts: make([]atomic.Int64, len(b)+1)}
}

// Observe records one value.
func (h *Histogram) Observe(v int64) {
	if h == nil {
		return
	}
	h.count.Add(1)
	h.sum.Add(v)
	for i, b := range h.bounds {
		if v <= b {
			h.counts[i].Add(1)
			return
		}
	}
	h.counts[len(h.bounds)].Add(1)
}

// Tally returns an empty single-owner accumulator with h's bucket
// layout, for a hot loop to Observe into and Publish later. On a nil
// histogram it returns the zero Tally, whose Observe is a no-op.
func (h *Histogram) Tally() Tally {
	if h == nil {
		return Tally{}
	}
	return Tally{bounds: h.bounds, counts: make([]int64, len(h.counts))}
}

// Publish adds a tally's observations to h with one atomic add per
// non-empty bucket. t must come from h.Tally.
func (h *Histogram) Publish(t *Tally) {
	if h == nil || t.count == 0 {
		return
	}
	h.count.Add(t.count)
	h.sum.Add(t.sum)
	for i, c := range t.counts {
		if c != 0 {
			h.counts[i].Add(c)
		}
	}
}

// Tally is a plain, non-atomic histogram accumulator owned by one
// goroutine: a per-SM hot loop observes into it and publishes it once
// with Histogram.Publish, so the loop itself touches no shared cache
// lines. The zero Tally (from a nil histogram) discards observations.
type Tally struct {
	bounds []int64
	counts []int64 // len(bounds)+1; last is the overflow bucket
	count  int64
	sum    int64
}

// Observe records one value.
func (t *Tally) Observe(v int64) {
	if t.counts == nil {
		return
	}
	t.count++
	t.sum += v
	for i, b := range t.bounds {
		if v <= b {
			t.counts[i]++
			return
		}
	}
	t.counts[len(t.bounds)]++
}

// Count returns the total number of observations (0 on nil).
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the sum of all observed values (0 on nil).
func (h *Histogram) Sum() int64 {
	if h == nil {
		return 0
	}
	return h.sum.Load()
}

// Registry is a named collection of instruments. Instruments are
// created on first lookup and shared thereafter; lookups take a lock
// and are meant for setup time, not the hot path. The zero value is
// NOT ready to use — call New — but every method is safe on a nil
// receiver and returns nil instruments, which in turn no-op, so an
// unconfigured pipeline pays one branch per bump site and nothing else.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
}

// New creates an empty registry.
func New() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
	}
}

// Counter returns the named counter, creating it on first use.
// Returns nil (a no-op counter) on a nil registry.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use.
// Returns nil (a no-op gauge) on a nil registry.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram, creating it with the given
// ascending bucket bounds on first use. Later lookups of the same name
// return the existing histogram and ignore bounds. Returns nil (a
// no-op histogram) on a nil registry.
func (r *Registry) Histogram(name string, bounds []int64) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.hists[name]
	if !ok {
		h = newHistogram(bounds)
		r.hists[name] = h
	}
	return h
}

// GaugeValue is the exported state of one gauge.
type GaugeValue struct {
	Value int64 `json:"value"`
	High  int64 `json:"high"`
}

// Bucket is one exported histogram bucket: the count of observations v
// with prev < v <= LE, where prev is the preceding bucket's LE.
// Counts are per-bucket, not cumulative. The overflow bucket is
// reported with Inf set instead of LE.
type Bucket struct {
	LE    int64 `json:"le"`
	Inf   bool  `json:"inf,omitempty"`
	Count int64 `json:"count"`
}

// HistogramValue is the exported state of one histogram.
type HistogramValue struct {
	Count   int64    `json:"count"`
	Sum     int64    `json:"sum"`
	Buckets []Bucket `json:"buckets"`
}

// Snapshot is a point-in-time copy of every instrument in a registry.
// It is plain data: safe to serialize, compare, or keep after the run.
type Snapshot struct {
	Counters   map[string]int64          `json:"counters"`
	Gauges     map[string]GaugeValue     `json:"gauges"`
	Histograms map[string]HistogramValue `json:"histograms"`
}

// Snapshot captures the current value of every instrument. On a nil
// registry it returns an empty (but non-nil-mapped) snapshot.
func (r *Registry) Snapshot() Snapshot {
	s := Snapshot{
		Counters:   map[string]int64{},
		Gauges:     map[string]GaugeValue{},
		Histograms: map[string]HistogramValue{},
	}
	if r == nil {
		return s
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for name, c := range r.counters {
		s.Counters[name] = c.Value()
	}
	for name, g := range r.gauges {
		s.Gauges[name] = GaugeValue{Value: g.Value(), High: g.High()}
	}
	for name, h := range r.hists {
		hv := HistogramValue{Count: h.count.Load(), Sum: h.sum.Load()}
		for i, b := range h.bounds {
			hv.Buckets = append(hv.Buckets, Bucket{LE: b, Count: h.counts[i].Load()})
		}
		hv.Buckets = append(hv.Buckets, Bucket{Inf: true, Count: h.counts[len(h.bounds)].Load()})
		s.Histograms[name] = hv
	}
	return s
}

// sortedKeys returns the keys of a map in ascending order.
func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// String renders the snapshot as aligned text, one instrument per
// line, sorted by name within each kind.
func (s Snapshot) String() string {
	var b strings.Builder
	width := 0
	for _, m := range []func() []string{
		func() []string { return sortedKeys(s.Counters) },
		func() []string { return sortedKeys(s.Gauges) },
		func() []string { return sortedKeys(s.Histograms) },
	} {
		for _, k := range m() {
			if len(k) > width {
				width = len(k)
			}
		}
	}
	for _, name := range sortedKeys(s.Counters) {
		fmt.Fprintf(&b, "counter    %-*s  %d\n", width, name, s.Counters[name])
	}
	for _, name := range sortedKeys(s.Gauges) {
		g := s.Gauges[name]
		fmt.Fprintf(&b, "gauge      %-*s  %d (high %d)\n", width, name, g.Value, g.High)
	}
	for _, name := range sortedKeys(s.Histograms) {
		h := s.Histograms[name]
		fmt.Fprintf(&b, "histogram  %-*s  count=%d sum=%d ", width, name, h.Count, h.Sum)
		for i, bk := range h.Buckets {
			if i > 0 {
				b.WriteByte(' ')
			}
			if bk.Inf {
				fmt.Fprintf(&b, "le=+Inf:%d", bk.Count)
			} else {
				fmt.Fprintf(&b, "le=%d:%d", bk.LE, bk.Count)
			}
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// WriteJSONL writes the snapshot as JSON Lines: one self-describing
// object per instrument, sorted by kind then name, so the output is
// byte-stable for a given set of values. Each line carries "name" and
// "type" ("counter", "gauge", or "histogram") plus the kind-specific
// fields documented in docs/OBSERVABILITY.md.
func (s Snapshot) WriteJSONL(w io.Writer) error {
	for _, name := range sortedKeys(s.Counters) {
		if _, err := fmt.Fprintf(w, `{"name":%q,"type":"counter","value":%d}`+"\n", name, s.Counters[name]); err != nil {
			return err
		}
	}
	for _, name := range sortedKeys(s.Gauges) {
		g := s.Gauges[name]
		if _, err := fmt.Fprintf(w, `{"name":%q,"type":"gauge","value":%d,"high":%d}`+"\n", name, g.Value, g.High); err != nil {
			return err
		}
	}
	for _, name := range sortedKeys(s.Histograms) {
		h := s.Histograms[name]
		var bk strings.Builder
		for i, b := range h.Buckets {
			if i > 0 {
				bk.WriteByte(',')
			}
			if b.Inf {
				fmt.Fprintf(&bk, `{"le":"+Inf","count":%d}`, b.Count)
			} else {
				fmt.Fprintf(&bk, `{"le":%d,"count":%d}`, b.LE, b.Count)
			}
		}
		if _, err := fmt.Fprintf(w, `{"name":%q,"type":"histogram","count":%d,"sum":%d,"buckets":[%s]}`+"\n",
			name, h.Count, h.Sum, bk.String()); err != nil {
			return err
		}
	}
	return nil
}
