package obs

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"
)

// Kind distinguishes the metric families the registry can hold.
type Kind uint8

// Metric kinds, in Prometheus vocabulary.
const (
	KindCounter Kind = iota
	KindGauge
	KindHistogram
)

func (k Kind) String() string {
	switch k {
	case KindCounter:
		return "counter"
	case KindGauge:
		return "gauge"
	case KindHistogram:
		return "histogram"
	}
	return fmt.Sprintf("Kind(%d)", uint8(k))
}

// Desc names a metric. Name must be a valid Prometheus metric name
// (snake_case, counters suffixed _total); Labels is an optional constant
// label set in exposition syntax without braces, e.g. `shard="3"`. Unit is
// free text for OBSERVABILITY.md ("events", "ns", "bytes", ...).
type Desc struct {
	Name   string
	Help   string
	Unit   string
	Labels string
}

func (d Desc) key() string { return d.Name + "{" + d.Labels + "}" }

// Counter is a monotonically increasing uint64. The zero value is usable;
// all methods are safe on a nil receiver (no-ops), which is what lets
// instrumented hot paths hold nil instruments when observability is off.
type Counter struct{ v atomic.Uint64 }

// Inc adds one.
func (c *Counter) Inc() {
	if c != nil {
		c.v.Add(1)
	}
}

// Add adds n.
func (c *Counter) Add(n uint64) {
	if c != nil {
		c.v.Add(n)
	}
}

// Value reports the current count.
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a float64 that can go up and down, stored as atomic bits so
// concurrent Set/Add/Value need no lock. Nil receivers no-op.
type Gauge struct{ bits atomic.Uint64 }

// Set stores v.
func (g *Gauge) Set(v float64) {
	if g != nil {
		g.bits.Store(math.Float64bits(v))
	}
}

// Add adds delta (CAS loop; lock-free).
func (g *Gauge) Add(delta float64) {
	if g == nil {
		return
	}
	for {
		old := g.bits.Load()
		nv := math.Float64bits(math.Float64frombits(old) + delta)
		if g.bits.CompareAndSwap(old, nv) {
			return
		}
	}
}

// Value reports the current value.
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// Histogram counts observations into a fixed ladder of upper-bound buckets
// (a +Inf bucket is implicit). Observe is allocation-free: a linear scan of
// the ladder plus three atomic adds, safe for concurrent use. Nil receivers
// no-op.
type Histogram struct {
	bounds []float64       // sorted upper bounds, exclusive of +Inf
	counts []atomic.Uint64 // len(bounds)+1; last is the +Inf bucket
	sum    atomic.Uint64   // float64 bits, CAS-updated
	count  atomic.Uint64
}

// Observe records one observation.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sum.Load()
		nv := math.Float64bits(math.Float64frombits(old) + v)
		if h.sum.CompareAndSwap(old, nv) {
			return
		}
	}
}

// Count reports the total number of observations.
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum reports the sum of all observed values.
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return math.Float64frombits(h.sum.Load())
}

// Buckets returns the upper bounds and the cumulative count at or below
// each bound, ending with the +Inf bucket (bound = +Inf).
func (h *Histogram) Buckets() (bounds []float64, cumulative []uint64) {
	if h == nil {
		return nil, nil
	}
	bounds = make([]float64, len(h.bounds)+1)
	copy(bounds, h.bounds)
	bounds[len(h.bounds)] = math.Inf(1)
	cumulative = make([]uint64, len(h.counts))
	var acc uint64
	for i := range h.counts {
		acc += h.counts[i].Load()
		cumulative[i] = acc
	}
	return bounds, cumulative
}

// ExpBuckets builds a ladder of n exponential upper bounds starting at
// start and multiplying by factor — the usual shape for latency histograms.
func ExpBuckets(start, factor float64, n int) []float64 {
	if start <= 0 || factor <= 1 || n < 1 {
		panic("obs: ExpBuckets requires start > 0, factor > 1, n >= 1")
	}
	out := make([]float64, n)
	v := start
	for i := range out {
		out[i] = v
		v *= factor
	}
	return out
}

// metric is one registered series.
type metric struct {
	desc Desc
	kind Kind

	counter     *Counter
	counterFunc func() uint64
	gauge       *Gauge
	gaugeFunc   func() float64
	hist        *Histogram
}

func (m *metric) value() float64 {
	switch {
	case m.counter != nil:
		return float64(m.counter.Value())
	case m.counterFunc != nil:
		return float64(m.counterFunc())
	case m.gauge != nil:
		return m.gauge.Value()
	case m.gaugeFunc != nil:
		return m.gaugeFunc()
	}
	return 0
}

// Registry holds a process's metrics. Registration is idempotent on
// (Name, Labels): re-registering returns the existing instrument, so
// wiring code can run more than once (tests, reconnects) without
// duplicating series. All methods are safe on a nil *Registry — they
// return nil instruments whose methods no-op — so "observability off" is
// spelled simply as a nil registry.
type Registry struct {
	mu      sync.RWMutex
	metrics []*metric
	index   map[string]*metric
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{index: make(map[string]*metric)}
}

func (r *Registry) add(d Desc, k Kind) (*metric, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if m, ok := r.index[d.key()]; ok {
		if m.kind != k {
			panic(fmt.Sprintf("obs: %s re-registered as %v (was %v)", d.key(), k, m.kind))
		}
		return m, false
	}
	m := &metric{desc: d, kind: k}
	r.metrics = append(r.metrics, m)
	r.index[d.key()] = m
	return m, true
}

// Counter registers (or finds) a counter.
func (r *Registry) Counter(d Desc) *Counter {
	if r == nil {
		return nil
	}
	m, fresh := r.add(d, KindCounter)
	if fresh {
		m.counter = &Counter{}
	}
	return m.counter
}

// CounterFunc registers a counter whose value is read from fn at
// exposition time — for layers that already keep their own atomic
// counters (hostagg's ServerStats) or single-threaded tallies (sim's
// engine metrics; see the concurrency note on GaugeFunc). Re-registering
// rebinds the series to the new fn, so a sweep that rebuilds the
// simulator re-points its series at the live instance.
func (r *Registry) CounterFunc(d Desc, fn func() uint64) {
	if r == nil {
		return
	}
	m, _ := r.add(d, KindCounter)
	if m.counter == nil {
		m.counterFunc = fn
	}
}

// Gauge registers (or finds) a gauge.
func (r *Registry) Gauge(d Desc) *Gauge {
	if r == nil {
		return nil
	}
	m, fresh := r.add(d, KindGauge)
	if fresh {
		m.gauge = &Gauge{}
	}
	return m.gauge
}

// GaugeFunc registers a gauge read from fn at exposition time. fn must be
// safe to call from the scraping goroutine: either it reads atomics, or
// the caller only scrapes when the instrumented code is quiescent (the
// single-threaded simulator is scraped after Run returns). Like
// CounterFunc, re-registering rebinds the series to the new fn.
func (r *Registry) GaugeFunc(d Desc, fn func() float64) {
	if r == nil {
		return
	}
	m, _ := r.add(d, KindGauge)
	if m.gauge == nil {
		m.gaugeFunc = fn
	}
}

// Histogram registers (or finds) a histogram with the given upper-bound
// ladder. bounds must be sorted ascending; the +Inf bucket is implicit.
func (r *Registry) Histogram(d Desc, bounds []float64) *Histogram {
	if r == nil {
		return nil
	}
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic(fmt.Sprintf("obs: %s histogram bounds not ascending", d.Name))
		}
	}
	m, fresh := r.add(d, KindHistogram)
	if fresh {
		h := &Histogram{bounds: append([]float64(nil), bounds...)}
		h.counts = make([]atomic.Uint64, len(bounds)+1)
		m.hist = h
	}
	return m.hist
}

// Names reports the distinct metric names (label sets collapsed), sorted.
// tools/obscheck uses this to verify OBSERVABILITY.md covers every series.
func (r *Registry) Names() []string {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	defer r.mu.RUnlock()
	seen := make(map[string]bool)
	var out []string
	for _, m := range r.metrics {
		if !seen[m.desc.Name] {
			seen[m.desc.Name] = true
			out = append(out, m.desc.Name)
		}
	}
	sort.Strings(out)
	return out
}

// snapshot returns the metrics sorted by (name, labels) for deterministic
// exposition.
func (r *Registry) snapshot() []*metric {
	r.mu.RLock()
	out := append([]*metric(nil), r.metrics...)
	r.mu.RUnlock()
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].desc.Name != out[j].desc.Name {
			return out[i].desc.Name < out[j].desc.Name
		}
		return out[i].desc.Labels < out[j].desc.Labels
	})
	return out
}
