package obs

import (
	"encoding/json"
	"io"
	"maps"
	"sync"
	"sync/atomic"
)

// Registry names and exports metrics: counters, func-backed gauges, and
// latency histograms. Both halves of the runtime build one — hiddend
// serves its registry on /metrics, slicehide run folds its registry into
// the -stats json document.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*counter
	gauges   map[string]func() int64
	hists    map[string]*Histogram
}

type counter struct{ v atomic.Int64 }

// NewRegistry creates an empty metrics registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*counter),
		gauges:   make(map[string]func() int64),
		hists:    make(map[string]*Histogram),
	}
}

// CounterHandle increments a named counter.
type CounterHandle struct{ c *counter }

// Add increments the counter by d.
func (h CounterHandle) Add(d int64) {
	if h.c != nil {
		h.c.v.Add(d)
	}
}

// Counter returns (creating on first use) the named counter.
func (r *Registry) Counter(name string) CounterHandle {
	if r == nil {
		return CounterHandle{}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c := r.counters[name]
	if c == nil {
		c = &counter{}
		r.counters[name] = c
	}
	return CounterHandle{c: c}
}

// Gauge registers a func-backed gauge; it is sampled at snapshot time.
func (r *Registry) Gauge(name string, f func() int64) {
	if r == nil || f == nil {
		return
	}
	r.mu.Lock()
	r.gauges[name] = f
	r.mu.Unlock()
}

// Histogram returns (creating on first use) the named histogram.
func (r *Registry) Histogram(name string) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h := r.hists[name]
	if h == nil {
		h = &Histogram{}
		r.hists[name] = h
	}
	return h
}

// Snapshot is a point-in-time view of a registry, the expvar-style JSON
// document served on /metrics.
type Snapshot struct {
	Counters   map[string]int64        `json:"counters"`
	Gauges     map[string]int64        `json:"gauges"`
	Histograms map[string]HistSnapshot `json:"histograms"`
}

// Snapshot samples every metric.
func (r *Registry) Snapshot() Snapshot {
	s := Snapshot{
		Counters:   map[string]int64{},
		Gauges:     map[string]int64{},
		Histograms: map[string]HistSnapshot{},
	}
	if r == nil {
		return s
	}
	r.mu.Lock()
	counters, gauges, hists := maps.Clone(r.counters), maps.Clone(r.gauges), maps.Clone(r.hists)
	r.mu.Unlock()
	// Sample outside the lock: gauge funcs may take other locks (conn
	// tables, dedup caches) and must not nest under the registry's.
	for k, c := range counters {
		s.Counters[k] = c.v.Load()
	}
	for k, f := range gauges {
		s.Gauges[k] = f()
	}
	for k, h := range hists {
		s.Histograms[k] = h.Snapshot()
	}
	return s
}

// WriteJSON writes the snapshot as indented JSON.
func (r *Registry) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r.Snapshot())
}
