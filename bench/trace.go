package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// Spans are recorded by the benchmark, around its calls into each layer;
// nothing inside the program is instrumented. They stay in memory until
// the workload ends and are then written to out/trace-<workload>.json.
//
// A nil *tracer (the untraced run) accepts every call and records nothing,
// so workload code has one path.

type span struct {
	ID      int32  `json:"id"`
	Parent  int32  `json:"parent"`
	Name    string `json:"name"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
}

type tracer struct {
	t0 time.Time
	// root is the workload span every round and rung hangs under.
	root int32

	mu    sync.Mutex
	spans []span     // structural spans: workload, round, rung
	bufs  []*spanBuf // leaf spans, one buffer per recording goroutine
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) rootID() int32 {
	if t == nil {
		return 0
	}
	return t.root
}

func (t *tracer) now() int64 { return int64(time.Since(t.t0)) }

// begin opens a structural span under parent (0 = root) and returns its id.
func (t *tracer) begin(name string, parent int32) int32 {
	if t == nil {
		return 0
	}
	now := t.now()
	t.mu.Lock()
	defer t.mu.Unlock()
	id := int32(len(t.spans) + 1)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, StartNs: now})
	return id
}

func (t *tracer) end(id int32) {
	if t == nil {
		return
	}
	now := t.now()
	t.mu.Lock()
	t.spans[id-1].EndNs = now
	t.mu.Unlock()
}

// maxLeafSpans bounds one goroutine's leaf spans so a firehose workload
// cannot turn the trace file into hundreds of megabytes; calls beyond it
// are still timed, only their spans are dropped (and counted).
const maxLeafSpans = 1 << 15

// spanBuf holds the leaf (per-call) spans of one goroutine.
type spanBuf struct {
	t       *tracer
	spans   []span
	dropped int64
}

// buf returns a leaf-span buffer for one goroutine; nil when untraced.
func (t *tracer) buf() *spanBuf {
	if t == nil {
		return nil
	}
	b := &spanBuf{t: t, spans: make([]span, 0, 4096)}
	t.mu.Lock()
	t.bufs = append(t.bufs, b)
	t.mu.Unlock()
	return b
}

// leaf records one finished call span.
func (b *spanBuf) leaf(name string, parent int32, start time.Time, d time.Duration) {
	if b == nil {
		return
	}
	if len(b.spans) >= maxLeafSpans {
		b.dropped++
		return
	}
	s := int64(start.Sub(b.t.t0))
	b.spans = append(b.spans, span{Parent: parent, Name: name, StartNs: s, EndNs: s + int64(d)})
}

type traceFile struct {
	Workload string `json:"workload"`
	Dropped  int64  `json:"dropped_leaf_spans"`
	// SelfNs is each span name's total self time: duration minus the part
	// of that interval its child spans cover.
	SelfNs map[string]int64 `json:"self_ns"`
	Spans  []span           `json:"spans"`
}

// write merges the buffers, computes self times and writes the trace file.
// It returns the number of spans written.
func (t *tracer) write(dir, workload string) (int, error) {
	t.mu.Lock()
	all := append([]span(nil), t.spans...)
	var dropped int64
	for _, b := range t.bufs {
		dropped += b.dropped
		for _, s := range b.spans {
			s.ID = int32(len(all) + 1)
			all = append(all, s)
		}
	}
	t.mu.Unlock()

	if err := os.MkdirAll(dir, 0o755); err != nil {
		return 0, err
	}
	f, err := os.Create(filepath.Join(dir, "trace-"+workload+".json"))
	if err != nil {
		return 0, err
	}
	enc := json.NewEncoder(f)
	if err := enc.Encode(traceFile{Workload: workload, Dropped: dropped, SelfNs: selfTimes(all), Spans: all}); err != nil {
		f.Close()
		return 0, err
	}
	return len(all), f.Close()
}

// selfTimes sums, per span name, duration minus the union of child
// intervals (children of concurrent clients overlap, so durations cannot
// simply be subtracted).
func selfTimes(all []span) map[string]int64 {
	children := make(map[int32][][2]int64)
	for _, s := range all {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], [2]int64{s.StartNs, s.EndNs})
		}
	}
	self := make(map[string]int64)
	for _, s := range all {
		iv := children[s.ID]
		sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
		var covered, end int64
		end = s.StartNs
		for _, c := range iv {
			lo, hi := c[0], c[1]
			if lo < end {
				lo = end
			}
			if hi > s.EndNs {
				hi = s.EndNs
			}
			if hi > lo {
				covered += hi - lo
				end = hi
			}
		}
		self[s.Name] += (s.EndNs - s.StartNs) - covered
	}
	return self
}
