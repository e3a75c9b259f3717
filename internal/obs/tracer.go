// Package obs is the observability substrate for the split runtime: a
// structured, ring-buffered event tracer with secret redaction, latency
// histograms, a metrics registry, and the HTTP admin surface hiddend
// exposes. It depends only on the standard library so every layer of the
// runtime (transports, dedup, server, interpreter, CLIs) can hook into it
// without import cycles.
package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// Level orders trace events by importance.
type Level int32

// Trace levels, least to most severe.
const (
	LevelDebug Level = iota
	LevelInfo
	LevelWarn
	LevelError
)

// String returns the level's lowercase name.
func (l Level) String() string {
	switch l {
	case LevelDebug:
		return "debug"
	case LevelInfo:
		return "info"
	case LevelWarn:
		return "warn"
	case LevelError:
		return "error"
	}
	return fmt.Sprintf("level(%d)", int32(l))
}

// Redacted is the placeholder a secret attribute's value is replaced with
// before an event is stored or written. The substitution happens at Emit
// time, so a secret never reaches the ring buffer or the sink unless the
// tracer was explicitly built with RevealSecrets.
const Redacted = "[redacted]"

// Attr is one key/value pair on a trace event.
type Attr struct {
	Key string
	Val string
	// num carries an Int (signed) or Uint (isNum) value in place of Val;
	// Emit formats it only for an event it records.
	num           uint64
	isNum, signed bool
	// secret marks values derived from hidden program state; they are
	// redacted unless the tracer reveals secrets.
	secret bool
}

// Str builds a string attribute.
func Str(k, v string) Attr { return Attr{Key: k, Val: v} }

// Int builds an integer attribute.
func Int(k string, v int64) Attr { return Attr{Key: k, num: uint64(v), isNum: true, signed: true} }

// Uint builds an unsigned integer attribute.
func Uint(k string, v uint64) Attr { return Attr{Key: k, num: v, isNum: true} }

// Dur builds a duration attribute.
func Dur(k string, d time.Duration) Attr { return Attr{Key: k, Val: d.String()} }

// Err builds an error attribute ("" for nil).
func Err(err error) Attr {
	if err == nil {
		return Attr{Key: "err"}
	}
	return Attr{Key: "err", Val: err.Error()}
}

// Secret builds an attribute whose value is hidden program state (fragment
// arguments, hidden-variable contents, fragment results). It is replaced
// by Redacted at Emit time on every tracer that does not reveal secrets.
func Secret(k, v string) Attr { return Attr{Key: k, Val: v, secret: true} }

// Event is one recorded trace event. Attrs are flattened into a map so
// events marshal as stable JSON objects.
type Event struct {
	Time  time.Time         `json:"t"`
	Level string            `json:"level"`
	Kind  string            `json:"kind"`
	Attrs map[string]string `json:"attrs,omitempty"`
}

// TracerConfig configures NewTracer.
type TracerConfig struct {
	// Level is the minimum level recorded (default LevelDebug).
	Level Level
	// RingSize bounds the in-memory event buffer (default 1024).
	RingSize int
	// Output, when set, additionally receives every recorded event as one
	// JSON document per line.
	Output io.Writer
	// RevealSecrets disables redaction of Secret attributes. It exists for
	// controlled debugging only; neither CLI ever sets it, because a trace
	// that contains hidden values defeats the hiding transformation (§3).
	RevealSecrets bool
}

// Tracer records structured events into a fixed-size ring, optionally
// streaming them to a sink. All methods are safe for concurrent use and
// are no-ops on a nil receiver, so hook sites need no nil checks.
type Tracer struct {
	level   atomic.Int32
	reveal  bool
	dropped atomic.Int64

	mu   sync.Mutex
	ring []Event
	next int
	n    int
	w    io.Writer
	werr error
}

const defaultRingSize = 1024

// NewTracer builds a tracer from cfg.
func NewTracer(cfg TracerConfig) *Tracer {
	size := cfg.RingSize
	if size <= 0 {
		size = defaultRingSize
	}
	t := &Tracer{ring: make([]Event, size), reveal: cfg.RevealSecrets, w: cfg.Output}
	t.level.Store(int32(cfg.Level))
	return t
}

// Enabled reports whether events at level l are recorded.
func (t *Tracer) Enabled(l Level) bool {
	return t != nil && int32(l) >= t.level.Load()
}

// Emit records one event. Secret attribute values are redacted here —
// before the event is buffered or written — unless the tracer was built
// with RevealSecrets.
func (t *Tracer) Emit(l Level, kind string, attrs ...Attr) {
	if !t.Enabled(l) {
		return
	}
	ev := Event{Time: time.Now(), Level: l.String(), Kind: kind}
	if len(attrs) > 0 {
		ev.Attrs = make(map[string]string, len(attrs))
		for _, a := range attrs {
			v := a.Val
			switch {
			case a.secret && !t.reveal:
				v = Redacted
			case a.signed:
				v = strconv.FormatInt(int64(a.num), 10)
			case a.isNum:
				v = strconv.FormatUint(a.num, 10)
			}
			ev.Attrs[a.Key] = v
		}
	}
	t.mu.Lock()
	t.ring[t.next] = ev
	t.next = (t.next + 1) % len(t.ring)
	if t.n < len(t.ring) {
		t.n++
	}
	w, werr := t.w, t.werr
	t.mu.Unlock()
	if w == nil || werr != nil {
		return
	}
	line, err := json.Marshal(ev)
	if err == nil {
		line = append(line, '\n')
		_, err = w.Write(line)
	}
	if err != nil {
		// A failing sink must not take the traced program down; remember
		// the error, count the losses, and keep buffering in memory.
		t.dropped.Add(1)
		t.mu.Lock()
		t.werr = err
		t.mu.Unlock()
	}
}

// Events returns a snapshot of the buffered events, oldest first.
func (t *Tracer) Events() []Event {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]Event, 0, t.n)
	start := t.next - t.n + len(t.ring)
	for i := 0; i < t.n; i++ {
		out = append(out, t.ring[(start+i)%len(t.ring)])
	}
	return out
}
