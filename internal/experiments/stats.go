package experiments

import (
	"encoding/json"
	"fmt"
	"io"
	"time"

	"slicehide/internal/hrt"
	"slicehide/internal/obs"
)

// RunStatsSchemaVersion identifies the `slicehide run -stats json`
// document layout. Bump it on any incompatible change; downstream
// tooling (the Table 5 harness, ad-hoc analysis scripts) keys on it.
// Version 2 added open_steps.
const RunStatsSchemaVersion = 2

// RunStats is the machine-readable statistics document one `slicehide
// run` emits with -stats json. It carries every interaction counter the
// old human-readable line reported, plus the per-request-kind latency
// histograms and client-side gauges from the run's metrics registry —
// the numbers behind the Table 5 columns.
type RunStats struct {
	SchemaVersion int `json:"schema_version"`
	// Failed reports whether the run ended in an error; Error carries it.
	// Counters from a failed run describe a truncated execution and must
	// not be compared against successful runs.
	Failed bool   `json:"failed"`
	Error  string `json:"error,omitempty"`

	ElapsedNs int64 `json:"elapsed_ns"`

	// OpenSteps is the open machine's own work: statements it executed
	// (one per statement reached, one per completed loop iteration). It is
	// structure the open machine observes anyway — nothing hidden.
	OpenSteps int64 `json:"open_steps"`

	// Interaction counters (logical protocol events, client side).
	Interactions int64 `json:"interactions"`
	OneWay       int64 `json:"one_way"`
	Blocking     int64 `json:"blocking"`
	Flushes      int64 `json:"flushes"`
	WindowStalls int64 `json:"window_stalls"`
	ValuesSent   int64 `json:"values_sent"`
	Activations  int64 `json:"activations"`

	// Volume counters: logical frame sizes vs true wire bytes (coalesced
	// writes and retransmissions included).
	BytesSent     int64 `json:"bytes_sent"`
	BytesRecv     int64 `json:"bytes_recv"`
	WireBytesSent int64 `json:"wire_bytes_sent"`
	WireBytesRecv int64 `json:"wire_bytes_recv"`

	// Fault-tolerance counters. SessionBounces counts requests the server
	// refused because the session's exactly-once replay state was lost
	// (evicted, or a non-durable server restarted mid-session).
	Retries        int64 `json:"retries"`
	Reconnects     int64 `json:"reconnects"`
	SessionBounces int64 `json:"session_bounces"`

	// Gauges and Latency fold in the run's metrics registry: point-in-time
	// gauges (in-flight window depth) and per-request-kind latency
	// histograms (hrt_latency_*).
	Gauges  map[string]int64            `json:"gauges,omitempty"`
	Latency map[string]obs.HistSnapshot `json:"latency,omitempty"`
}

// NewRunStats assembles the stats document from a run's counters,
// elapsed time, and outcome.
func NewRunStats(c *hrt.Counters, elapsed time.Duration, runErr error) RunStats {
	s := RunStats{
		SchemaVersion: RunStatsSchemaVersion,
		ElapsedNs:     int64(elapsed),
	}
	if runErr != nil {
		s.Failed = true
		s.Error = runErr.Error()
	}
	if c != nil {
		s.Interactions = c.Interactions()
		s.OneWay = c.OneWay.Load()
		s.Blocking = c.Blocking()
		s.Flushes = c.Flushes.Load()
		s.WindowStalls = c.WindowStalls.Load()
		s.ValuesSent = c.ValuesSent.Load()
		s.Activations = c.Enters.Load()
		s.BytesSent = c.BytesSent.Load()
		s.BytesRecv = c.BytesRecv.Load()
		s.WireBytesSent = c.WireBytesSent.Load()
		s.WireBytesRecv = c.WireBytesRecv.Load()
		s.Retries = c.Retries.Load()
		s.Reconnects = c.Reconnects.Load()
		s.SessionBounces = c.SessionBounces.Load()
	}
	return s
}

// AddRegistry folds a metrics registry's gauges and latency histograms
// into the document. Empty histograms are skipped: a synchronous run
// reports no oneway latency rather than an all-zero series.
func (s *RunStats) AddRegistry(reg *obs.Registry) {
	if reg == nil {
		return
	}
	snap := reg.Snapshot()
	if len(snap.Gauges) > 0 {
		s.Gauges = snap.Gauges
	}
	for name, h := range snap.Histograms {
		if h.Count == 0 {
			continue
		}
		if s.Latency == nil {
			s.Latency = make(map[string]obs.HistSnapshot)
		}
		s.Latency[name] = h
	}
}

// WriteJSON writes the document as indented JSON.
func (s RunStats) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(s)
}

// Text renders the legacy single-line human form (-stats text).
func (s RunStats) Text() string {
	var stepsPerSec float64
	if s.ElapsedNs > 0 {
		stepsPerSec = float64(s.OpenSteps) / time.Duration(s.ElapsedNs).Seconds()
	}
	line := fmt.Sprintf("interactions=%d one-way=%d blocking=%d flushes=%d window-stalls=%d values-sent=%d activations=%d bytes-sent=%d bytes-recv=%d wire-sent=%d wire-recv=%d retries=%d reconnects=%d bounces=%d open-steps=%d steps/s=%.0f elapsed=%s",
		s.Interactions, s.OneWay, s.Blocking, s.Flushes, s.WindowStalls,
		s.ValuesSent, s.Activations, s.BytesSent, s.BytesRecv,
		s.WireBytesSent, s.WireBytesRecv, s.Retries, s.Reconnects, s.SessionBounces,
		s.OpenSteps, stepsPerSec,
		time.Duration(s.ElapsedNs).Round(time.Millisecond))
	if s.Failed {
		line = "FAILED " + line
	}
	return line
}
