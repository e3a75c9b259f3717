package experiments

import (
	"bytes"
	"encoding/json"
	"errors"
	"strings"
	"testing"
	"time"

	"slicehide/internal/hrt"
	"slicehide/internal/obs"
)

// TestRunStatsSchema pins the -stats json document layout: every key the
// Table 5 harness consumes must be present, under its exact name, even
// when zero.
func TestRunStatsSchema(t *testing.T) {
	c := &hrt.Counters{}
	c.Calls.Add(3)
	c.Flushes.Add(1)
	c.ValuesSent.Add(7)

	s := NewRunStats(c, 125*time.Millisecond, nil)
	s.OpenSteps = 5000
	reg := obs.NewRegistry()
	reg.Gauge("hrt_inflight_window", func() int64 { return 2 })
	reg.Histogram("hrt_latency_call_sync_ns").Observe(40 * time.Microsecond)
	reg.Histogram("hrt_latency_enter_oneway_ns") // empty: must be omitted
	s.AddRegistry(reg)

	var buf bytes.Buffer
	if err := s.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var doc map[string]any
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("not JSON: %v", err)
	}
	for _, key := range []string{
		"schema_version", "failed", "elapsed_ns", "open_steps",
		"interactions", "one_way", "blocking", "flushes", "window_stalls",
		"values_sent", "activations",
		"bytes_sent", "bytes_recv", "wire_bytes_sent", "wire_bytes_recv",
		"retries", "reconnects", "gauges", "latency",
	} {
		if _, ok := doc[key]; !ok {
			t.Errorf("document missing key %q", key)
		}
	}
	if doc["schema_version"].(float64) != 2 {
		t.Errorf("schema_version = %v", doc["schema_version"])
	}
	if doc["open_steps"].(float64) != 5000 {
		t.Errorf("open_steps = %v", doc["open_steps"])
	}
	if txt := s.Text(); !strings.Contains(txt, "open-steps=5000 steps/s=40000 ") {
		t.Errorf("text form lacks the open side's work: %q", txt)
	}
	if doc["failed"].(bool) {
		t.Error("failed = true on a successful run")
	}
	if _, ok := doc["error"]; ok {
		t.Error("error key present on a successful run")
	}
	lat := doc["latency"].(map[string]any)
	if _, ok := lat["hrt_latency_call_sync_ns"]; !ok {
		t.Errorf("latency missing observed histogram: %v", lat)
	}
	if _, ok := lat["hrt_latency_enter_oneway_ns"]; ok {
		t.Error("latency includes empty histogram")
	}
	if g := doc["gauges"].(map[string]any); g["hrt_inflight_window"].(float64) != 2 {
		t.Errorf("gauges: %v", g)
	}
}

func TestRunStatsFailedRun(t *testing.T) {
	s := NewRunStats(&hrt.Counters{}, time.Second, errors.New("boom"))
	if !s.Failed || s.Error != "boom" {
		t.Errorf("failed run: %+v", s)
	}
	if txt := s.Text(); !strings.HasPrefix(txt, "FAILED ") {
		t.Errorf("text form not flagged: %q", txt)
	}
	ok := NewRunStats(&hrt.Counters{}, time.Second, nil)
	if strings.Contains(ok.Text(), "FAILED") {
		t.Errorf("successful run flagged: %q", ok.Text())
	}
}

func TestRunStatsTextMatchesLegacyLine(t *testing.T) {
	c := &hrt.Counters{}
	c.Calls.Add(5)
	c.Enters.Add(2)
	s := NewRunStats(c, 42*time.Millisecond, nil)
	txt := s.Text()
	for _, want := range []string{
		"interactions=", "one-way=", "blocking=", "flushes=", "window-stalls=",
		"values-sent=", "activations=2", "bytes-sent=", "wire-sent=",
		"retries=", "reconnects=", "elapsed=42ms",
	} {
		if !strings.Contains(txt, want) {
			t.Errorf("text %q missing %q", txt, want)
		}
	}
}
