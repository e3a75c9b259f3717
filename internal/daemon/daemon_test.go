package daemon

import (
	"strings"
	"testing"
)

// TestParseFlags pins hiddend's command-line contract: the retired tuning
// flags are undefined, journal flags without -data-dir are refused rather
// than silently ignored, and the fleet flags keep their dependency rules.
func TestParseFlags(t *testing.T) {
	for _, tc := range []struct {
		name    string
		args    []string
		wantErr string // "" = must parse
	}{
		{"minimal", []string{"-split", "f:a", "p.mj"}, ""},
		{"durable", []string{"-split", "f:a", "-data-dir", "d", "-fsync", "-snapshot-every", "8", "p.mj"}, ""},
		{"fsync=false without data-dir", []string{"-split", "f:a", "-fsync=false", "p.mj"}, ""},

		{"shards retired", []string{"-split", "f:a", "-shards", "4", "p.mj"}, "flag provided but not defined: -shards"},
		{"commit-bytes retired", []string{"-split", "f:a", "-data-dir", "d", "-commit-bytes", "0", "p.mj"}, "flag provided but not defined: -commit-bytes"},
		{"commit-interval retired", []string{"-split", "f:a", "-data-dir", "d", "-commit-interval", "1ms", "p.mj"}, "flag provided but not defined: -commit-interval"},

		{"fsync without data-dir", []string{"-split", "f:a", "-fsync", "p.mj"}, "-fsync requires -data-dir"},
		{"snapshot-every without data-dir", []string{"-split", "f:a", "-snapshot-every", "0", "p.mj"}, "-snapshot-every requires -data-dir"},

		{"replicate without peers", []string{"-split", "f:a", "-data-dir", "d", "-replicate", "p.mj"}, "-replicate requires -peers or -join"},
		{"replicate without data-dir", []string{"-split", "f:a", "-peers", "a:1", "-replicate", "p.mj"}, "-replicate requires -data-dir"},
		{"join without replicate", []string{"-split", "f:a", "-data-dir", "d", "-join", "a:1", "p.mj"}, "-join requires -replicate"},
		{"replicating member", []string{"-split", "f:a", "-data-dir", "d", "-peers", "a:1", "-replicate", "p.mj"}, ""},
		{"joiner", []string{"-split", "f:a", "-data-dir", "d", "-join", "a:1", "-replicate", "p.mj"}, ""},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg, err := ParseFlags(tc.args)
			if tc.wantErr == "" {
				if err != nil {
					t.Fatalf("ParseFlags(%q) = %v, want success", tc.args, err)
				}
				if cfg.Program != "p.mj" {
					t.Errorf("Program = %q, want p.mj", cfg.Program)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("ParseFlags(%q) = %v, want an error containing %q", tc.args, err, tc.wantErr)
			}
		})
	}
}
