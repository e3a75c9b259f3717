package daemon

import (
	"fmt"
	"io"
	"strings"
	"testing"
	"time"

	"slicehide/internal/hrt"
	"slicehide/internal/interp"
	"slicehide/internal/vm"
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
		{"repl-ack-timeout without replicate", []string{"-split", "f:a", "-data-dir", "d", "-repl-ack-timeout", "1s", "p.mj"}, "-repl-ack-timeout requires -replicate"},
		{"replicating member", []string{"-split", "f:a", "-data-dir", "d", "-peers", "a:1", "-replicate", "p.mj"}, ""},
		{"joiner", []string{"-split", "f:a", "-data-dir", "d", "-join", "a:1", "-replicate", "p.mj"}, ""},
		{"replicating member with ack timeout", []string{"-split", "f:a", "-data-dir", "d", "-peers", "a:1", "-replicate", "-repl-ack-timeout", "1s", "p.mj"}, ""},
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

// TestGroupCommitFollowsFsync pins hiddend's commit policy: group commit
// shares one flush among concurrent sessions, so it runs exactly when
// -fsync is set. Without -fsync there is no flush to share and every
// append is its own write; the committer never makes a batch.
func TestGroupCommitFollowsFsync(t *testing.T) {
	res := chaosResult(t)
	program := writeProgram(t)
	for _, fsync := range []bool{false, true} {
		t.Run(fmt.Sprintf("fsync=%v", fsync), func(t *testing.T) {
			d, err := Start(Config{
				Listen:  "127.0.0.1:0",
				Split:   chaosSplit,
				Program: program,
				DataDir: t.TempDir(),
				Fsync:   fsync,
				Admin:   "127.0.0.1:0",
				Stdout:  io.Discard,
			})
			if err != nil {
				t.Fatal(err)
			}
			defer d.Close()
			mt, err := hrt.DialMux(hrt.MuxConfig{Addr: d.addr.String(), Timeout: 5 * time.Second})
			if err != nil {
				t.Fatal(err)
			}
			defer mt.Close()
			// Several sessions run the split program at once, every hidden
			// call a reply-bearing round trip, so their appends overlap.
			const sessions = 8
			errs := make(chan error, sessions)
			for s := 0; s < sessions; s++ {
				go func() {
					in := vm.NewMachine(res.Open, interp.Options{
						Out:        io.Discard,
						Hidden:     &hrt.Session{T: mt.Stream(0, nil)},
						SplitFuncs: res.SplitSet(),
					})
					errs <- in.Run()
				}()
			}
			for s := 0; s < sessions; s++ {
				if err := <-errs; err != nil {
					t.Fatal(err)
				}
			}
			g := scrapeGauges(t, d.admin.Addr().String())
			if g["hrt_executed_calls"] == 0 {
				t.Fatal("no hidden calls executed")
			}
			batches := g["wal_commit_batches_total"]
			if fsync && batches == 0 {
				t.Error("-fsync: wal_commit_batches_total = 0, want group commit engaged")
			}
			if !fsync && batches != 0 {
				t.Errorf("no -fsync: wal_commit_batches_total = %d, want 0 (each append its own write)", batches)
			}
		})
	}
}
