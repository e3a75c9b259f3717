package hrt

import (
	"bytes"
	"fmt"
	"os"
	"slices"
	"testing"

	"slicehide/internal/core"
	"slicehide/internal/interp"
	"slicehide/internal/obs"
)

// recoverTraced restarts a durability layer over dir with a tracer and
// returns it with its wal_recover event and the number of warn-level
// events recovery traced.
func recoverTraced(t *testing.T, dir string, opts DurabilityOptions) (*Durability, obs.Event, int) {
	t.Helper()
	opts.Tracer = obs.NewTracer(obs.TracerConfig{Level: obs.LevelDebug})
	_, _, p := startDurable(t, split(t, stressSrc, core.Spec{Func: "f", Seed: "a"}), dir, opts)
	t.Cleanup(func() { crash(t, p) })
	var rec obs.Event
	warns, found := 0, 0
	for _, ev := range opts.Tracer.Events() {
		if ev.Level == obs.LevelWarn.String() {
			warns++
		}
		if ev.Kind == "wal_recover" {
			rec = ev
			found++
		}
	}
	if found != 1 {
		t.Fatalf("wal_recover traced %d times, want once per recovery", found)
	}
	return p, rec, warns
}

// nonZero counts the bytes of b that are not zero.
func nonZero(b []byte) int64 {
	return int64(len(b) - bytes.Count(b, []byte{0}))
}

// TestRecoverReportsTornTip: bytes past the tip journal's last whole
// record are truncated away by recovery, and it says how many at warn
// level.
func TestRecoverReportsTornTip(t *testing.T) {
	dir := t.TempDir()
	res := split(t, stressSrc, core.Spec{Func: "f", Seed: "a"})
	initFrag, _ := stressFrags(t, res)
	opts := DurabilityOptions{SnapshotEvery: -1}
	_, dd1, p1 := startDurable(t, res, dir, opts)
	inst := mustRoundTrip(t, dd1, Request{Op: OpEnter, Session: 6, Seq: 1, Fn: "f"}).Inst
	mustRoundTrip(t, dd1, Request{Op: OpCall, Session: 6, Seq: 2, Fn: "f", Inst: inst,
		Frag: initFrag, Args: []interp.Value{interp.IntV(5)}})
	path, end := p1.journalPath(p1.gen), p1.wlog.Size()
	crash(t, p1)
	// A torn frame: a length and part of a checksum, then nothing.
	torn := []byte{40, 0, 0, 0, 0xAB, 0xCD}
	writeJournalAt(t, path, end, torn)

	p2, ev, warns := recoverTraced(t, dir, opts)
	rec := p2.Recovered()
	if rec.Records != 2 || rec.CutBytes != nonZero(torn) || len(rec.Pruned) != 0 {
		t.Fatalf("recovered %d records, cut %d bytes, pruned %v; want 2, %d, none", rec.Records, rec.CutBytes, rec.Pruned, nonZero(torn))
	}
	if ev.Level != obs.LevelWarn.String() || ev.Attrs["cut_bytes"] != fmt.Sprint(nonZero(torn)) || warns != 1 {
		t.Fatalf("wal_recover %+v with %d warn events; want one warn naming %d cut bytes", ev, warns, nonZero(torn))
	}
}

// TestRecoverReportsChainCut damages generation 0's journal mid-file while
// generation 1's exists and its snapshot does not: the chain is cut at
// generation 0, recovery keeps the records before the damage, truncates
// the rest of journal-0 and deletes journal-1, and names exactly that.
func TestRecoverReportsChainCut(t *testing.T) {
	dir := t.TempDir()
	res := split(t, stressSrc, core.Spec{Func: "f", Seed: "a"})
	initFrag, _ := stressFrags(t, res)
	opts := DurabilityOptions{SnapshotEvery: -1}
	_, dd1, p1 := startDurable(t, res, dir, opts)
	inst := mustRoundTrip(t, dd1, Request{Op: OpEnter, Session: 4, Seq: 1, Fn: "f"}).Inst
	mustRoundTrip(t, dd1, Request{Op: OpCall, Session: 4, Seq: 2, Fn: "f", Inst: inst,
		Frag: initFrag, Args: []interp.Value{interp.IntV(11)}})
	if err := p1.Snapshot(); err != nil {
		t.Fatalf("snapshot: %v", err)
	}
	p1.snapWG.Wait()
	mustRoundTrip(t, dd1, Request{Op: OpCall, Session: 4, Seq: 3, Fn: "f", Inst: inst,
		Frag: initFrag, Args: []interp.Value{interp.IntV(23)}})
	crash(t, p1)
	if err := os.Remove(p1.snapPath(1)); err != nil {
		t.Fatal(err)
	}
	// Flip a byte inside the second record of journal-0: its CRC fails.
	j0, j1 := p1.journalPath(0), p1.journalPath(1)
	first, err := truncatedPrefix(j0, 1)
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(j0)
	if err != nil {
		t.Fatal(err)
	}
	data[first+12] ^= 0xFF
	if err := os.WriteFile(j0, data, 0o644); err != nil {
		t.Fatal(err)
	}
	info, err := os.Stat(j1)
	if err != nil {
		t.Fatal(err)
	}

	p2, ev, warns := recoverTraced(t, dir, opts)
	rec := p2.Recovered()
	wantCut := nonZero(data[first:])
	wantPruned := []string{fmt.Sprintf("journal-00000001.wal (%d bytes)", info.Size())}
	if rec.Generation != 0 || rec.Records != 1 || rec.CutBytes != wantCut || !slices.Equal(rec.Pruned, wantPruned) {
		t.Fatalf("recovered generation %d, %d records, cut %d bytes, pruned %q; want 0, 1, %d, %q",
			rec.Generation, rec.Records, rec.CutBytes, rec.Pruned, wantCut, wantPruned)
	}
	if _, err := os.Stat(j1); !os.IsNotExist(err) {
		t.Errorf("journal-1 still on disk after the chain cut (%v)", err)
	}
	if ev.Level != obs.LevelWarn.String() || ev.Attrs["cut_bytes"] != fmt.Sprint(wantCut) ||
		ev.Attrs["pruned"] != wantPruned[0] || warns != 1 {
		t.Fatalf("wal_recover %+v with %d warn events; want one warn naming %d cut bytes and %s", ev, warns, wantCut, wantPruned[0])
	}
}

// TestRecoverCleanRestartInfoOnly: a restart that discards nothing stays
// at info level, both after a clean close and after a kill under Fsync,
// whose journal ends in zero fill (not damage, nothing is lost).
func TestRecoverCleanRestartInfoOnly(t *testing.T) {
	for _, kill := range []bool{false, true} {
		t.Run(fmt.Sprintf("kill=%v", kill), func(t *testing.T) {
			dir := t.TempDir()
			res := split(t, stressSrc, core.Spec{Func: "f", Seed: "a"})
			initFrag, _ := stressFrags(t, res)
			opts := DurabilityOptions{Fsync: true, CommitBytes: 1 << 20, SnapshotEvery: -1}
			_, dd1, p1 := startDurable(t, res, dir, opts)
			inst := mustRoundTrip(t, dd1, Request{Op: OpEnter, Session: 2, Seq: 1, Fn: "f"}).Inst
			mustRoundTrip(t, dd1, Request{Op: OpCall, Session: 2, Seq: 2, Fn: "f", Inst: inst,
				Frag: initFrag, Args: []interp.Value{interp.IntV(9)}})
			if kill {
				crash(t, p1)
			} else if err := p1.Close(); err != nil {
				t.Fatal(err)
			}

			p2, ev, warns := recoverTraced(t, dir, opts)
			rec := p2.Recovered()
			if rec.CutBytes != 0 || rec.Pruned != nil {
				t.Errorf("clean restart cut %d bytes and pruned %v", rec.CutBytes, rec.Pruned)
			}
			if ev.Level != obs.LevelInfo.String() || warns != 0 {
				t.Errorf("clean restart traced wal_recover %+v and %d warn events", ev, warns)
			}
		})
	}
}
