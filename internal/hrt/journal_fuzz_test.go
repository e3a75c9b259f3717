package hrt

import (
	"bytes"
	"testing"

	"slicehide/internal/interp"
)

// Journal records are read back at recovery from a file a crash (or an
// attacker with disk access) may have mangled. The CRC framing catches
// torn writes; this fuzzer covers the layer above it — a CRC-clean but
// corrupt payload must decode to an error, never a panic or a huge
// allocation, so recovery can stop cleanly at the first bad record.

func fuzzSeedRecords() []journalRecord {
	return []journalRecord{
		{op: OpEnter, counted: true, session: 7, seq: 1, fn: "f", inst: 3, obj: 9,
			resp: Response{Inst: 3}},
		{op: OpExit, counted: true, session: 7, seq: 5, fn: "Class.method", inst: 3},
		{op: OpCall, counted: true, session: 1 << 60, seq: 1 << 40, fn: "f", inst: 1, frag: 4,
			globalsVersion: 12,
			deltas: []stateDelta{
				{scope: scopeAct, name: "a$1", val: interp.IntV(-5)},
				{scope: scopeGlobal, name: "counter", val: interp.FloatV(2.5)},
				{scope: scopeField, name: "v", class: "C", obj: 2, val: interp.StrV("x\x00y")},
			},
			resp: Response{Val: interp.IntV(9)}},
		// A journaled failure: no state deltas, deferred error text.
		{op: OpCall, noReply: true, session: 8, seq: 3, fn: "f", inst: 1, frag: 9999,
			resp: Response{Err: "hrt: unknown fragment"}},
		{op: OpFlush, session: 8, seq: 4},
	}
}

func FuzzJournalRecord(f *testing.F) {
	for _, rec := range fuzzSeedRecords() {
		payload, err := appendRecord(nil, &rec)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(payload)
	}
	f.Add([]byte{})
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF})
	f.Fuzz(func(t *testing.T, data []byte) {
		rec, err := decodeRecord(data)
		if err != nil {
			return
		}
		// Whatever decoded must re-encode, and decode back identically.
		out, err := appendRecord(nil, rec)
		if err != nil {
			t.Fatalf("decoded record does not re-encode: %v (%+v)", err, rec)
		}
		again, err := decodeRecord(out)
		if err != nil {
			t.Fatalf("re-encoded record does not decode: %v", err)
		}
		if again.op != rec.op || again.noReply != rec.noReply || again.counted != rec.counted ||
			again.session != rec.session || again.seq != rec.seq || again.fn != rec.fn ||
			again.inst != rec.inst || again.obj != rec.obj || again.frag != rec.frag ||
			again.globalsVersion != rec.globalsVersion || len(again.deltas) != len(rec.deltas) ||
			again.resp.Err != rec.resp.Err || again.resp.Inst != rec.resp.Inst {
			t.Fatalf("record round trip diverged: %+v vs %+v", rec, again)
		}
		for i := range rec.deltas {
			a, b := rec.deltas[i], again.deltas[i]
			if a.scope != b.scope || a.name != b.name || a.class != b.class || a.obj != b.obj {
				t.Fatalf("delta %d diverged: %+v vs %+v", i, a, b)
			}
		}
		// Values are compared by their encoding, not with Value.Equal: a
		// float NaN is a legal journaled value and is not equal to itself.
		if out2, err := appendRecord(nil, again); err != nil || !bytes.Equal(out, out2) {
			t.Fatalf("re-encoding is not a fixed point (%v): %x vs %x", err, out, out2)
		}
	})
}
