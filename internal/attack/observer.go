package attack

import (
	"fmt"
	"sort"
	"sync"

	"slicehide/internal/hrt"
	"slicehide/internal/interp"
)

// FragKey identifies one hidden fragment of one split function.
type FragKey struct {
	Fn   string
	Frag int
}

func (k FragKey) String() string { return fmt.Sprintf("%s/frag%d", k.Fn, k.Frag) }

// Observer is a Transport wrapper that records everything an adversary on
// the unsecure machine can see: the values sent to the hidden component and
// the values it returns, per fragment. Feature vectors pair each returned
// value with the call's own arguments plus a sliding window of the most
// recent values sent during the same activation (the adversary does not
// know which earlier sends matter, §3).
type Observer struct {
	Inner hrt.Transport
	// Window is the number of recent sent values appended to each sample's
	// inputs (0 = the call's arguments only).
	Window int

	mu     sync.Mutex
	byFrag map[FragKey][]Sample
	sent   map[actKey][]float64
}

type actKey struct {
	fn   string
	inst int64
}

// NewObserver wraps t.
func NewObserver(t hrt.Transport, window int) *Observer {
	return &Observer{
		Inner:  t,
		Window: window,
		byFrag: make(map[FragKey][]Sample),
		sent:   make(map[actKey][]float64),
	}
}

// RoundTrip forwards the request while recording the adversary's view.
func (o *Observer) RoundTrip(req hrt.Request) (hrt.Response, error) {
	resp, err := o.Inner.RoundTrip(req)
	if err != nil {
		return resp, err
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	ak := actKey{fn: req.Fn, inst: resp.Inst}
	switch req.Op {
	case hrt.OpEnter:
		o.sent[ak] = nil
	case hrt.OpExit:
		delete(o.sent, actKey{fn: req.Fn, inst: req.Inst})
	case hrt.OpCall:
		ak = actKey{fn: req.Fn, inst: req.Inst}
		var inputs []float64
		ok := true
		for _, a := range req.Args {
			f, good := toFloat(a)
			if !good {
				ok = false
				break
			}
			inputs = append(inputs, f)
		}
		hist := o.sent[ak]
		if ok && o.Window > 0 {
			w := o.Window
			pad := w - len(hist)
			for i := 0; i < pad; i++ {
				inputs = append(inputs, 0)
			}
			start := len(hist) - w
			if start < 0 {
				start = 0
			}
			inputs = append(inputs, hist[start:]...)
		}
		if out, good := toFloat(resp.Val); good && ok {
			key := FragKey{Fn: req.Fn, Frag: req.Frag}
			o.byFrag[key] = append(o.byFrag[key], Sample{Inputs: inputs, Output: out})
		}
		// Every argument value becomes part of the activation history.
		for _, a := range req.Args {
			if f, good := toFloat(a); good {
				o.sent[ak] = append(o.sent[ak], f)
			}
		}
	}
	return resp, nil
}

func toFloat(v interp.Value) (float64, bool) {
	switch v.Kind {
	case interp.KindInt:
		return float64(v.I), true
	case interp.KindFloat:
		return v.F(), true
	case interp.KindBool:
		if v.B() {
			return 1, true
		}
		return 0, true
	}
	return 0, false
}

// Samples returns the observations for one fragment.
func (o *Observer) Samples(k FragKey) []Sample {
	o.mu.Lock()
	defer o.mu.Unlock()
	return append([]Sample(nil), o.byFrag[k]...)
}

// Fragments lists observed fragment keys, sorted.
func (o *Observer) Fragments() []FragKey {
	o.mu.Lock()
	defer o.mu.Unlock()
	keys := make([]FragKey, 0, len(o.byFrag))
	for k := range o.byFrag {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].Fn != keys[j].Fn {
			return keys[i].Fn < keys[j].Fn
		}
		return keys[i].Frag < keys[j].Frag
	})
	return keys
}

// AttackAll runs TryRecover against every observed fragment.
func (o *Observer) AttackAll(opts RecoveryOptions) map[FragKey]RecoveryResult {
	out := make(map[FragKey]RecoveryResult)
	for _, k := range o.Fragments() {
		out[k] = TryRecover(Dedup(o.Samples(k)), opts)
	}
	return out
}
