package vm

import (
	"errors"
	"sync"
	"sync/atomic"

	"slicehide/internal/interp"
	"slicehide/internal/ir"
)

// Frame is a reusable temp-register file. Frames are cached on activation
// stores (calls of one session are serialized, so the store owns its frame
// between calls) and overflow into a FramePool.
type Frame struct {
	temps []interp.Value
	// sp is the operand file of the execution in progress, kept here so a
	// call binds five slices instead of building a file from scratch.
	sp spaces
}

// FramePool recycles frames across activations. One pool serves a whole
// server: frames are sized to the program's largest fragment.
type FramePool struct {
	mu     sync.Mutex
	free   []*Frame
	temps  int32
	pooled atomic.Int64
}

// NewFramePool creates a pool of frames with the given temp count.
func NewFramePool(temps int32) *FramePool {
	return &FramePool{temps: temps}
}

// Get returns a pooled frame or allocates a fresh one.
func (p *FramePool) Get() *Frame {
	p.mu.Lock()
	if n := len(p.free); n > 0 {
		f := p.free[n-1]
		p.free[n-1] = nil
		p.free = p.free[:n-1]
		p.mu.Unlock()
		p.pooled.Add(-1)
		return f
	}
	p.mu.Unlock()
	return &Frame{temps: make([]interp.Value, p.temps)}
}

// Put parks a frame for reuse.
func (p *FramePool) Put(f *Frame) {
	if f == nil {
		return
	}
	f.sp = spaces{} // drop the last execution's stores and arguments
	p.mu.Lock()
	p.free = append(p.free, f)
	p.mu.Unlock()
	p.pooled.Add(1)
}

// Pooled reports how many frames are parked (the vm_frames_pooled gauge).
func (p *FramePool) Pooled() int64 { return p.pooled.Load() }

// Env addresses the three stores a fragment can reach. Act and Fields may
// alias the same slice for CompClass components, and Act aliases Globals
// for the globals component.
type Env struct {
	Act, Globals, Fields []interp.Value
}

// WriteSet records which slots an execution wrote, bucketed by store, for
// the durability layer's effect capture. Nil disables tracking (the
// default path pays one predictable branch per store).
type WriteSet struct {
	Act, Globals, Fields []int32
}

// Reset clears the set for reuse.
func (w *WriteSet) Reset() {
	w.Act, w.Globals, w.Fields = w.Act[:0], w.Globals[:0], w.Fields[:0]
}

func addSlot(list []int32, s int32) []int32 {
	for _, x := range list {
		if x == s {
			return list
		}
	}
	return append(list, s)
}

// add records a store into slot i of a persistent space (temps are scratch
// and never recorded).
func (w *WriteSet) add(space, i uint32) {
	switch space {
	case spcAct:
		w.Act = addSlot(w.Act, int32(i))
	case spcGlobal:
		w.Globals = addSlot(w.Globals, int32(i))
	case spcField:
		w.Fields = addSlot(w.Fields, int32(i))
	}
}

var errStepLimit = errors.New("hrt: fragment step limit exceeded")

// Prebuilt errors matching the interpreter's messages; shared instances
// keep the error path allocation-free. A Machine copies one before
// attaching a source position.
var (
	errDivZero     = &interp.RuntimeError{Msg: "division by zero"}
	errReadNullArr = &interp.RuntimeError{Msg: "read from null array"}
	errStoreNull   = &interp.RuntimeError{Msg: "store into null array"}
	errReadNullObj = &interp.RuntimeError{Msg: "read field of null object"}
	errStoreObj    = &interp.RuntimeError{Msg: "store into null object"}
	errLenNull     = &interp.RuntimeError{Msg: "len of null array"}
	errLenNonArray = &interp.RuntimeError{Msg: "len of non-array"}
	errNoThis      = &interp.RuntimeError{Msg: "this outside method"}
)

// null is what a function without a return value returns. Never written.
var null interp.Value

// spaces is the operand file of one execution: one slice per operand
// space, indexed by an operand's top bits.
type spaces [1 << (32 - opdShift)][]interp.Value

// Exec runs the fragment: args are the $a0.. bindings, env the resolved
// stores, ws an optional write tracker. It returns the fragment's returned
// value, or null for fragments that fall off the end (the "any" the open
// side discards). Semantics mirror the tree-walking executor exactly; the
// differential fuzzer enforces it.
func (f *Frag) Exec(fr *Frame, args []interp.Value, env Env, ws *WriteSet) (v interp.Value, err error) {
	sp := &fr.sp
	sp[spcTemp], sp[spcConst], sp[spcArg] = fr.temps, f.Consts, args
	sp[spcAct], sp[spcGlobal], sp[spcField] = env.Act, env.Globals, env.Fields
	err = run(nil, f.Code, sp, f.fails, ws, 0, MaxFragSteps, &v)
	// The frame outlives the call; the caller's arguments must not.
	sp[spcArg] = nil
	return v, err
}

// run is the one dispatch loop. A fragment enters it with its Env-bound
// operand spaces and no machine; a Machine enters with its own operand
// file, whose temp space is the running function's register window, and
// switches windows on call and return. steps/limit carry the step
// accounting: one per statement reached, one per completed loop iteration.
// The returned value goes to *out, which starts null, so the 24-byte Value
// is copied once, into the caller's variable, instead of back through two
// levels of return.
//
// The loop carries as little as it can — code, pc, steps — because every
// variable assigned inside it costs a spill per dispatch; the call stack
// lives in the machine.
func run(m *Machine, code []Instr, sp *spaces, fails []error, ws *WriteSet, steps, limit int64, out *interp.Value) error {
	ld := func(o uint32) *interp.Value {
		return &sp[o>>opdShift][o&opdIdxMask]
	}
	// dst resolves a destination operand and records the write; call it
	// only when the store is certain to follow.
	dst := func(o uint32) *interp.Value {
		if ws != nil {
			ws.add(o>>opdShift, o&opdIdxMask)
		}
		return &sp[o>>opdShift][o&opdIdxMask]
	}

	var (
		pc  int
		err error
	)
	// Two loops, so that code is invariant in the one that dispatches: the
	// outer one runs once per stretch of one function's code, between
	// calls and returns.
	next := code
stretch:
	for {
		code := next
		for pc < len(code) {
			in := &code[pc]
			switch in.Op {
			case OpStep:
				steps += int64(in.Dst)
				if steps > limit {
					if m == nil {
						return errStepLimit
					}
					return m.abortAtLimit(int(in.A), steps)
				}
			case OpMov:
				*dst(in.Dst) = *ld(in.A)
			case OpNeg:
				x := ld(in.A)
				if x.Kind == interp.KindFloat {
					*dst(in.Dst) = interp.FloatV(-x.F())
				} else {
					*dst(in.Dst) = interp.IntV(-x.I)
				}
			case OpNot:
				*dst(in.Dst) = interp.BoolV(!ld(in.A).B())
			case OpToBool:
				*dst(in.Dst) = interp.BoolV(ld(in.A).B())
			case OpConvF:
				x := ld(in.A)
				if x.Kind == interp.KindInt {
					*dst(in.Dst) = interp.FloatV(float64(x.I))
				} else {
					*dst(in.Dst) = *x
				}
			case OpConvI:
				x := ld(in.A)
				if x.Kind == interp.KindFloat {
					*dst(in.Dst) = interp.IntV(int64(x.F()))
				} else {
					*dst(in.Dst) = *x
				}
			case OpAdd:
				a, b := ld(in.A), ld(in.B)
				switch a.Kind {
				case interp.KindInt:
					*dst(in.Dst) = interp.IntV(a.I + b.I)
				case interp.KindFloat:
					*dst(in.Dst) = interp.FloatV(a.F() + b.F())
				case interp.KindString:
					*dst(in.Dst) = interp.StrV(a.S() + b.S())
				default:
					if _, err = interp.EvalBinOp(ir.BinAdd, *a, *b); err != nil {
						goto fail
					}
				}
			case OpSub:
				a, b := ld(in.A), ld(in.B)
				if a.Kind == interp.KindFloat {
					*dst(in.Dst) = interp.FloatV(a.F() - b.F())
				} else {
					*dst(in.Dst) = interp.IntV(a.I - b.I)
				}
			case OpMul:
				a, b := ld(in.A), ld(in.B)
				if a.Kind == interp.KindFloat {
					*dst(in.Dst) = interp.FloatV(a.F() * b.F())
				} else {
					*dst(in.Dst) = interp.IntV(a.I * b.I)
				}
			case OpDiv:
				a, b := ld(in.A), ld(in.B)
				if a.Kind == interp.KindFloat {
					*dst(in.Dst) = interp.FloatV(a.F() / b.F())
				} else if b.I == 0 {
					err = errDivZero
					goto fail
				} else {
					*dst(in.Dst) = interp.IntV(a.I / b.I)
				}
			case OpMod:
				a, b := ld(in.A), ld(in.B)
				if b.I == 0 {
					err = errDivZero
					goto fail
				}
				*dst(in.Dst) = interp.IntV(a.I % b.I)
			case OpEq:
				*dst(in.Dst) = interp.BoolV(ld(in.A).Equal(*ld(in.B)))
			case OpNeq:
				*dst(in.Dst) = interp.BoolV(!ld(in.A).Equal(*ld(in.B)))
			case OpLt, OpLeq, OpGt, OpGeq:
				// Both comparison families follow ir.BinLt..BinGeq's order.
				var ok bool
				if ok, err = interp.Compare(ir.BinLt+ir.BinOp(in.Op-OpLt), ld(in.A), ld(in.B)); err != nil {
					goto fail
				}
				*dst(in.Dst) = interp.BoolV(ok)
			case OpJumpNEq:
				if !ld(in.A).Equal(*ld(in.B)) {
					pc += int(int32(in.Dst))
					continue
				}
			case OpJumpNNeq:
				if ld(in.A).Equal(*ld(in.B)) {
					pc += int(int32(in.Dst))
					continue
				}
			case OpJumpNLt, OpJumpNLeq, OpJumpNGt, OpJumpNGeq:
				var ok bool
				if ok, err = interp.Compare(ir.BinLt+ir.BinOp(in.Op-OpJumpNLt), ld(in.A), ld(in.B)); err != nil {
					goto fail
				}
				if !ok {
					pc += int(int32(in.Dst))
					continue
				}
			case OpJump:
				pc += int(int32(in.Dst))
				continue
			case OpJumpF, OpJumpRawF:
				if !ld(in.A).B() {
					pc += int(int32(in.Dst))
					continue
				}
			case OpJumpRawT:
				if ld(in.A).B() {
					pc += int(int32(in.Dst))
					continue
				}
			case OpRet, OpRetNil:
				v := &null
				if in.Op == OpRet {
					v = ld(in.A)
				}
				if m == nil {
					*out = *v
					return nil
				}
				if next, pc = m.ret(v); next == nil {
					m.steps = steps
					*out = *v
					return nil
				}
				continue stretch
			case OpFail:
				err = fails[in.Dst]
				goto fail

			case OpIndex:
				arr, i := ld(in.A).Arr(), ld(in.B).I
				if arr == nil {
					err = errReadNullArr
					goto fail
				}
				if i < 0 || i >= int64(len(arr.Elems)) {
					err = indexErr(i, len(arr.Elems))
					goto fail
				}
				*dst(in.Dst) = arr.Elems[i]
			case OpSetIndex:
				arr, i := ld(in.A).Arr(), ld(in.B).I
				if arr == nil {
					err = errStoreNull
					goto fail
				}
				if i < 0 || i >= int64(len(arr.Elems)) {
					err = indexErr(i, len(arr.Elems))
					goto fail
				}
				arr.Elems[i] = *ld(in.Dst)
			case OpGetField:
				obj := ld(in.A).Obj()
				if obj == nil {
					err = errReadNullObj
					goto fail
				}
				*dst(in.Dst) = obj.Fields[m.names[in.B]]
			case OpSetField:
				obj := ld(in.A).Obj()
				if obj == nil {
					err = errStoreObj
					goto fail
				}
				obj.Fields[m.names[in.B]] = *ld(in.Dst)
			case OpNewObj:
				*dst(in.Dst) = m.newObject(&m.classes[in.A])
			case OpNewArr:
				var v interp.Value
				if v, err = newArray(ld(in.A).I, ld(in.B)); err != nil {
					goto fail
				}
				*dst(in.Dst) = v
			case OpLen:
				x := ld(in.A)
				switch {
				case x.Kind == interp.KindString:
					*dst(in.Dst) = interp.IntV(int64(len(x.S())))
				case x.Kind != interp.KindArray:
					err = errLenNonArray
					goto fail
				case x.Arr() == nil:
					err = errLenNull
					goto fail
				default:
					*dst(in.Dst) = interp.IntV(int64(len(x.Arr().Elems)))
				}
			case OpThis:
				x := ld(in.A)
				if x.Obj() == nil {
					err = errNoThis
					goto fail
				}
				*dst(in.Dst) = *x
			case OpStr:
				*dst(in.Dst) = interp.StrV(ld(in.A).String())
			case OpPrint:
				if err = m.print(sp[spcTemp][in.A : in.A+in.B]); err != nil {
					goto fail
				}
			case OpCall:
				if next, err = m.call(in, pc); err != nil {
					goto fail
				}
				pc = 0
				continue stretch
			case OpHCall:
				var v interp.Value
				if v, err = m.hcall(&m.hcalls[in.A], ld(in.B)); err != nil {
					goto fail
				}
				*dst(in.Dst) = v
			}
			pc++
		}
		// Fell off the end: "any", the open side discards this value.
		// (Machine functions always end in OpRetNil and leave through the
		// return case.)
		return nil
	}

fail:
	if m == nil {
		return err
	}
	return m.abort(err, pc, steps)
}
