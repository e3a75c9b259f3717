package interp

import (
	"fmt"
	"io"

	"slicehide/internal/lang/token"
)

// RuntimeError is an error raised during execution, with the source position
// of the failing statement when available.
type RuntimeError struct {
	Pos token.Pos
	Msg string
}

func (e *RuntimeError) Error() string {
	if e.Pos.Valid() {
		return fmt.Sprintf("runtime error at %s: %s", e.Pos, e.Msg)
	}
	return "runtime error: " + e.Msg
}

// HiddenSession is implemented by the split runtime (package hrt); the
// machine running an open component calls it whenever an open component enters, exits, or invokes
// the hidden part of a split function.
type HiddenSession interface {
	// Enter opens a hidden activation for the split function fn and
	// returns its instance id. obj is the receiver's instance id for
	// methods of classes with hidden fields (0 otherwise).
	Enter(fn string, obj int64) (int64, error)
	// Exit closes the hidden activation.
	Exit(fn string, inst int64) error
	// Call executes hidden fragment frag of fn under instance inst.
	Call(fn string, inst int64, frag int, args []Value) (Value, error)
}

// AsyncHiddenSession is the pipelined variant of HiddenSession: reply-free
// operations are sent one-way into an ordered in-flight window instead of
// blocking for a round trip, and Barrier flushes the window. An
// implementation must preserve program order — a reply-bearing Call
// observes the effects of every earlier one-way operation — and must
// surface a one-way operation's error no later than the next Barrier or
// reply-bearing Call.
//
// The machine uses the async contract automatically when
// Options.Hidden implements it: Enter/Exit/non-leaking fragment calls go
// one-way, and a Barrier runs before every print statement and at the end
// of Run, so program output stays byte-identical to the synchronous
// execution (including which outputs an error suppresses).
type AsyncHiddenSession interface {
	HiddenSession
	// EnterAsync opens a hidden activation one-way, returning a
	// client-assigned instance id immediately.
	EnterAsync(fn string, obj int64) (int64, error)
	// ExitAsync closes the activation one-way.
	ExitAsync(fn string, inst int64) error
	// CallOneWay executes a reply-free hidden fragment without waiting.
	CallOneWay(fn string, inst int64, frag int, args []Value) error
	// Barrier blocks until every one-way operation has executed,
	// surfacing the first deferred error.
	Barrier() error
}

// Tracer observes the open machine's split-runtime events: split-function
// activations opening and closing, and hidden fragment calls.
// Implementations must be cheap and must never record hidden values —
// the hooks deliberately expose only structure (names, ids, fragment
// numbers), which the open machine can observe anyway. Package hrt
// bridges this to the obs structured tracer.
type Tracer interface {
	// FragEnter fires after a split function's hidden activation opens.
	FragEnter(fn string, inst int64)
	// FragExit fires when the activation closes.
	FragExit(fn string, inst int64)
	// HiddenCall fires before each hidden fragment invocation; oneWay
	// reports whether the call is dispatched reply-free.
	HiddenCall(fn string, inst int64, frag int, oneWay bool)
}

// Options configures one program execution (vm.NewMachine).
type Options struct {
	// Out receives program output (print statements). Defaults to io.Discard.
	Out io.Writer
	// MaxSteps aborts execution after this many simple statements
	// (0 = unlimited). Guards tests against accidental infinite loops.
	MaxSteps int64
	// Hidden handles H(...) calls in split open components. Programs that
	// contain HCall statements fail if Hidden is nil.
	Hidden HiddenSession
	// SplitFuncs is the set of function qualified names that have hidden
	// components; entering one opens a hidden activation.
	SplitFuncs map[string]bool
	// Trace, when set, observes split-runtime events.
	Trace Tracer
}
