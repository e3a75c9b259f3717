package vm

// Instr is one three-address instruction: Dst <- A op B, with Dst doubling
// as the relative jump offset for control flow and the statement count for
// OpStep. Operands address one of six value spaces through their top bits,
// so an operand fetch is two indexes — no map lookups at run time.
type Instr struct {
	Op   Opcode
	Dst  uint32
	A, B uint32
}

// Opcode identifies an instruction.
type Opcode uint32

// Opcodes. Arithmetic and comparison ops mirror oracle.EvalBinOp exactly
// (the differential tests hold them to it).
const (
	OpNop Opcode = iota
	// OpStep adds Dst to the step counter and enforces MaxFragSteps: one
	// per statement reached, one per completed loop iteration. Straight
	// runs of statements are coalesced into a single bump.
	OpStep
	OpMov    // Dst <- A
	OpNeg    // Dst <- -A (float-aware)
	OpNot    // Dst <- bool(!A.B)
	OpToBool // Dst <- bool(A.B), normalizing short-circuit results
	OpConvF  // Dst <- float(A)
	OpConvI  // Dst <- int(A)
	OpAdd    // Dst <- A + B
	OpSub    // Dst <- A - B
	OpMul    // Dst <- A * B
	OpDiv    // Dst <- A / B
	OpMod    // Dst <- A % B
	OpEq     // Dst <- A == B
	OpNeq    // Dst <- A != B
	OpLt     // Dst <- A < B
	OpLeq    // Dst <- A <= B
	OpGt     // Dst <- A > B
	OpGeq    // Dst <- A >= B
	// Control flow: Dst is a pc-relative offset from the jump itself.
	OpJump     // pc += Dst
	OpJumpF    // if !A.B(): pc += Dst
	OpJumpRawF // as OpJumpF, for && (kept apart: fragment code is hashed)
	OpJumpRawT // if A.B(): pc += Dst (OR short-circuit)
	OpRet      // return A
	OpRetNil   // return null (explicit empty return)
	OpFail     // raise fails[Dst]

	// Whole-program opcodes (Machine only; fragments never touch
	// aggregates, make calls, or perform I/O). Numbered after the fragment
	// set so fragment bytecode — and the program hash recovery checks —
	// is unchanged by their existence.
	OpIndex    // Dst <- A[B]
	OpSetIndex // A[B] <- Dst (Dst is the value operand)
	OpGetField // Dst <- A.names[B]
	OpSetField // A.names[B] <- Dst (Dst is the value operand)
	OpNewObj   // Dst <- new classes[A]
	OpNewArr   // Dst <- new [A]elem, every element B
	OpLen      // Dst <- len(A)
	OpThis     // Dst <- A, failing when A holds no receiver
	OpStr      // Dst <- string(A), print's per-argument rendering
	OpPrint    // barrier, then print registers A..A+B joined by spaces
	OpCall     // Dst <- calls[A](...), callee window at register B
	OpHCall    // Dst <- hidden call hcalls[A], shared-store object in B
	// Compare-and-branch, fusing a condition's comparison with its OpJumpF:
	// pc += Dst unless A op B. In the order of OpEq..OpGeq.
	OpJumpNEq
	OpJumpNNeq
	OpJumpNLt
	OpJumpNLeq
	OpJumpNGt
	OpJumpNGeq
	// OpLoop is a function loop's back-edge: it charges B steps, the last
	// of them the iteration of loop statement A, then jumps by Dst.
	// Fragments keep OpStep 1 and OpJump, their code being hashed.
	OpLoop
)

// Operand spaces, encoded in the top bits of an operand word.
const (
	opdShift   = 29
	opdIdxMask = 1<<opdShift - 1

	spcTemp   = 0 // frame temporaries; a Machine's whole register window
	spcConst  = 1 // fragment constant pool
	spcArg    = 2 // call arguments ($a0..)
	spcAct    = 3 // activation store slots
	spcGlobal = 4 // shared globals store slots
	spcField  = 5 // per-object field store slots
)

func opd(space uint32, idx int32) uint32 { return space<<opdShift | uint32(idx)&opdIdxMask }
