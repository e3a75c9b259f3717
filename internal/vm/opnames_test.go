package vm

// Opcode names, for reading bytecode in this package's test failures.

var opNames = [...]string{
	OpNop: "nop", OpStep: "step", OpMov: "mov", OpNeg: "neg", OpNot: "not",
	OpToBool: "tobool", OpConvF: "convf", OpConvI: "convi",
	OpAdd: "add", OpSub: "sub", OpMul: "mul", OpDiv: "div", OpMod: "mod",
	OpEq: "eq", OpNeq: "neq", OpLt: "lt", OpLeq: "leq", OpGt: "gt", OpGeq: "geq",
	OpJump: "jump", OpJumpF: "jumpf", OpJumpRawF: "jumprawf", OpJumpRawT: "jumprawt",
	OpRet: "ret", OpRetNil: "retnil", OpFail: "fail",
	OpIndex: "index", OpSetIndex: "setindex", OpGetField: "getfield", OpSetField: "setfield",
	OpNewObj: "newobj", OpNewArr: "newarr", OpLen: "len", OpThis: "this",
	OpStr: "str", OpPrint: "print", OpCall: "call", OpHCall: "hcall",
	OpJumpNEq: "jumpneq", OpJumpNNeq: "jumpnneq", OpJumpNLt: "jumpnlt",
	OpJumpNLeq: "jumpnleq", OpJumpNGt: "jumpngt", OpJumpNGeq: "jumpngeq", OpLoop: "loop",
}

func (op Opcode) String() string {
	if int(op) < len(opNames) {
		return opNames[op]
	}
	return "?"
}
