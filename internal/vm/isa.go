// Package vm implements a small register-based virtual instruction set and
// interpreter. It stands in for the native binaries that the paper profiles
// under Valgrind: programs written against this ISA emit the same primitive
// stream — memory accesses, arithmetic operations, calls/returns, branches
// and syscalls — that a dynamic binary instrumentation framework observes,
// which is all the Sigil methodology consumes.
package vm

import "fmt"

// Reg names an integer register. The machine has 32 integer registers
// (R0..R31) of 64 bits each. By convention R0 carries integer return values
// and R1..R15 carry call arguments; the machine snapshots and restores the
// full register file around calls, so every register is callee-saved except
// the return registers R0 and F0.
type Reg uint8

// Integer registers.
const (
	R0 Reg = iota
	R1
	R2
	R3
	R4
	R5
	R6
	R7
	R8
	R9
	R10
	R11
	R12
	R13
	R14
	R15
	R16
	R17
	R18
	R19
	R20
	R21
	R22
	R23
	R24
	R25
	R26
	R27
	R28
	R29
	R30
	R31
)

// NumRegs is the size of the integer register file.
const NumRegs = 32

// FReg names a floating-point register. The machine has 16 float64 registers
// (F0..F15); F0 carries floating-point return values.
type FReg uint8

// Floating-point registers.
const (
	F0 FReg = iota
	F1
	F2
	F3
	F4
	F5
	F6
	F7
	F8
	F9
	F10
	F11
	F12
	F13
	F14
	F15
)

// NumFRegs is the size of the floating-point register file.
const NumFRegs = 16

// Op is a virtual-ISA opcode.
type Op uint8

// Opcodes. Arithmetic ops name their operand class so the instrumentation
// layer can classify retired operations the way the paper's modified
// Callgrind logs integer and floating-point operations.
const (
	OpNop Op = iota

	// Integer moves and arithmetic: Rd <- Ra op Rb (or immediate forms).
	OpMovi // Rd <- Imm
	OpMov  // Rd <- Ra
	OpAdd
	OpSub
	OpMul
	OpDiv // signed; divide by zero traps
	OpRem
	OpAnd
	OpOr
	OpXor
	OpShl
	OpShr // logical shift right
	OpSar // arithmetic shift right
	OpAddi
	OpMuli
	OpAndi
	OpOri
	OpXori
	OpShli
	OpShri

	// Comparisons: Rd <- 1 if Ra cmp Rb else 0.
	OpSlt  // signed less-than
	OpSltu // unsigned less-than
	OpSeq

	// Floating point: Fd <- Fa op Fb.
	OpFMovi // Fd <- float64 immediate (bits carried in Imm)
	OpFMov
	OpFAdd
	OpFSub
	OpFMul
	OpFDiv
	OpFNeg
	OpFAbs
	OpFSqrt
	OpFMin
	OpFMax

	// Conversions between the register files.
	OpItoF // Fd <- float64(Ra)
	OpFtoI // Rd <- int64(Fa), truncating
	OpFCmp // Rd <- -1/0/1 comparing Fa, Fb

	// Memory: address is Ra+Imm; Size selects 1, 2, 4 or 8 bytes.
	// Loads zero-extend; OpLoadS sign-extends.
	OpLoad
	OpLoadS
	OpStore
	OpFLoad  // 8-byte float64 load into Fd
	OpFStore // 8-byte float64 store from Fa

	// Control flow. Branch targets are instruction indices within the
	// function, resolved by the builder/assembler.
	OpBr
	OpBeq
	OpBne
	OpBlt  // signed
	OpBge  // signed
	OpBltu // unsigned
	OpBgeu // unsigned
	OpCall // Target is a function index in the program
	OpRet
	OpHalt

	// OpAlloc bump-allocates Ra bytes from the heap; Rd <- base address.
	// Allocation is 8-byte aligned and never freed (the profiled programs
	// are short-lived, matching the paper's run-once workloads).
	OpAlloc

	// OpSys invokes a host syscall; Imm is a Sys number. Register
	// conventions are documented with each Sys constant.
	OpSys

	opCount // number of opcodes; keep last
)

// Sys identifies a host syscall. The paper notes system calls are not fully
// visible to Valgrind: Sigil records their names and input/output byte counts
// but cannot see inside them. The machine reports syscalls to observers with
// exactly that information.
type Sys uint8

const (
	// SysRead fills memory at R1 with up to R2 bytes from the program's
	// input stream; R0 <- bytes actually read (0 at end of input).
	SysRead Sys = iota
	// SysWrite consumes R2 bytes at R1 into the program's output sink;
	// R0 <- bytes written.
	SysWrite
	// SysRand writes a pseudo-random uint64 to R0 (xorshift64 seeded by
	// the machine; deterministic across runs).
	SysRand
	// SysTime writes the retired-instruction count to R0, the
	// platform-independent time proxy used throughout the paper.
	SysTime

	sysCount
)

var sysNames = [...]string{
	SysRead:  "read",
	SysWrite: "write",
	SysRand:  "rand",
	SysTime:  "time",
}

// Name returns the syscall's name as reported to observers.
func (s Sys) Name() string {
	if int(s) < len(sysNames) {
		return sysNames[s]
	}
	return fmt.Sprintf("sys%d", uint8(s))
}

// OpClass classifies a retired operation for cost accounting, mirroring the
// paper's modification of Callgrind to log floating-point and integer
// operations separately.
type OpClass uint8

const (
	ClassNone   OpClass = iota
	ClassIntALU         // add/sub/logic/shift/compare/move
	ClassIntMul
	ClassIntDiv
	ClassFPAdd // fp add/sub/neg/abs/min/max/compare/move
	ClassFPMul
	ClassFPDiv // fp divide and sqrt
	ClassConv  // int<->fp conversion

	numOpClasses = 8 // a power of two, so a class can index by mask
)

// The mask in the dispatch loop assumes every class fits numOpClasses.
var _ [numOpClasses - 1 - ClassConv]struct{}

var opClassNames = [...]string{
	ClassNone:   "none",
	ClassIntALU: "ialu",
	ClassIntMul: "imul",
	ClassIntDiv: "idiv",
	ClassFPAdd:  "fpadd",
	ClassFPMul:  "fpmul",
	ClassFPDiv:  "fpdiv",
	ClassConv:   "conv",
}

// String returns a short mnemonic for the class.
func (c OpClass) String() string {
	if int(c) < len(opClassNames) {
		return opClassNames[c]
	}
	return fmt.Sprintf("class%d", uint8(c))
}

// IsFP reports whether the class is a floating-point operation.
func (c OpClass) IsFP() bool {
	return c == ClassFPAdd || c == ClassFPMul || c == ClassFPDiv
}

// IsInt reports whether the class is an integer operation.
func (c OpClass) IsInt() bool {
	return c == ClassIntALU || c == ClassIntMul || c == ClassIntDiv
}

// classOf maps opcodes with an arithmetic cost to their class; opcodes that
// are pure control or memory map to ClassNone. It spans the whole Op range,
// so the dispatch loop indexes it without a bounds check.
var classOf = [1 << 8]OpClass{
	OpMovi: ClassIntALU, OpMov: ClassIntALU,
	OpAdd: ClassIntALU, OpSub: ClassIntALU,
	OpMul: ClassIntMul, OpDiv: ClassIntDiv, OpRem: ClassIntDiv,
	OpAnd: ClassIntALU, OpOr: ClassIntALU, OpXor: ClassIntALU,
	OpShl: ClassIntALU, OpShr: ClassIntALU, OpSar: ClassIntALU,
	OpAddi: ClassIntALU, OpMuli: ClassIntMul,
	OpAndi: ClassIntALU, OpOri: ClassIntALU, OpXori: ClassIntALU,
	OpShli: ClassIntALU, OpShri: ClassIntALU,
	OpSlt: ClassIntALU, OpSltu: ClassIntALU, OpSeq: ClassIntALU,
	OpFMovi: ClassFPAdd, OpFMov: ClassFPAdd,
	OpFAdd: ClassFPAdd, OpFSub: ClassFPAdd,
	OpFMul: ClassFPMul, OpFDiv: ClassFPDiv,
	OpFNeg: ClassFPAdd, OpFAbs: ClassFPAdd, OpFSqrt: ClassFPDiv,
	OpFMin: ClassFPAdd, OpFMax: ClassFPAdd,
	OpItoF: ClassConv, OpFtoI: ClassConv, OpFCmp: ClassFPAdd,
}

var opNames = [opCount]string{
	OpNop: "nop", OpMovi: "movi", OpMov: "mov",
	OpAdd: "add", OpSub: "sub", OpMul: "mul", OpDiv: "div", OpRem: "rem",
	OpAnd: "and", OpOr: "or", OpXor: "xor",
	OpShl: "shl", OpShr: "shr", OpSar: "sar",
	OpAddi: "addi", OpMuli: "muli", OpAndi: "andi", OpOri: "ori",
	OpXori: "xori", OpShli: "shli", OpShri: "shri",
	OpSlt: "slt", OpSltu: "sltu", OpSeq: "seq",
	OpFMovi: "fmovi", OpFMov: "fmov",
	OpFAdd: "fadd", OpFSub: "fsub", OpFMul: "fmul", OpFDiv: "fdiv",
	OpFNeg: "fneg", OpFAbs: "fabs", OpFSqrt: "fsqrt",
	OpFMin: "fmin", OpFMax: "fmax",
	OpItoF: "itof", OpFtoI: "ftoi", OpFCmp: "fcmp",
	OpLoad: "load", OpLoadS: "loads", OpStore: "store",
	OpFLoad: "fload", OpFStore: "fstore",
	OpBr: "br", OpBeq: "beq", OpBne: "bne",
	OpBlt: "blt", OpBge: "bge", OpBltu: "bltu", OpBgeu: "bgeu",
	OpCall: "call", OpRet: "ret", OpHalt: "halt",
	OpAlloc: "alloc", OpSys: "sys",
}

// String returns the opcode mnemonic.
func (o Op) String() string {
	if int(o) < len(opNames) && opNames[o] != "" {
		return opNames[o]
	}
	return fmt.Sprintf("op%d", uint8(o))
}

// Instr is one decoded instruction. The same compact struct serves every
// opcode; unused fields are zero.
type Instr struct {
	Op     Op
	Rd     Reg   // destination (integer) or Fd when the op is FP
	Ra     Reg   // first source (integer) or Fa
	Rb     Reg   // second source (integer) or Fb
	Size   uint8 // load/store access size in bytes: 1, 2, 4, 8
	Imm    int64 // immediate / address offset / float64 bits / Sys number
	Target int32 // branch target (instruction index) or callee function index
}

// Class returns the instruction's arithmetic operation class (ClassNone for
// control and memory instructions).
func (i Instr) Class() OpClass { return classOf[i.Op] }

// IsBranch reports whether the instruction is a conditional branch.
func (i Instr) IsBranch() bool {
	switch i.Op {
	case OpBeq, OpBne, OpBlt, OpBge, OpBltu, OpBgeu:
		return true
	}
	return false
}
