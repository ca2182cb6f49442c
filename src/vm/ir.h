// MiniVM intermediate representation.
//
// The paper's pipeline runs on real x86 binaries (instrumented with Intel
// PIN, symbolically executed with angr). This repository substitutes a
// small register machine — the MiniVM — that exposes exactly the events
// OCTOPOCS consumes: byte-granular memory and file accesses, function
// calls (direct and indirect), branches, and crash traps. Both the
// "original software" S and the "propagated software" T of every corpus
// pair are MiniVM programs, and the shared vulnerable area ℓ is literally
// the same IR functions linked into both.
//
// Shape of the IR:
//   Program  = functions + read-only data segment (+ designated entry).
//   Function = basic blocks; block 0 is the function entry.
//   Block    = straight-line instructions + exactly one terminator
//              (jump / conditional branch / return).
// Registers are per-frame 64-bit slots; parameters arrive in r0..rN-1.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace octopocs::vm {

using Reg = std::uint8_t;
using FuncId = std::uint32_t;
using BlockId = std::uint32_t;

inline constexpr FuncId kInvalidFunc = 0xFFFFFFFFu;
inline constexpr std::uint8_t kMaxRegs = 64;

/// Memory layout constants. Addresses below kNullGuard trap as null
/// dereferences (models page-zero protection); the read-only data segment
/// sits at kRodataBase; heap allocations are handed out from kHeapBase
/// upward with guard gaps so off-by-one overflows land in unmapped space.
inline constexpr std::uint64_t kNullGuard = 0x1000;
inline constexpr std::uint64_t kRodataBase = 0x10000;
inline constexpr std::uint64_t kHeapBase = 0x100000;
/// Read-only mapping of the whole input file (the memory-mapped input
/// channel the paper hooks alongside file reads). kMMap returns this
/// base; loads inside [kMmapBase, kMmapBase + file size) read the PoC
/// bytes directly, writes trap.
inline constexpr std::uint64_t kMmapBase = 0x40000000;

// Opcode master list (X-macro). Every table that must stay in lockstep
// with the opcode set — the Op enum itself, the mnemonic table and the
// op_info metadata rows — is generated from (or statically checked
// against) this single list. The interpreter's ExecInstr switch has one
// case per Op and no default, and octo_vm builds with -Werror=switch, so
// adding an opcode without interpreter semantics is a compile-time error
// rather than a silent no-op.
//
// Semantics (registers are per-frame 64-bit slots):
//   Data movement: kMovImm r[a]=imm; kMov r[a]=r[b].
//   Arithmetic / bitwise (r[a] = r[b] <op> r[c], 64-bit wrap-around):
//     kAdd kSub kMul kAnd kOr kXor; kDivU/kRemU trap kDivByZero when
//     r[c]==0; kShl/kShr take the shift amount mod 64.
//   Unary: kNot r[a]=~r[b]; kAddImm r[a]=r[b]+imm (imm may encode a
//     negative two's complement).
//   Comparisons (unsigned, r[a] = (r[b] <op> r[c]) ? 1 : 0):
//     kCmpEq kCmpNe kCmpLtU kCmpLeU kCmpGtU kCmpGeU.
//   Memory (effective address = r[b] + imm; width ∈ {1,2,4,8},
//     little-endian, loads zero-extend): kLoad r[a]=mem[...];
//     kStore mem[...]=low bytes of r[a]; kAlloc r[a]=heap.alloc(r[b]
//     bytes, zero-initialized); kFree heap.free(r[a]).
//   Input file (the PoC; one implicit stream per execution with a
//     file-position indicator — the abstraction P3 keys bunches on):
//     kRead r[a]=read(dst=r[b], count=r[c]), advances position;
//     kMMap r[a]=base of the read-only whole-file mapping;
//     kSeek position=r[b]; kTell r[a]=position; kFileSize r[a]=input
//     size in bytes.
//   Calls: kCall names the callee in imm (a FuncId); kICall takes the
//     callee id from r[b]. Arguments are the caller registers in `args`,
//     copied into the callee's r0..rN-1; the return value lands in r[a].
//     kFnAddr r[a]=FuncId of a function named at build time (in imm).
//   Checks: kAssert traps kAbort when r[a]==0; kTrap is an unconditional
//     kAbort; kNop does nothing.
#define OCTOPOCS_VM_OPCODES(X) \
  X(MovImm, "movi")            \
  X(Mov, "mov")                \
  X(Add, "add")                \
  X(Sub, "sub")                \
  X(Mul, "mul")                \
  X(DivU, "divu")              \
  X(RemU, "remu")              \
  X(And, "and")                \
  X(Or, "or")                  \
  X(Xor, "xor")                \
  X(Shl, "shl")                \
  X(Shr, "shr")                \
  X(Not, "not")                \
  X(AddImm, "addi")            \
  X(CmpEq, "cmpeq")            \
  X(CmpNe, "cmpne")            \
  X(CmpLtU, "cmpltu")          \
  X(CmpLeU, "cmpleu")          \
  X(CmpGtU, "cmpgtu")          \
  X(CmpGeU, "cmpgeu")          \
  X(Load, "load")              \
  X(Store, "store")            \
  X(Alloc, "alloc")            \
  X(Free, "free")              \
  X(Read, "read")              \
  X(MMap, "mmap")              \
  X(Seek, "seek")              \
  X(Tell, "tell")              \
  X(FileSize, "fsize")         \
  X(Call, "call")              \
  X(ICall, "icall")            \
  X(FnAddr, "fnaddr")          \
  X(Assert, "assert")          \
  X(Trap, "trap")              \
  X(Nop, "nop")

enum class Op : std::uint8_t {
#define OCTOPOCS_VM_OP_ENUM(name, mnemonic) k##name,
  OCTOPOCS_VM_OPCODES(OCTOPOCS_VM_OP_ENUM)
#undef OCTOPOCS_VM_OP_ENUM
};

/// Number of opcodes. Metadata tables are sized by this and statically
/// checked against it.
inline constexpr std::size_t kOpCount = 0
#define OCTOPOCS_VM_OP_COUNT(name, mnemonic) +1
    OCTOPOCS_VM_OPCODES(OCTOPOCS_VM_OP_COUNT)
#undef OCTOPOCS_VM_OP_COUNT
    ;

/// True for the three-register ALU forms (kAdd .. kCmpGeU minus unary).
bool IsBinaryAlu(Op op);

struct Instr {
  Op op = Op::kNop;
  Reg a = 0;
  Reg b = 0;
  Reg c = 0;
  std::uint8_t width = 8;  // loads/stores only
  std::uint64_t imm = 0;
  std::vector<Reg> args;  // kCall / kICall only

  static Instr MovImm(Reg a, std::uint64_t imm) {
    return {Op::kMovImm, a, 0, 0, 8, imm, {}};
  }
  static Instr Alu(Op op, Reg a, Reg b, Reg c) { return {op, a, b, c, 8, 0, {}}; }
  static Instr Load(Reg a, Reg base, std::uint64_t off, std::uint8_t width) {
    return {Op::kLoad, a, base, 0, width, off, {}};
  }
  static Instr Store(Reg src, Reg base, std::uint64_t off, std::uint8_t width) {
    return {Op::kStore, src, base, 0, width, off, {}};
  }
};

enum class TermKind : std::uint8_t { kJump, kBranch, kReturn };

struct Terminator {
  TermKind kind = TermKind::kReturn;
  Reg cond = 0;                 // kBranch: condition register; kReturn: value
  bool returns_value = false;   // kReturn: whether `cond` holds the value
  BlockId target = 0;           // kJump target / kBranch taken
  BlockId fallthrough = 0;      // kBranch not-taken

  static Terminator Jump(BlockId t) {
    return {TermKind::kJump, 0, false, t, 0};
  }
  static Terminator Branch(Reg cond, BlockId taken, BlockId not_taken) {
    return {TermKind::kBranch, cond, false, taken, not_taken};
  }
  static Terminator Ret(std::optional<Reg> value = std::nullopt) {
    Terminator t{TermKind::kReturn, 0, false, 0, 0};
    if (value) {
      t.cond = *value;
      t.returns_value = true;
    }
    return t;
  }
};

struct Block {
  std::vector<Instr> instrs;
  Terminator term;
};

struct Function {
  std::string name;
  std::uint8_t num_params = 0;
  std::uint8_t num_regs = 16;
  std::vector<Block> blocks;  // blocks[0] is the entry block
};

/// A named slice of the read-only data segment (e.g. a hardcoded tag
/// table — the mechanism behind the paper's Type-III tiffsplit cases).
struct RodataSymbol {
  std::string name;
  std::uint64_t offset = 0;  // relative to kRodataBase
  std::uint64_t size = 0;
};

struct Program {
  std::string name;
  std::vector<Function> functions;
  FuncId entry = 0;
  std::vector<std::uint8_t> rodata;
  std::vector<RodataSymbol> rodata_symbols;

  /// Returns the id of the function called `name`, or kInvalidFunc.
  FuncId FindFunction(std::string_view fn_name) const;

  /// Absolute address of a named rodata symbol. Throws std::out_of_range
  /// if the symbol does not exist.
  std::uint64_t RodataAddress(std::string_view symbol) const;

  const Function& Fn(FuncId id) const { return functions[id]; }
};

/// Structural sanity checks: entry exists, every jump/branch target and
/// every direct-call FuncId is in range, register indices are within each
/// function's register file, widths are legal. Returns a human-readable
/// description of the first violation, or std::nullopt when well-formed.
std::optional<std::string> Validate(const Program& program);

/// Mnemonic for an opcode ("add", "load", ...). Shared by the
/// disassembler and diagnostics.
std::string_view OpName(Op op);

}  // namespace octopocs::vm
