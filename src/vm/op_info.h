// Shared per-opcode metadata.
//
// Three layers classify MiniVM opcodes: the concrete interpreter
// (vm/interp.cpp), the taint engine (taint/taint_engine.cpp) and the
// symbolic executor (symex/executor.cpp, symex/expr.cpp). Before this
// table each maintained its own `switch (op)` copy of the same facts —
// which registers an op reads, what its destination means for taint,
// whether it touches memory or the input file — and the copies could
// drift silently. OpInfo centralises the classification; the dispatch
// switches keep their per-layer *semantics* but derive every shared
// *fact* from here.
//
// The taint-source roles (`src_a`/`src_b`/`src_c`/`src_mem`) deliberately
// describe data flow, not syntax: kCall/kICall read registers too, but
// their argument flow is handled by the call-frame transfer
// (OnCallEnter), so their source roles here are empty — exactly the
// contract the taint engine has always implemented.
#pragma once

#include <cstdint>

#include "vm/ir.h"

namespace octopocs::vm {

/// What an op's destination register means for taint propagation
/// (Algorithm 1's transfer function, shared with the symbolic executor's
/// clean/copy classification).
enum class TaintDest : std::uint8_t {
  kNone,      // no destination register (store/free/seek/assert/...)
  kClean,     // dest is untainted by policy: immediates, fresh pointers,
              // lengths and positions (kMovImm/kAlloc/kMMap/kTell/
              // kFileSize/kFnAddr/kRead's count)
  kCopyB,     // dest taint = taint(r[b]) — unary forms kMov/kNot/kAddImm
  kUnionBC,   // dest taint = taint(r[b]) ∪ taint(r[c]) — binary ALU
  kFromMem,   // dest taint = taint of the loaded bytes (kLoad)
  kMemStore,  // strong per-byte update of memory taint (kStore)
};

/// Memory / input-file side-effect class.
enum class SideEffect : std::uint8_t {
  kNone,
  kMemRead,    // kLoad
  kMemWrite,   // kStore
  kHeap,       // kAlloc / kFree
  kFileRead,   // kRead — consumes the input stream and writes memory
  kFilePos,    // kSeek / kTell — touches only the position indicator
  kFileQuery,  // kMMap / kFileSize — reads file geometry, no cursor move
};

/// Control class: how the op interacts with control flow. (Block
/// terminators are not Ops in MiniVM; kCall/kTrap are the op-level
/// control transfers.)
enum class ControlClass : std::uint8_t {
  kFallthrough,  // ordinary straight-line op
  kCall,         // kCall / kICall — pushes a frame
  kTrap,         // kTrap — unconditionally aborts
};

struct OpInfo {
  /// Taint-source roles: operands whose taint flows into the op's
  /// effect. (See file comment for why calls carry none.)
  bool src_a = false;
  bool src_b = false;
  bool src_c = false;
  bool src_mem = false;  // the op reads data memory at its effective address
  TaintDest dest = TaintDest::kNone;
  SideEffect effect = SideEffect::kNone;
  ControlClass control = ControlClass::kFallthrough;
  /// Three-register ALU form r[a] = r[b] <op> r[c] with the shared
  /// EvalAlu semantics.
  bool is_binary_alu = false;
  /// The op itself can raise a trap (div-by-zero, failed assert, bad
  /// memory access, heap misuse, invalid indirect call).
  bool may_trap = false;
  /// Set by the table constructor for every explicitly-classified op. A
  /// default-initialized row is *not* specified; a static_assert in
  /// op_info.cpp rejects any Op enumerator without an explicit row, so a
  /// new opcode cannot silently inherit all-false metadata.
  bool specified = false;
};

/// The metadata row for `op`. O(1); valid for every Op enumerator.
const OpInfo& GetOpInfo(Op op);

/// True iff every Op enumerator has an explicitly-specified OpInfo row.
/// Always true (the table is also checked at compile time); exposed so
/// the exhaustiveness test can assert it table-driven.
bool OpInfoTableComplete();

/// Shared concrete semantics of the binary-ALU forms. Division and
/// remainder by zero yield 0 here — the concrete interpreter traps
/// *before* evaluating, and the symbolic evaluator's total function
/// needs a defined value (the solver guards the divisor separately).
/// Inline so the interpreter's per-op cases, which pass a constant
/// `op`, fold to the single operation.
inline std::uint64_t EvalAlu(Op op, std::uint64_t a, std::uint64_t b) {
  switch (op) {
    case Op::kAdd: return a + b;
    case Op::kSub: return a - b;
    case Op::kMul: return a * b;
    case Op::kDivU: return b == 0 ? 0 : a / b;
    case Op::kRemU: return b == 0 ? 0 : a % b;
    case Op::kAnd: return a & b;
    case Op::kOr: return a | b;
    case Op::kXor: return a ^ b;
    case Op::kShl: return a << (b & 63);
    case Op::kShr: return a >> (b & 63);
    case Op::kCmpEq: return a == b ? 1 : 0;
    case Op::kCmpNe: return a != b ? 1 : 0;
    case Op::kCmpLtU: return a < b ? 1 : 0;
    case Op::kCmpLeU: return a <= b ? 1 : 0;
    case Op::kCmpGtU: return a > b ? 1 : 0;
    case Op::kCmpGeU: return a >= b ? 1 : 0;
    default: return 0;  // not a binary-ALU op
  }
}

}  // namespace octopocs::vm
