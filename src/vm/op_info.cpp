#include "vm/op_info.h"

namespace octopocs::vm {

namespace {

constexpr OpInfo Row(bool src_a, bool src_b, bool src_c, bool src_mem,
                     TaintDest dest, SideEffect effect, ControlClass control,
                     bool is_binary_alu, bool may_trap) {
  OpInfo info;
  info.src_a = src_a;
  info.src_b = src_b;
  info.src_c = src_c;
  info.src_mem = src_mem;
  info.dest = dest;
  info.effect = effect;
  info.control = control;
  info.is_binary_alu = is_binary_alu;
  info.may_trap = may_trap;
  info.specified = true;
  return info;
}

constexpr OpInfo Alu(bool may_trap = false) {
  return Row(false, true, true, false, TaintDest::kUnionBC, SideEffect::kNone,
             ControlClass::kFallthrough, /*is_binary_alu=*/true, may_trap);
}

constexpr OpInfo Unary() {
  return Row(false, true, false, false, TaintDest::kCopyB, SideEffect::kNone,
             ControlClass::kFallthrough, false, false);
}

struct Table {
  OpInfo rows[kOpCount];

  constexpr Table() : rows{} {
    using D = TaintDest;
    using E = SideEffect;
    using C = ControlClass;
    auto set = [this](Op op, OpInfo info) {
      rows[static_cast<std::size_t>(op)] = info;
    };
    set(Op::kMovImm, Row(0, 0, 0, 0, D::kClean, E::kNone, C::kFallthrough, 0, 0));
    set(Op::kMov, Unary());
    set(Op::kAdd, Alu());
    set(Op::kSub, Alu());
    set(Op::kMul, Alu());
    set(Op::kDivU, Alu(/*may_trap=*/true));
    set(Op::kRemU, Alu(/*may_trap=*/true));
    set(Op::kAnd, Alu());
    set(Op::kOr, Alu());
    set(Op::kXor, Alu());
    set(Op::kShl, Alu());
    set(Op::kShr, Alu());
    set(Op::kNot, Unary());
    set(Op::kAddImm, Unary());
    set(Op::kCmpEq, Alu());
    set(Op::kCmpNe, Alu());
    set(Op::kCmpLtU, Alu());
    set(Op::kCmpLeU, Alu());
    set(Op::kCmpGtU, Alu());
    set(Op::kCmpGeU, Alu());
    // kLoad reads the pointer register and the addressed bytes.
    set(Op::kLoad, Row(0, 1, 0, 1, D::kFromMem, E::kMemRead, C::kFallthrough, 0, 1));
    // kStore reads the value (a) and the pointer (b).
    set(Op::kStore, Row(1, 1, 0, 0, D::kMemStore, E::kMemWrite, C::kFallthrough, 0, 1));
    // kAlloc reads the size; its result is a fresh (clean) pointer.
    set(Op::kAlloc, Row(0, 1, 0, 0, D::kClean, E::kHeap, C::kFallthrough, 0, 1));
    set(Op::kFree, Row(1, 0, 0, 0, D::kNone, E::kHeap, C::kFallthrough, 0, 1));
    // kRead reads the destination pointer (b) and the count (c); the
    // returned byte count is a length, hence a clean destination. The
    // taint of the *copied bytes* flows through OnFileRead, not here.
    set(Op::kRead, Row(0, 1, 1, 0, D::kClean, E::kFileRead, C::kFallthrough, 0, 1));
    set(Op::kMMap, Row(0, 0, 0, 0, D::kClean, E::kFileQuery, C::kFallthrough, 0, 0));
    set(Op::kSeek, Row(0, 1, 0, 0, D::kNone, E::kFilePos, C::kFallthrough, 0, 0));
    set(Op::kTell, Row(0, 0, 0, 0, D::kClean, E::kFilePos, C::kFallthrough, 0, 0));
    set(Op::kFileSize, Row(0, 0, 0, 0, D::kClean, E::kFileQuery, C::kFallthrough, 0, 0));
    // Calls: argument/return taint flows via the frame transfer.
    set(Op::kCall, Row(0, 0, 0, 0, D::kNone, E::kNone, C::kCall, 0, 1));
    set(Op::kICall, Row(0, 0, 0, 0, D::kNone, E::kNone, C::kCall, 0, 1));
    set(Op::kFnAddr, Row(0, 0, 0, 0, D::kClean, E::kNone, C::kFallthrough, 0, 0));
    set(Op::kAssert, Row(1, 0, 0, 0, D::kNone, E::kNone, C::kFallthrough, 0, 1));
    set(Op::kTrap, Row(0, 0, 0, 0, D::kNone, E::kNone, C::kTrap, 0, 1));
    set(Op::kNop, Row(0, 0, 0, 0, D::kNone, E::kNone, C::kFallthrough, 0, 0));
  }
};

constexpr Table kTable{};

// Exhaustiveness guard: every Op enumerator must have an explicit row.
// Fires at compile time when an opcode is added to OCTOPOCS_VM_OPCODES
// without a matching `set(...)` above.
constexpr bool AllRowsSpecified(const Table& table) {
  for (const OpInfo& row : table.rows) {
    if (!row.specified) return false;
  }
  return true;
}
static_assert(AllRowsSpecified(kTable),
              "every vm::Op needs an explicit OpInfo row in op_info.cpp");

}  // namespace

const OpInfo& GetOpInfo(Op op) {
  return kTable.rows[static_cast<std::size_t>(op)];
}

bool OpInfoTableComplete() { return AllRowsSpecified(kTable); }

}  // namespace octopocs::vm
