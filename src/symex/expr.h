// Symbolic expressions over PoC bytes.
//
// The symbolic executor models every register and memory byte of T as an
// expression over the symbolic input file: the paper's "input file in
// which all bytes are designated as symbols". Leaves are 64-bit
// constants and Input(o) — the o-th byte of the file, zero-extended.
// Interior nodes reuse the MiniVM opcode set so the executor's transfer
// function is one switch shared with the interpreter's semantics.
//
// Expressions are immutable and hash-consed (shared_ptr DAG with eager
// constant folding); evaluation under a concrete model must agree
// bit-for-bit with the interpreter — a property test enforces this.
//
// Hash-consing is scoped: while an InternScope is alive on the current
// thread, the Make* constructors dedupe structurally-equal nodes, so
// structural equality degrades to pointer equality and the folding
// identities in MakeBinOp (x^x, x-x, x==x, ...) fire for *any* pair of
// equal subtrees, not only literally-shared ones. The table holds strong
// references and is dropped when the scope exits; nodes outlive the
// scope through whatever ExprRefs still point at them. Scopes are
// thread-local, so concurrent executors never contend on the table.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "support/small_set.h"
#include "vm/ir.h"

namespace octopocs::symex {

struct Expr;
using ExprRef = std::shared_ptr<const Expr>;

enum class ExprKind : std::uint8_t {
  kConst,    // 64-bit literal
  kInput,    // input file byte, zero-extended to 64 bits
  kBinOp,    // vm::Op arithmetic/comparison over two subtrees
  kNot,      // bitwise complement
  kExtract,  // (e >> 8*byte) & 0xFF — byte lane extraction for stores
};

/// An expression lowered to a straight-line program (see ProgramFor):
/// step i computes from already-computed steps, so one forward pass
/// evaluates the whole DAG with each distinct node visited once.
struct ExprProgram {
  struct Step {
    ExprKind kind = ExprKind::kConst;
    vm::Op op = vm::Op::kNop;  // kBinOp
    std::uint8_t byte = 0;     // kExtract lane
    std::uint32_t a = 0;       // first operand step; kInput: input offset
    std::uint32_t b = 0;       // second operand step (kBinOp)
    std::uint64_t value = 0;   // kConst
  };
  std::vector<Step> steps;  // topological; the result is steps.back()
};

struct Expr {
  ExprKind kind = ExprKind::kConst;
  vm::Op op = vm::Op::kNop;   // kBinOp only
  std::uint64_t value = 0;    // kConst
  std::uint32_t offset = 0;   // kInput
  std::uint8_t byte = 0;      // kExtract lane
  ExprRef lhs, rhs;

  bool IsConst() const { return kind == ExprKind::kConst; }

  ~Expr() {
    delete vars_cache.load(std::memory_order_acquire);
    delete program_cache.load(std::memory_order_acquire);
  }

  /// Lazily-computed free-variable set, published once per node (see
  /// FreeVars). Atomic because nodes built outside any InternScope —
  /// the process-wide MakeConst(0) and MakeConst(1) — are shared by the
  /// pipeline threads of `corpus --jobs`; losers of the publication CAS
  /// discard their copy.
  mutable std::atomic<const SortedSmallSet<std::uint32_t>*> vars_cache{
      nullptr};
  /// Lazily-lowered program, published like vars_cache (see ProgramFor).
  mutable std::atomic<const ExprProgram*> program_cache{nullptr};
};

/// A (partial) assignment of input bytes.
using Model = std::map<std::uint32_t, std::uint8_t>;

/// RAII hash-consing scope. While alive on the current thread, Make*
/// constructors return the canonical node for each structure. One scope
/// per executor run bounds the table's lifetime to the run; nesting
/// restores the previous scope on exit.
class InternScope {
 public:
  struct Stats {
    std::uint64_t hits = 0;   // constructions answered from the table
    std::uint64_t nodes = 0;  // distinct nodes the table holds
  };

  InternScope();
  ~InternScope();
  InternScope(const InternScope&) = delete;
  InternScope& operator=(const InternScope&) = delete;

  Stats stats() const;

  struct Table;  // defined in expr.cpp; opaque to users

 private:
  std::unique_ptr<Table> table_;
  Table* prev_;
};

ExprRef MakeConst(std::uint64_t value);
ExprRef MakeInput(std::uint32_t offset);
/// Folds when both sides are constant and applies cheap identities
/// (x+0, x*1, x&x, x^x, ...). DivU/RemU by constant zero folds to 0 —
/// the executor traps that case before building the expression.
ExprRef MakeBinOp(vm::Op op, ExprRef lhs, ExprRef rhs);
ExprRef MakeNot(ExprRef operand);
ExprRef MakeExtract(ExprRef operand, std::uint8_t byte);

/// Evaluates under a *total* model: absent offsets read as 0.
std::uint64_t Eval(const ExprRef& expr, const Model& model);

/// Evaluates under a *partial* model: returns nullopt when any reached
/// Input leaf is unassigned. Used for pinned-byte concretization.
std::optional<std::uint64_t> EvalPartial(const ExprRef& expr,
                                         const Model& model);

/// Union of all Input offsets appearing in the expression.
void CollectInputs(const ExprRef& expr, SortedSmallSet<std::uint32_t>& out);

/// Free input-byte variables of `expr`, computed bottom-up once per node
/// and cached on it (Expr::vars_cache), so repeated queries over a
/// hash-consed DAG are O(1) amortized. The returned reference lives as
/// long as the node does. The solver's variable sets come from here.
const SortedSmallSet<std::uint32_t>& FreeVars(const ExprRef& expr);

/// `expr` lowered to a straight-line program, compiled on first use and
/// published on the node with the same CAS rule as FreeVars, so every
/// solver query over a hash-consed constraint reuses one program. The
/// returned reference lives as long as the node does.
const ExprProgram& ProgramFor(const ExprRef& expr);

/// Runs `program` over a dense byte array indexed by input offset
/// (`vals` must cover every offset the program reads; unassigned bytes
/// hold 0, matching Eval's absent-reads-as-zero rule). `scratch` holds
/// at least program.steps.size() words. Equals Eval under the same
/// assignment.
std::uint64_t RunProgram(const ExprProgram& program, const std::uint8_t* vals,
                         std::uint64_t* scratch);

/// Number of nodes (diagnostics / memory-cost estimation).
std::size_t ExprSize(const ExprRef& expr);

/// Debug rendering, e.g. "(in[3] + 2)".
std::string ToString(const ExprRef& expr);

/// Applies the MiniVM's concrete semantics for a binary ALU op.
/// Shared by constant folding and Eval so the two cannot diverge.
/// Division/remainder by zero yield 0 here; the executor checks the
/// divisor and traps before evaluation, so this value is never observed.
std::uint64_t ApplyBinOp(vm::Op op, std::uint64_t a, std::uint64_t b);

}  // namespace octopocs::symex
