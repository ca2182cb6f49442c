#include "symex/expr.h"

#include <algorithm>
#include <functional>
#include <map>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "vm/op_info.h"

namespace octopocs::symex {

// ---------------------------------------------------------------------------
// Hash-consing. Children are interned before their parents, so a node's
// identity is its kind plus scalar payload plus the *addresses* of its
// (already canonical) children — structural equality never needs a deep
// walk.
// ---------------------------------------------------------------------------

namespace {

struct InternKey {
  ExprKind kind;
  vm::Op op;
  std::uint64_t value;
  std::uint32_t offset;
  std::uint8_t byte;
  const Expr* lhs;
  const Expr* rhs;

  bool operator==(const InternKey&) const = default;
};

struct InternKeyHash {
  std::size_t operator()(const InternKey& k) const {
    std::uint64_t h = 0xcbf29ce484222325ull;  // FNV-1a
    const auto mix = [&h](std::uint64_t v) {
      h ^= v;
      h *= 0x100000001b3ull;
    };
    mix(static_cast<std::uint64_t>(k.kind));
    mix(static_cast<std::uint64_t>(k.op));
    mix(k.value);
    mix(k.offset);
    mix(k.byte);
    mix(reinterpret_cast<std::uintptr_t>(k.lhs));
    mix(reinterpret_cast<std::uintptr_t>(k.rhs));
    return static_cast<std::size_t>(h);
  }
};

InternKey KeyOf(const Expr& e) {
  return InternKey{e.kind,  e.op,        e.value,      e.offset,
                   e.byte,  e.lhs.get(), e.rhs.get()};
}

}  // namespace

struct InternScope::Table {
  std::unordered_map<InternKey, ExprRef, InternKeyHash> nodes;
  std::uint64_t hits = 0;
};

namespace {

thread_local InternScope::Table* g_intern = nullptr;

/// Canonicalizes a freshly-built node: returns the existing structural
/// twin when one is interned, otherwise registers and returns `e`.
/// Without a scope this is the identity function, preserving the
/// pre-interning allocation behavior for ad-hoc expression users.
ExprRef Intern(ExprRef e) {
  if (g_intern == nullptr) return e;
  auto [it, inserted] = g_intern->nodes.try_emplace(KeyOf(*e), e);
  if (!inserted) ++g_intern->hits;
  return it->second;
}

}  // namespace

InternScope::InternScope() : table_(new Table), prev_(g_intern) {
  g_intern = table_.get();
}

InternScope::~InternScope() { g_intern = prev_; }

InternScope::Stats InternScope::stats() const {
  return Stats{table_->hits, table_->nodes.size()};
}

std::uint64_t ApplyBinOp(vm::Op op, std::uint64_t a, std::uint64_t b) {
  // Shared with the concrete interpreter via vm/op_info.h — one place
  // defines what each binary ALU form computes (div/rem by zero yield 0
  // here; the interpreter traps before evaluating).
  return vm::EvalAlu(op, a, b);
}

namespace {

ExprRef MakeTinyConst(std::uint64_t value) {
  auto e = std::make_shared<Expr>();
  e->kind = ExprKind::kConst;
  e->value = value;
  return e;
}

}  // namespace

ExprRef MakeConst(std::uint64_t value) {
  // Cache the tiny constants that dominate expression trees. These are
  // process-wide statics, so they are pointer-canonical across every
  // scope and thread without touching any intern table.
  static const ExprRef kSmall[] = {MakeTinyConst(0), MakeTinyConst(1)};
  if (value < 2) return kSmall[value];
  auto e = std::make_shared<Expr>();
  e->kind = ExprKind::kConst;
  e->value = value;
  return Intern(std::move(e));
}

ExprRef MakeInput(std::uint32_t offset) {
  auto e = std::make_shared<Expr>();
  e->kind = ExprKind::kInput;
  e->offset = offset;
  return Intern(std::move(e));
}

ExprRef MakeBinOp(vm::Op op, ExprRef lhs, ExprRef rhs) {
  using vm::Op;
  if (lhs->IsConst() && rhs->IsConst()) {
    return MakeConst(ApplyBinOp(op, lhs->value, rhs->value));
  }
  // Cheap identities. These matter: guiding-input paths build long
  // chains of offset arithmetic that would otherwise bloat the DAG.
  if (rhs->IsConst()) {
    const std::uint64_t c = rhs->value;
    if (c == 0 && (op == Op::kAdd || op == Op::kSub || op == Op::kOr ||
                   op == Op::kXor || op == Op::kShl || op == Op::kShr)) {
      return lhs;
    }
    if (c == 0 && (op == Op::kMul || op == Op::kAnd)) return MakeConst(0);
    if (c == 1 && (op == Op::kMul || op == Op::kDivU)) return lhs;
  }
  if (lhs->IsConst()) {
    const std::uint64_t c = lhs->value;
    if (c == 0 && (op == Op::kAdd || op == Op::kOr || op == Op::kXor)) {
      return rhs;
    }
    if (c == 0 && (op == Op::kMul || op == Op::kAnd)) return MakeConst(0);
  }
  if (lhs.get() == rhs.get()) {
    if (op == Op::kXor || op == Op::kSub) return MakeConst(0);
    if (op == Op::kAnd || op == Op::kOr) return lhs;
    if (op == Op::kCmpEq || op == Op::kCmpLeU || op == Op::kCmpGeU) {
      return MakeConst(1);
    }
    if (op == Op::kCmpNe || op == Op::kCmpLtU || op == Op::kCmpGtU) {
      return MakeConst(0);
    }
  }
  auto e = std::make_shared<Expr>();
  e->kind = ExprKind::kBinOp;
  e->op = op;
  e->lhs = std::move(lhs);
  e->rhs = std::move(rhs);
  return Intern(std::move(e));
}

ExprRef MakeNot(ExprRef operand) {
  if (operand->IsConst()) return MakeConst(~operand->value);
  auto e = std::make_shared<Expr>();
  e->kind = ExprKind::kNot;
  e->lhs = std::move(operand);
  return Intern(std::move(e));
}

ExprRef MakeExtract(ExprRef operand, std::uint8_t byte) {
  if (operand->IsConst()) {
    return MakeConst((operand->value >> (8 * byte)) & 0xFF);
  }
  // Extracting lane 0 of a single input byte is the byte itself.
  if (operand->kind == ExprKind::kInput) {
    if (byte == 0) return operand;
    return MakeConst(0);  // input bytes are zero-extended
  }
  if (operand->kind == ExprKind::kExtract) {
    // Extract(Extract(e, i), 0) == Extract(e, i); other lanes are 0.
    return byte == 0 ? operand : MakeConst(0);
  }
  auto e = std::make_shared<Expr>();
  e->kind = ExprKind::kExtract;
  e->byte = byte;
  e->lhs = std::move(operand);
  return Intern(std::move(e));
}

std::uint64_t Eval(const ExprRef& expr, const Model& model) {
  switch (expr->kind) {
    case ExprKind::kConst:
      return expr->value;
    case ExprKind::kInput: {
      auto it = model.find(expr->offset);
      return it == model.end() ? 0 : it->second;
    }
    case ExprKind::kBinOp:
      return ApplyBinOp(expr->op, Eval(expr->lhs, model),
                        Eval(expr->rhs, model));
    case ExprKind::kNot:
      return ~Eval(expr->lhs, model);
    case ExprKind::kExtract:
      return (Eval(expr->lhs, model) >> (8 * expr->byte)) & 0xFF;
  }
  return 0;
}

std::optional<std::uint64_t> EvalPartial(const ExprRef& expr,
                                         const Model& model) {
  switch (expr->kind) {
    case ExprKind::kConst:
      return expr->value;
    case ExprKind::kInput: {
      auto it = model.find(expr->offset);
      if (it == model.end()) return std::nullopt;
      return it->second;
    }
    case ExprKind::kBinOp: {
      const auto a = EvalPartial(expr->lhs, model);
      if (!a) return std::nullopt;
      const auto b = EvalPartial(expr->rhs, model);
      if (!b) return std::nullopt;
      return ApplyBinOp(expr->op, *a, *b);
    }
    case ExprKind::kNot: {
      const auto a = EvalPartial(expr->lhs, model);
      if (!a) return std::nullopt;
      return ~*a;
    }
    case ExprKind::kExtract: {
      const auto a = EvalPartial(expr->lhs, model);
      if (!a) return std::nullopt;
      return (*a >> (8 * expr->byte)) & 0xFF;
    }
  }
  return std::nullopt;
}

void CollectInputs(const ExprRef& expr, SortedSmallSet<std::uint32_t>& out) {
  // Iterative with a visited set: interning makes equal subtrees share
  // one node, and skipping already-seen pointers keeps collection linear
  // in *distinct* nodes where the naive recursion is linear in paths
  // (exponential on heavily shared DAGs).
  std::vector<const Expr*> stack{expr.get()};
  std::unordered_set<const Expr*> seen;
  while (!stack.empty()) {
    const Expr* e = stack.back();
    stack.pop_back();
    if (!seen.insert(e).second) continue;
    switch (e->kind) {
      case ExprKind::kConst:
        break;
      case ExprKind::kInput:
        out.Insert(e->offset);
        break;
      case ExprKind::kBinOp:
        stack.push_back(e->lhs.get());
        stack.push_back(e->rhs.get());
        break;
      case ExprKind::kNot:
      case ExprKind::kExtract:
        stack.push_back(e->lhs.get());
        break;
    }
  }
}

const SortedSmallSet<std::uint32_t>& FreeVars(const ExprRef& expr) {
  using VarSet = SortedSmallSet<std::uint32_t>;
  const Expr* root = expr.get();
  if (const VarSet* cached = root->vars_cache.load(std::memory_order_acquire)) {
    return *cached;
  }
  // Bottom-up over the uncached region: a node stays on the stack until
  // both children carry a published set, then unions them. Each node's
  // set is computed at most once per thread; the CAS arbitrates races
  // between threads sharing a node (the process-wide MakeConst(0) and
  // MakeConst(1) under `corpus --jobs`) and losers discard their copy.
  std::vector<const Expr*> stack{root};
  while (!stack.empty()) {
    const Expr* e = stack.back();
    if (e->vars_cache.load(std::memory_order_acquire) != nullptr) {
      stack.pop_back();
      continue;
    }
    const Expr* l = e->lhs.get();
    const Expr* r = e->rhs.get();
    bool pending = false;
    if (l != nullptr && l->vars_cache.load(std::memory_order_acquire) == nullptr) {
      stack.push_back(l);
      pending = true;
    }
    if (r != nullptr && r->vars_cache.load(std::memory_order_acquire) == nullptr) {
      stack.push_back(r);
      pending = true;
    }
    if (pending) continue;
    auto* set = new VarSet();
    if (e->kind == ExprKind::kInput) set->Insert(e->offset);
    if (l != nullptr) set->UnionWith(*l->vars_cache.load(std::memory_order_acquire));
    if (r != nullptr) set->UnionWith(*r->vars_cache.load(std::memory_order_acquire));
    const VarSet* expected = nullptr;
    if (!e->vars_cache.compare_exchange_strong(expected, set,
                                               std::memory_order_acq_rel,
                                               std::memory_order_acquire)) {
      delete set;
    }
    stack.pop_back();
  }
  return *root->vars_cache.load(std::memory_order_acquire);
}

namespace {

std::uint32_t Lower(const Expr* e,
                    std::unordered_map<const Expr*, std::uint32_t>* memo,
                    ExprProgram* out) {
  if (const auto it = memo->find(e); it != memo->end()) return it->second;
  ExprProgram::Step step{e->kind, e->op, e->byte, 0, 0, e->value};
  switch (e->kind) {
    case ExprKind::kConst:
      break;
    case ExprKind::kInput:
      step.a = e->offset;
      break;
    case ExprKind::kBinOp:
      step.a = Lower(e->lhs.get(), memo, out);
      step.b = Lower(e->rhs.get(), memo, out);
      break;
    case ExprKind::kNot:
    case ExprKind::kExtract:
      step.a = Lower(e->lhs.get(), memo, out);
      break;
  }
  const auto idx = static_cast<std::uint32_t>(out->steps.size());
  out->steps.push_back(step);
  memo->emplace(e, idx);
  return idx;
}

}  // namespace

const ExprProgram& ProgramFor(const ExprRef& expr) {
  const Expr* e = expr.get();
  if (const ExprProgram* cached =
          e->program_cache.load(std::memory_order_acquire)) {
    return *cached;
  }
  // Same publication rule as FreeVars: racing threads may each lower the
  // node, the CAS keeps the first program and losers discard theirs.
  auto* program = new ExprProgram();
  std::unordered_map<const Expr*, std::uint32_t> memo;
  Lower(e, &memo, program);
  program->steps.shrink_to_fit();
  const ExprProgram* expected = nullptr;
  if (!e->program_cache.compare_exchange_strong(expected, program,
                                                std::memory_order_acq_rel,
                                                std::memory_order_acquire)) {
    delete program;
    return *expected;
  }
  return *program;
}

namespace {

/// Tries to read `expr` as a little-endian byte concatenation —
/// or(or(b0, shl(b1,8)), shl(b2,16))... Fills lane → input offset.
bool AsByteConcat(const ExprRef& expr, unsigned shift,
                  std::map<unsigned, std::uint32_t>* lanes) {
  switch (expr->kind) {
    case ExprKind::kInput: {
      if (shift % 8 != 0) return false;
      const unsigned lane = shift / 8;
      if (lanes->count(lane) != 0) return false;
      (*lanes)[lane] = expr->offset;
      return true;
    }
    case ExprKind::kBinOp:
      if (expr->op == vm::Op::kOr) {
        return AsByteConcat(expr->lhs, shift, lanes) &&
               AsByteConcat(expr->rhs, shift, lanes);
      }
      if (expr->op == vm::Op::kShl && expr->rhs->IsConst()) {
        return AsByteConcat(expr->lhs,
                            shift + static_cast<unsigned>(expr->rhs->value),
                            lanes);
      }
      return false;
    default:
      return false;
  }
}

/// ConcatPins' derivation, uncached; `concat == konst` is the equality.
std::vector<ExprRef> DerivePins(const ExprRef& concat,
                                const ExprRef& konst) {
  std::vector<ExprRef> pins;
  std::map<unsigned, std::uint32_t> lanes;
  if (!AsByteConcat(concat, 0, &lanes) || lanes.empty()) return pins;
  std::uint64_t covered = 0;
  SortedSmallSet<std::uint32_t> seen;
  for (const auto& [lane, offset] : lanes) {
    if (lane >= 8 || seen.Contains(offset)) return pins;
    seen.Insert(offset);
    covered |= 0xFFull << (8 * lane);
  }
  if ((konst->value & ~covered) != 0) {
    pins.push_back(MakeConst(0));  // impossible: bits outside any lane
    return pins;
  }
  for (const auto& [lane, offset] : lanes) {
    pins.push_back(MakeBinOp(vm::Op::kCmpEq, MakeInput(offset),
                             MakeConst((konst->value >> (8 * lane)) & 0xFF)));
  }
  return pins;
}

}  // namespace

const std::vector<ExprRef>& ConcatPins(const ExprRef& expr) {
  static const std::vector<ExprRef> kNone;
  const Expr* e = expr.get();
  if (e->kind != ExprKind::kBinOp || e->op != vm::Op::kCmpEq ||
      (!e->lhs->IsConst() && !e->rhs->IsConst())) {
    return kNone;  // not an equality against a constant: nothing to cache
  }
  if (const std::vector<ExprRef>* cached =
          e->pins_cache.load(std::memory_order_acquire)) {
    return *cached;
  }
  const bool const_rhs = e->rhs->IsConst();
  auto* pins = new std::vector<ExprRef>(
      DerivePins(const_rhs ? e->lhs : e->rhs, const_rhs ? e->rhs : e->lhs));
  for (ExprRef& pin : *pins) {
    if (pin.get() == e) pin = nullptr;  // self: see ConcatPins
  }
  // Same publication rule as FreeVars and ProgramFor.
  const std::vector<ExprRef>* expected = nullptr;
  if (!e->pins_cache.compare_exchange_strong(expected, pins,
                                             std::memory_order_acq_rel,
                                             std::memory_order_acquire)) {
    delete pins;
    return *expected;
  }
  return *pins;
}

std::uint64_t RunProgram(const ExprProgram& program, const std::uint8_t* vals,
                         std::uint64_t* scratch) {
  const ExprProgram::Step* steps = program.steps.data();
  const std::size_t n = program.steps.size();
  for (std::size_t i = 0; i < n; ++i) {
    const ExprProgram::Step& s = steps[i];
    switch (s.kind) {
      case ExprKind::kConst:
        scratch[i] = s.value;
        break;
      case ExprKind::kInput:
        scratch[i] = vals[s.a];
        break;
      case ExprKind::kBinOp:
        scratch[i] = ApplyBinOp(s.op, scratch[s.a], scratch[s.b]);
        break;
      case ExprKind::kNot:
        scratch[i] = ~scratch[s.a];
        break;
      case ExprKind::kExtract:
        scratch[i] = (scratch[s.a] >> (8 * s.byte)) & 0xFF;
        break;
    }
  }
  return scratch[n - 1];
}

namespace {

/// A step's value across the lanes: its own lane array, or one scalar
/// every lane shares.
struct Lanes {
  const std::uint64_t* v;
  std::uint64_t operator[](std::size_t i) const { return v[i]; }
};
struct Splat {
  std::uint64_t v;
  std::uint64_t operator[](std::size_t) const { return v; }
};

template <typename A, typename B, typename F>
void MapLanes(A a, B b, std::uint64_t* out, std::size_t n, F f) {
  for (std::size_t i = 0; i < n; ++i) out[i] = f(a[i], b[i]);
}

/// vm::EvalAlu over `n` lanes, with one dispatch on `op`.
template <typename A, typename B>
void BinOpLanes(vm::Op op, A a, B b, std::uint64_t* out, std::size_t n) {
  using vm::Op;
  using U = std::uint64_t;
  switch (op) {
    case Op::kAdd: MapLanes(a, b, out, n, [](U x, U y) { return x + y; }); return;
    case Op::kSub: MapLanes(a, b, out, n, [](U x, U y) { return x - y; }); return;
    case Op::kMul: MapLanes(a, b, out, n, [](U x, U y) { return x * y; }); return;
    case Op::kDivU:
      MapLanes(a, b, out, n, [](U x, U y) { return y == 0 ? 0 : x / y; });
      return;
    case Op::kRemU:
      MapLanes(a, b, out, n, [](U x, U y) { return y == 0 ? 0 : x % y; });
      return;
    case Op::kAnd: MapLanes(a, b, out, n, [](U x, U y) { return x & y; }); return;
    case Op::kOr: MapLanes(a, b, out, n, [](U x, U y) { return x | y; }); return;
    case Op::kXor: MapLanes(a, b, out, n, [](U x, U y) { return x ^ y; }); return;
    case Op::kShl:
      MapLanes(a, b, out, n, [](U x, U y) { return x << (y & 63); });
      return;
    case Op::kShr:
      MapLanes(a, b, out, n, [](U x, U y) { return x >> (y & 63); });
      return;
    case Op::kCmpEq:
      MapLanes(a, b, out, n, [](U x, U y) { return U{x == y}; });
      return;
    case Op::kCmpNe:
      MapLanes(a, b, out, n, [](U x, U y) { return U{x != y}; });
      return;
    case Op::kCmpLtU:
      MapLanes(a, b, out, n, [](U x, U y) { return U{x < y}; });
      return;
    case Op::kCmpLeU:
      MapLanes(a, b, out, n, [](U x, U y) { return U{x <= y}; });
      return;
    case Op::kCmpGtU:
      MapLanes(a, b, out, n, [](U x, U y) { return U{x > y}; });
      return;
    case Op::kCmpGeU:
      MapLanes(a, b, out, n, [](U x, U y) { return U{x >= y}; });
      return;
    default:  // not a binary-ALU op: EvalAlu yields 0
      std::fill(out, out + n, U{0});
      return;
  }
}

}  // namespace

ByteDomain UnaryDomain(const ExprProgram& program, std::uint32_t var,
                       const ByteDomain& within) {
  // Lane i is the value values[i] of in[var]. Step k holds either one
  // scalar (it does not read `var`) or n lanes at row[k]: `values`
  // itself for a read of in[var], else lanes[n * k].
  thread_local std::vector<std::uint64_t> lanes;
  thread_local std::vector<std::uint64_t> scalar;
  thread_local std::vector<std::uint8_t> varying;
  thread_local std::vector<const std::uint64_t*> row;
  std::array<std::uint64_t, 256> values;
  std::size_t n = 0;
  for (unsigned w = 0; w < 4; ++w) {
    for (std::uint64_t bits = within.bits[w]; bits != 0; bits &= bits - 1) {
      values[n++] = w * 64 + static_cast<unsigned>(__builtin_ctzll(bits));
    }
  }
  ByteDomain out;
  out.bits = {0, 0, 0, 0};
  if (n == 0) return out;
  const std::size_t steps = program.steps.size();
  if (lanes.size() < steps * n) lanes.resize(steps * n);
  if (scalar.size() < steps) {
    scalar.resize(steps);
    varying.resize(steps);
    row.resize(steps);
  }
  for (std::size_t k = 0; k < steps; ++k) {
    const ExprProgram::Step& s = program.steps[k];
    std::uint64_t* dst = &lanes[k * n];
    row[k] = dst;
    const auto at = [&](std::uint32_t step) { return Lanes{row[step]}; };
    switch (s.kind) {
      case ExprKind::kConst:
        varying[k] = 0;
        scalar[k] = s.value;
        break;
      case ExprKind::kInput:
        varying[k] = s.a == var;
        scalar[k] = 0;  // every other byte reads 0
        if (varying[k]) row[k] = values.data();
        break;
      case ExprKind::kBinOp: {
        const bool va = varying[s.a] != 0, vb = varying[s.b] != 0;
        varying[k] = va || vb;
        if (va && vb) {
          BinOpLanes(s.op, at(s.a), at(s.b), dst, n);
        } else if (va) {
          BinOpLanes(s.op, at(s.a), Splat{scalar[s.b]}, dst, n);
        } else if (vb) {
          BinOpLanes(s.op, Splat{scalar[s.a]}, at(s.b), dst, n);
        } else {
          scalar[k] = ApplyBinOp(s.op, scalar[s.a], scalar[s.b]);
        }
        break;
      }
      case ExprKind::kNot:
        varying[k] = varying[s.a];
        if (varying[k]) {
          const std::uint64_t* a = row[s.a];
          for (std::size_t i = 0; i < n; ++i) dst[i] = ~a[i];
        } else {
          scalar[k] = ~scalar[s.a];
        }
        break;
      case ExprKind::kExtract: {
        const unsigned shift = 8u * s.byte;
        varying[k] = varying[s.a];
        if (varying[k]) {
          const std::uint64_t* a = row[s.a];
          for (std::size_t i = 0; i < n; ++i) dst[i] = (a[i] >> shift) & 0xFF;
        } else {
          scalar[k] = (scalar[s.a] >> shift) & 0xFF;
        }
        break;
      }
    }
  }
  const std::size_t last = steps - 1;
  if (!varying[last]) return scalar[last] != 0 ? within : out;
  const std::uint64_t* result = row[last];
  for (std::size_t i = 0; i < n; ++i) {
    if (result[i] != 0) out.bits[values[i] >> 6] |= 1ull << (values[i] & 63);
  }
  return out;
}

std::size_t ExprSize(const ExprRef& expr) {
  switch (expr->kind) {
    case ExprKind::kConst:
    case ExprKind::kInput:
      return 1;
    case ExprKind::kBinOp:
      return 1 + ExprSize(expr->lhs) + ExprSize(expr->rhs);
    case ExprKind::kNot:
    case ExprKind::kExtract:
      return 1 + ExprSize(expr->lhs);
  }
  return 1;
}

std::string ToString(const ExprRef& expr) {
  switch (expr->kind) {
    case ExprKind::kConst: {
      char buf[24];
      std::snprintf(buf, sizeof buf, "0x%llx",
                    static_cast<unsigned long long>(expr->value));
      return buf;
    }
    case ExprKind::kInput:
      return std::string("in[").append(std::to_string(expr->offset)) + "]";
    case ExprKind::kBinOp:
      return std::string("(")
          .append(ToString(expr->lhs))
          .append(" ")
          .append(vm::OpName(expr->op))
          .append(" ")
          .append(ToString(expr->rhs))
          .append(")");
    case ExprKind::kNot:
      return std::string("~").append(ToString(expr->lhs));
    case ExprKind::kExtract:
      return std::string("byte")
          .append(std::to_string(expr->byte))
          .append("(")
          .append(ToString(expr->lhs))
          .append(")");
  }
  return "?";
}

}  // namespace octopocs::symex
