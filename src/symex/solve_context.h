// Incremental per-state solve context (the "prefix state" of queries).
//
// Every solver query the executor issues is the state's own path
// condition, and sibling states share a long constraint prefix. The
// dominant per-query setup cost in the byte-CSP solver is domain
// filtering of *unary* constraints — 256 evaluations per constraint per
// query. A SolveContext folds each unary constraint into a per-variable
// 256-bit domain once, when the constraint is added to the state, and is
// forked with the state via copy-on-write: a branch copies two shared
// pointers instead of redoing the prefix's filtering work, and the
// solver seeds its search domains from the context instead of
// re-evaluating the applied constraints. The byte pins a concat
// equality derives (ConcatPins) are folded too, since the solver's
// pre-pass adds them to every query that holds the equality.
//
// Determinism contract: the context is a pure function of the *set* of
// constraints applied to it (domain intersection commutes), and seeding
// is engineered to produce bit-identical search behavior to filtering
// the same constraints from scratch — so cached solver results stay pure
// functions of the constraint sequence whether or not a context (or
// whose context) accelerated them. See DESIGN.md §10.
//
// A unary path constraint that wipes out its variable's domain sets
// known_unsat() (a wipeout by derived pins does not; DESIGN.md §10.2)
// but deliberately does NOT kill the state eagerly: the executor
// discovers unsatisfiability at its next solve, exactly where a
// from-scratch search would, keeping state classification identical to
// the unaccelerated execution.
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <map>
#include <vector>

#include "symex/cow.h"
#include "symex/expr.h"

namespace octopocs::symex {

/// Set of allowed values for one input byte, as a 256-bit mask.
struct ByteDomain {
  std::array<std::uint64_t, 4> bits{~0ull, ~0ull, ~0ull, ~0ull};

  bool Test(unsigned v) const { return (bits[v >> 6] >> (v & 63)) & 1; }
  void Reset(unsigned v) { bits[v >> 6] &= ~(1ull << (v & 63)); }

  bool None() const {
    return (bits[0] | bits[1] | bits[2] | bits[3]) == 0;
  }

  int Count() const {
    int n = 0;
    for (const std::uint64_t w : bits) n += __builtin_popcountll(w);
    return n;
  }
};

class SolveContext {
 public:
  struct VarEntry {
    /// Values every folded constraint admits, derived pins included:
    /// what a search's unary prefilter starts from.
    ByteDomain domain;
    /// Values the folded unary path constraints alone admit. Emptying
    /// it is what known_unsat() reports; derived pins narrow only
    /// `domain`, so the subsumption tier answers only where the path's
    /// own unary constraints contradict each other.
    ByteDomain unary;
    /// Unary path constraints folded into both domains, sorted by node
    /// address.
    std::vector<const Expr*> applied;
    /// Derived byte pins (ConcatPins of an applied equality) folded into
    /// `domain`, sorted by node address.
    std::vector<const Expr*> pins;

    /// Whether `node`'s filtering is already in `domain`, so a search's
    /// unary prefilter may skip it.
    bool Folded(const Expr* node) const {
      return std::binary_search(applied.begin(), applied.end(), node) ||
             std::binary_search(pins.begin(), pins.end(), node);
    }
  };
  using DomainMap = std::map<std::uint32_t, VarEntry>;

  /// Folds `constraint` into the per-variable domains when it is unary
  /// (mentions exactly one input byte), and folds the byte pins it
  /// derives when it is a concat equality (ConcatPins). Otherwise a
  /// no-op. Idempotent per node. Precondition for use as a solve
  /// accelerator: every constraint applied here is part of every query
  /// the context is passed to (the executor applies exactly the state's
  /// own path constraints). The pins then are too, because the solver's
  /// pre-pass adds them to every query that holds the equality.
  void Apply(const ExprRef& constraint) {
    const SortedSmallSet<std::uint32_t>& vars = FreeVars(constraint);
    if (vars.size() == 1) FoldUnary(*vars.begin(), constraint);
    ForEachConcatPin(constraint, [&](const ExprRef& pin) {
      // A constant-false pin folds nothing: the pre-pass answers the
      // query kUnsat before any search. A self pin is folded above.
      if (!pin->IsConst() && pin.get() != constraint.get()) FoldPin(pin);
    });
  }

  /// True when `constraint` is unary and admits no value of its
  /// variable's context domain (all 256 values when nothing folded
  /// mentions the variable). A query holding it is then unsatisfiable,
  /// and a fresh search's unary prefilter, seeded from the same domain,
  /// empties it before any step or budget check (DESIGN.md §10.1).
  bool Refutes(const ExprRef& constraint) const {
    const SortedSmallSet<std::uint32_t>& vars = FreeVars(constraint);
    if (vars.size() != 1) return false;
    const std::uint32_t var = *vars.begin();
    const VarEntry* entry = Find(var);
    ByteDomain dom = entry != nullptr ? entry->domain : ByteDomain{};
    Filter(var, constraint, &dom, /*stop_at_first=*/true);
    return dom.None();
  }

  /// Filtered domains for `var`, or nullptr when nothing folded
  /// mentions it yet.
  const VarEntry* Find(std::uint32_t var) const {
    const DomainMap& map = domains_.get();
    const auto it = map.find(var);
    return it == map.end() ? nullptr : &it->second;
  }

  /// Some applied constraint admits no value for its variable: every
  /// superset query is unsatisfiable.
  bool known_unsat() const { return known_unsat_; }

  /// Per-state reuse pool of models that satisfied this state's past
  /// queries (newest last, deduplicated, capped). Keeping the pool on
  /// the state — instead of a global history — makes model-reuse answers
  /// a pure function of the state's own path, independent of which
  /// sibling states the search happened to run first.
  void NoteModel(const Model& model) {
    for (const Model& m : models_.get()) {
      if (m == model) return;
    }
    std::vector<Model>& pool = models_.mut();
    pool.push_back(model);
    if (pool.size() > kMaxModels) pool.erase(pool.begin());
  }

  const std::vector<Model>& recent_models() const { return models_.get(); }

  std::size_t FootprintBytes() const {
    std::size_t bytes = 0;
    const DomainMap& map = domains_.get();
    for (const auto& [var, entry] : map) {
      // Charges the unary path constraints only: pins derive from
      // constraints the state already pays for, so folding them moves
      // no memory-budget decision and no peak_memory_bytes.
      if (entry.applied.empty()) continue;
      bytes += sizeof(var) + kEntryBytes + 48 +
               entry.applied.capacity() * sizeof(const Expr*);
    }
    bytes /= domains_.owners();
    std::size_t model_bytes = 0;
    for (const Model& m : models_.get()) model_bytes += m.size() * 48;
    return bytes + model_bytes / models_.owners();
  }

 private:
  static constexpr std::size_t kMaxModels = 4;
  /// Footprint charge per variable entry: one domain and one list.
  static constexpr std::size_t kEntryBytes =
      sizeof(ByteDomain) + sizeof(std::vector<const Expr*>);

  /// Clears from `*dom` every value under which `constraint` (unary over
  /// `var`) evaluates to 0. With `stop_at_first`, returns as soon as one
  /// value survives, leaving the rest of `*dom` unfiltered.
  static void Filter(std::uint32_t var, const ExprRef& constraint,
                     ByteDomain* dom, bool stop_at_first) {
    const ExprProgram& program = ProgramFor(constraint);
    std::vector<std::uint8_t> probe(var + 1, 0);
    std::vector<std::uint64_t> scratch(program.steps.size());
    for (unsigned v = 0; v < 256; ++v) {
      if (!dom->Test(v)) continue;
      probe[var] = static_cast<std::uint8_t>(v);
      if (RunProgram(program, probe.data(), scratch.data()) == 0) {
        dom->Reset(v);
      } else if (stop_at_first) {
        return;
      }
    }
  }

  static void Insert(std::vector<const Expr*>* sorted, const Expr* node) {
    sorted->insert(std::lower_bound(sorted->begin(), sorted->end(), node),
                   node);
  }

  void FoldUnary(std::uint32_t var, const ExprRef& constraint) {
    const Expr* node = constraint.get();
    if (const VarEntry* existing = Find(var)) {
      if (std::binary_search(existing->applied.begin(),
                             existing->applied.end(), node)) {
        return;
      }
    }
    VarEntry& entry = domains_.mut()[var];
    Filter(var, constraint, &entry.unary, /*stop_at_first=*/false);
    for (int w = 0; w < 4; ++w) entry.domain.bits[w] &= entry.unary.bits[w];
    Insert(&entry.applied, node);
    if (entry.unary.None()) known_unsat_ = true;
  }

  /// A pin is in[o] == k (ConcatPins), so it admits exactly k: folding
  /// it is a mask intersection, with no evaluation.
  void FoldPin(const ExprRef& pin) {
    const std::uint32_t var = pin->lhs->offset;
    const auto k = static_cast<unsigned>(pin->rhs->value);
    if (const VarEntry* existing = Find(var)) {
      if (existing->Folded(pin.get())) return;
    }
    VarEntry& entry = domains_.mut()[var];
    const bool admitted = entry.domain.Test(k);
    entry.domain.bits = {0, 0, 0, 0};
    if (admitted) entry.domain.bits[k >> 6] = 1ull << (k & 63);
    Insert(&entry.pins, pin.get());
  }

  Cow<DomainMap> domains_;
  Cow<std::vector<Model>> models_;
  bool known_unsat_ = false;
};

}  // namespace octopocs::symex
