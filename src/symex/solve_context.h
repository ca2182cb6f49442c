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
// re-evaluating the applied constraints.
//
// Determinism contract: the context is a pure function of the *set* of
// constraints applied to it (domain intersection commutes), and seeding
// is engineered to produce bit-identical search behavior to filtering
// the same constraints from scratch — so cached solver results stay pure
// functions of the constraint sequence whether or not a context (or
// whose context) accelerated them. See DESIGN.md §10.
//
// A wiped-out domain sets known_unsat() but deliberately does NOT kill
// the state eagerly: the executor discovers unsatisfiability at its next
// solve, exactly where a from-scratch search would, keeping state
// classification identical to the unaccelerated execution.
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
    ByteDomain domain;
    /// Unary constraints already folded into `domain`, sorted by node
    /// address so the solver can subtract them from a query's unary set
    /// with a binary search.
    std::vector<const Expr*> applied;
  };
  using DomainMap = std::map<std::uint32_t, VarEntry>;

  /// Folds `constraint` into the per-variable domains when it is unary
  /// (mentions exactly one input byte); otherwise a no-op. Idempotent
  /// per node. Precondition for use as a solve accelerator: every
  /// constraint applied here is part of every query the context is
  /// passed to (the executor applies exactly the state's own path
  /// constraints).
  void Apply(const ExprRef& constraint) {
    const SortedSmallSet<std::uint32_t>& vars = FreeVars(constraint);
    if (vars.size() != 1) return;
    const std::uint32_t var = *vars.begin();
    const Expr* node = constraint.get();
    if (const VarEntry* existing = Find(var)) {
      if (std::binary_search(existing->applied.begin(),
                             existing->applied.end(), node)) {
        return;
      }
    }
    VarEntry& entry = domains_.mut()[var];
    const ExprProgram& program = ProgramFor(constraint);
    std::vector<std::uint8_t> probe(var + 1, 0);
    std::vector<std::uint64_t> scratch(program.steps.size());
    for (unsigned v = 0; v < 256; ++v) {
      if (!entry.domain.Test(v)) continue;
      probe[var] = static_cast<std::uint8_t>(v);
      if (RunProgram(program, probe.data(), scratch.data()) == 0) {
        entry.domain.Reset(v);
      }
    }
    entry.applied.insert(
        std::lower_bound(entry.applied.begin(), entry.applied.end(), node),
        node);
    if (entry.domain.None()) known_unsat_ = true;
  }

  /// Filtered domain for `var`, or nullptr when no unary constraint
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
      bytes += sizeof(var) + sizeof(VarEntry) + 48 +
               entry.applied.capacity() * sizeof(const Expr*);
    }
    bytes /= domains_.owners();
    std::size_t model_bytes = 0;
    for (const Model& m : models_.get()) model_bytes += m.size() * 48;
    return bytes + model_bytes / models_.owners();
  }

 private:
  static constexpr std::size_t kMaxModels = 4;

  Cow<DomainMap> domains_;
  Cow<std::vector<Model>> models_;
  bool known_unsat_ = false;
};

}  // namespace octopocs::symex
