// Constraint solver over symbolic input bytes (the SMT-solver substitute).
//
// Every variable is one byte of the symbolic PoC file (domain 0..255),
// and a constraint is an expression that must evaluate nonzero. That
// restriction — inherited from the MiniVM's byte-level file model — lets
// a classic CSP search be *complete*: domain filtering on constraints
// with a single unassigned variable, most-constrained-variable-first
// branching, and chronological backtracking. The solver reports:
//
//   kSat      — a model (byte assignment) satisfying every constraint;
//   kUnsat    — exhaustive search proved no model exists (this verdict
//               is what turns into the paper's Type-III "vulnerability
//               not triggerable" result, so completeness matters);
//   kUnknown  — the step budget ran out (surfaced as a tooling Failure,
//               like an SMT timeout would be);
//   kCancelled — the caller's wall-clock CancelToken tripped mid-search.
//               Distinct from kUnknown so callers can tell "ran out of
//               steps, a bigger budget might help" from "out of time,
//               stop the whole phase" — only the former could change
//               under a bigger budget, and a cancelled verdict must
//               never enter the SolverCache.
//
// The search core is the propagate core behind the SolverBackend
// interface (DESIGN.md §15): watched-domain propagation over 256-bit
// ByteDomain masks, evaluating each constraint through the
// straight-line program attached to its node (ProgramFor). Its slow
// reference, the original recursive backtracker over
// std::array<bool,256> domains with tree-walking Eval, lives in
// tests/oracle/ and plugs in through SolverOptions::backend, which also
// switches every SolverCache tier off. Both walk
// the same decision tree (variable order, value order, filtering
// strength), so they return the identical first model, the identical
// kUnsat verdicts and the same step counts.
#pragma once

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "support/deadline.h"
#include "symex/expr.h"
#include "symex/solve_context.h"

namespace octopocs::symex {

enum class SolveStatus : std::uint8_t { kSat, kUnsat, kUnknown, kCancelled };

struct SolveResult {
  SolveStatus status = SolveStatus::kUnknown;
  /// Total model over the constrained variables (unconstrained bytes are
  /// absent and default to 0). Valid when status == kSat.
  Model model;
  /// Search effort (diagnostics; feeds the Table IV cost columns).
  std::uint64_t steps = 0;
};

class SolverBackend;

struct SolverOptions {
  /// Backtracking-step budget before giving up with kUnknown.
  std::uint64_t max_steps = 2'000'000;
  /// Value-ordering hints: when a variable has a hinted value inside its
  /// filtered domain, that value is tried first. OCTOPOCS hints with the
  /// original PoC's bytes so the reformed PoC stays as close to the
  /// original as the constraints allow (Type-I guiding inputs survive
  /// verbatim).
  Model hints;
  /// Cooperative wall-clock bound, polled inside the search loops.
  /// Tripping aborts with kCancelled.
  support::CancelToken cancel;
  /// Test seam: null runs the production path (cache tiers, context
  /// seeding, propagate core). Non-null makes SolverCache::Solve skip
  /// every tier and hand the query, unseeded, to this core — what
  /// oracle::ShortcutsOff sets. Not owned. Excluded from every cache and
  /// artifact key: both paths are answer-identical by construction.
  const SolverBackend* backend = nullptr;
};

/// One complete search core. `Solve` receives the *preprocessed*
/// constraint system (deduplicated, constant-free, concat equalities
/// decomposed) and must be a pure function of (constraints,
/// options.hints) for definitive statuses — that purity is what makes
/// backend choice cache-invisible. `ctx`, when non-null, is the
/// querying state's SolveContext: its domains may seed the unary
/// prefilter, which must leave the search bit-identical to an unseeded
/// one (steps included). That holds because every constraint the
/// context folded, derived pins included, is a member of the
/// preprocessed system.
class SolverBackend {
 public:
  virtual ~SolverBackend() = default;
  virtual SolveResult Solve(const std::vector<ExprRef>& constraints,
                            const SolverOptions& options,
                            const SolveContext* ctx) const = 0;
};

/// Certified model reuse, the SolverCache's third tier. Assembles one
/// candidate assignment per source — each `pool` model newest first,
/// then hints alone — over exactly the variables `constraints`
/// mention, taking per variable the pinned value (the constraints force
/// it), else the source model's, else the hint; a variable with none of
/// the three is absent from the candidate and reads as 0. The first
/// candidate under which every constraint's node program evaluates
/// nonzero is stored in `*out` and true returned: a certificate, never a
/// guess. Candidates are evaluated over one dense offset-indexed byte
/// array; tests/ holds the std::map oracle it must match exactly.
bool ReuseCertifiedModel(const std::vector<ExprRef>& constraints,
                         const Model& pins, const Model& hints,
                         const std::vector<Model>& pool, Model* out);

/// The solver's one front door: memoizes verdicts across the repeated
/// feasibility and concretization queries a directed executor issues
/// along shared path prefixes. Four tiers, all sound by construction:
///
///   exact memo    keyed by the exact sequence of constraint node
///                 addresses. Forked states copy their constraint
///                 vector but share the pointed-to nodes, and interning
///                 canonicalizes structurally-equal nodes, so an exact
///                 hit is *provably* the same query; it may return any
///                 verdict, including kUnsat.
///   subsumption   the caller's SolveContext saw a unary constraint wipe
///                 out a variable's domain; every applied constraint is
///                 a member of the query, so the query is UNSAT — and a
///                 fresh search says so too, since its unary prefilter
///                 empties the same domain before any step or budget
///                 check. Verdict-only: no model is fabricated.
///   branch wipeout the query's last constraint — the branch a query
///                 adds to the state's path — is unary and empties its
///                 variable's context domain (SolveContext::Refutes).
///                 The fresh search's prefilter would return kUnsat with
///                 zero steps from that same domain, so the answer is
///                 that result, counted as a miss and memoized, without
///                 building the search.
///   model reuse   a path extends its prefix by appending constraints,
///                 so the sequence key misses — but a model that
///                 satisfied the prefix often still satisfies the
///                 extension. ReuseCertifiedModel overlays the caller's
///                 pinned bytes onto each model of the state's own
///                 (forked-with-the-state) pool and *evaluates* the full
///                 constraint set under it; only a model that certifies
///                 every constraint is returned, as kSat. kUnsat can
///                 never come from reuse, so a cached verdict can never
///                 contradict a fresh solve.
///
/// Three more tiers were retired because they never answered a query
/// on any measured workload: per-slice caching over independence
/// slices, a pool of UNSAT cores whose subsets proved superset queries
/// UNSAT, and cross-query nogoods recorded by the propagate core
/// (EXPERIMENTS.md "Retired solver tiers", DESIGN.md §15.2).
///
/// The cache must not outlive the expressions it indexes: one cache per
/// executor run, like the interning scope whose lifetime it matches.
class SolverCache {
 public:
  struct Stats {
    /// Totals: hits + misses == Solve() queries (trivially constant
    /// queries short-circuit before counting).
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    /// Per-mechanism breakdown of `hits`.
    std::uint64_t exact_hits = 0;
    std::uint64_t model_reuse_hits = 0;
    std::uint64_t subsumption_hits = 0;
  };

  /// Answers `constraints` (the caller's path condition) through, in
  /// order: exact memo → context wipeout → branch wipeout → certified
  /// model reuse → fresh search on the propagate core, seeded from
  /// `ctx`. `pins` are the caller's already-forced byte values (each
  /// also present as an equality constraint); `ctx` is the querying
  /// state's SolveContext, whose applied constraints must all be members
  /// of `constraints`.
  /// kSat/kUnsat results are cached; kUnknown is not (a larger budget
  /// could improve it) and kCancelled never is. Wherever the fresh
  /// search finishes, every tier's status is the fresh search's (see
  /// DESIGN.md §10). With `options.backend` set, every tier is skipped:
  /// the query goes unseeded to that core and counts as a miss.
  SolveResult Solve(const std::vector<ExprRef>& constraints,
                    const Model& pins, const SolverOptions& options,
                    SolveContext& ctx);

  const Stats& stats() const { return stats_; }
  std::size_t size() const { return entries_; }

 private:
  struct Entry {
    std::vector<const Expr*> key;
    SolveResult result;
  };

  static std::uint64_t HashKey(const std::vector<ExprRef>& constraints);
  static bool KeyEquals(const std::vector<const Expr*>& key,
                        const std::vector<ExprRef>& constraints);

  const Entry* FindExact(const std::vector<ExprRef>& constraints) const;
  void StoreEntry(const std::vector<ExprRef>& constraints,
                  const SolveResult& result);

  std::unordered_map<std::uint64_t, std::vector<Entry>> buckets_;
  std::size_t entries_ = 0;
  Stats stats_;
};

}  // namespace octopocs::symex
