#include "symex/solver.h"

#include "support/fault.h"
#include "symex/solver_backends.h"

namespace octopocs::symex {

namespace {

/// Searches the query on `core`. A constant-false derived pin answers
/// kUnsat before any core runs, so every core sees the same
/// preprocessed system — a prerequisite for answer identity.
SolveResult Search(const SolveContext& ctx, const ExprRef& branch,
                   const SolverOptions& options, const SolverBackend& core,
                   bool seeded) {
  if (ctx.Impossible(branch)) {
    SolveResult result;
    result.status = SolveStatus::kUnsat;
    return result;
  }
  return core.Solve(ctx, branch, options, seeded);
}

}  // namespace

SolveResult SolverCache::Solve(SolveContext& ctx, ExprRef branch,
                               const Model& pins,
                               const SolverOptions& options) {
  // Normalize: a constant-true branch vanishes, a constant-false one
  // poisons the query, and a branch already on the path adds nothing.
  // Path constraints are never constant and never repeat in the layer.
  SolveResult out;
  if (branch != nullptr) {
    if (branch->IsConst()) {
      if (branch->value == 0) {
        out.status = SolveStatus::kUnsat;
        return out;  // trivial; not worth a counter
      }
      branch = nullptr;
    } else if (ctx.OnPath(branch.get())) {
      branch = nullptr;
    }
  }
  if (ctx.size() == 0 && branch == nullptr) {
    out.status = SolveStatus::kSat;
    return out;  // vacuously satisfiable; not a counted query
  }

  // The oracle's path: no shortcut, no seeding, the configured core alone.
  if (options.backend != nullptr) {
    support::fault::MaybeThrow(support::FaultSite::kSolverStep);
    ++stats_.misses;
    return Search(ctx, branch, options, *options.backend, /*seeded=*/false);
  }

  // 1. Branch wipeout. When the branch is unary and empties its
  // variable's context domain, the fresh search would stop in its unary
  // prefilter with zero steps. Answer as it would — a miss — without
  // building it.
  if (branch != nullptr && ctx.Refutes(branch)) {
    support::fault::MaybeThrow(support::FaultSite::kSolverStep);
    ++stats_.misses;
    out.status = SolveStatus::kUnsat;
    return out;
  }

  // 2. Certified model reuse from the state's own pool. Steps report
  // the work done by *this* call, so a hit contributes zero to the
  // caller's search-effort accounting.
  if (ctx.Reuse(branch, pins, options.hints, &out.model)) {
    ++stats_.hits;
    out.status = SolveStatus::kSat;
    return out;
  }

  // 3. Fresh search on the propagate core, seeded from the context.
  support::fault::MaybeThrow(support::FaultSite::kSolverStep);
  out = Search(ctx, branch, options, PropagateBackendInstance(),
               /*seeded=*/true);
  ++stats_.misses;
  if (out.status == SolveStatus::kSat) ctx.NoteSolution(out.model);
  return out;
}

}  // namespace octopocs::symex
