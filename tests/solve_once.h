// One solver query through the solver's only front door,
// SolverCache::Solve, on a fresh cache and a fresh SolveContext whose
// path is `constraints`: the first query of a brand-new executor state.
// Only the hints-alone reuse candidate can answer before the search, so
// a kSat model may leave out a constrained byte that reads as 0; with
// options.backend set, only that core's search answers.
#pragma once

#include <vector>

#include "symex/solve_context.h"
#include "symex/solver.h"

namespace octopocs::symex {

/// A fresh state's context holding `path`. A path never holds a
/// constant (the executor drops constant-true constraints and kills the
/// state on constant-false ones), so neither may `path`.
inline SolveContext PathContext(const std::vector<ExprRef>& path) {
  SolveContext ctx;
  for (const ExprRef& c : path) ctx.Append(c);
  return ctx;
}

inline SolveResult SolveOnce(const std::vector<ExprRef>& constraints,
                             const SolverOptions& options = {}) {
  // Constants never reach a path: a false one answers kUnsat uncounted,
  // as the front door does for a constant branch; a true one vanishes.
  std::vector<ExprRef> path;
  for (const ExprRef& c : constraints) {
    if (!c->IsConst()) {
      path.push_back(c);
    } else if (c->value == 0) {
      SolveResult unsat;
      unsat.status = SolveStatus::kUnsat;
      return unsat;
    }
  }
  SolverCache cache;
  SolveContext ctx = PathContext(path);
  return cache.Solve(ctx, nullptr, {}, options);
}

}  // namespace octopocs::symex
