// One solver query through the solver's only front door,
// SolverCache::Solve, on a fresh cache with an empty SolveContext: the
// first query of a brand-new executor state. Only the hints-alone reuse
// candidate can answer before the search, so a kSat model may leave out
// a constrained byte that reads as 0; with options.backend set, only
// that core's search answers.
#pragma once

#include <vector>

#include "symex/solve_context.h"
#include "symex/solver.h"

namespace octopocs::symex {

inline SolveResult SolveOnce(const std::vector<ExprRef>& constraints,
                             const SolverOptions& options = {}) {
  SolverCache cache;
  SolveContext ctx;
  return cache.Solve(constraints, {}, options, ctx);
}

}  // namespace octopocs::symex
