// Internal: singleton instances of the two search cores. Users go
// through GetSolverBackend (solver.h); these accessors exist so the
// per-core translation units can link without a registry.
#pragma once

#include "symex/solver.h"

namespace octopocs::symex {

const SolverBackend& BacktrackBackendInstance();
const SolverBackend& PropagateBackendInstance();

}  // namespace octopocs::symex
