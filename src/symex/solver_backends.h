// Internal: the production search core's singleton, which
// SolverCache::Solve runs fresh searches on. solver_propagate.cpp
// defines it so solver.cpp can link without a registry.
#pragma once

#include "symex/solver.h"

namespace octopocs::symex {

const SolverBackend& PropagateBackendInstance();

}  // namespace octopocs::symex
