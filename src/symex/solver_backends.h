// Internal: the production search core's singleton. SolverOptions::backend
// null selects it; solver_propagate.cpp defines it so solver.cpp can
// link without a registry.
#pragma once

#include "symex/solver.h"

namespace octopocs::symex {

const SolverBackend& PropagateBackendInstance();

}  // namespace octopocs::symex
