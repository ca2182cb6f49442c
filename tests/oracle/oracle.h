// Slow reference paths for the differential tests and benches. Nothing
// under src/ or tools/ links this library: the shipped binary carries
// only the fast paths, and these oracles check them from outside.
#pragma once

#include "core/octopocs.h"
#include "symex/solver.h"

namespace octopocs::oracle {

/// The original recursive backtracking search (std::array domains,
/// tree-walking Eval, no SolveContext seeding). Plug it in through
/// SolverOptions::backend, which also switches both SolverCache
/// shortcuts (branch wipeout and model reuse) off; it must agree with the propagate core on status, first model
/// and step count for every query.
const symex::SolverBackend& BacktrackSolver();

/// Turns off every answer-preserving shortcut the pipeline takes: every
/// solver query skips the branch wipeout and model reuse and is
/// searched unseeded by the backtrack oracle, every concrete execution
/// and the symbolic stepper run without cycle skip, and no artifact
/// store is consulted. Reports under these options must be byte-identical to the
/// defaults'.
void ShortcutsOff(core::PipelineOptions* options);

}  // namespace octopocs::oracle
