#include "oracle/oracle.h"

namespace octopocs::oracle {

void ShortcutsOff(core::PipelineOptions* options) {
  options->symex.solver.backend = &BacktrackSolver();
  options->symex.cycle_skip = false;
  for (vm::ExecOptions* exec : {&options->taint.exec, &options->cfg.exec,
                                &options->verify_exec}) {
    exec->cycle_skip = false;
  }
  options->artifacts = nullptr;
}

}  // namespace octopocs::oracle
