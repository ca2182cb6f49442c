// Symbolic executors: directed (Algorithm 2) and naive (Table IV baseline).
//
// Directed mode is the paper's P2+P3. Starting from T's entry with an
// all-symbolic input file, it explores depth-first while consulting the
// backward-path-finding distance map at every symbolic branch: directions
// from which ep is unreachable are pruned, and when both directions stay
// viable the shorter-distance one runs first with the sibling pushed as a
// fork. Four state classes from §III-B map as follows:
//   active        — normal stepping;
//   loop          — a back edge taken under a *symbolic* branch condition
//                   increments that state's loop counter;
//   loop-dead     — the counter exceeds θ: the state dies (the fork that
//                   exits the loop earlier was already queued, which
//                   realises the paper's "increase iterations 1..θ");
//   program-dead  — the whole worklist drains without reaching the goal.
//
// Combining (P3) runs inline: at the k-th ep encounter the k-th bunch is
// pinned at T's current file-position indicator, ep's symbolic arguments
// are matched against the arguments recorded in S, and after the final
// bunch the accumulated constraint system is solved into poc'.
//
// Naive mode is plain breadth-first symbolic execution with no distance
// pruning — the baseline whose state explosion reproduces the "MemError"
// rows of Table IV. It stops at the first ep encounter.
#pragma once

#include <cstdint>
#include <deque>
#include <optional>
#include <vector>

#include "cfg/cfg.h"
#include "support/bytes.h"
#include "symex/solver.h"
#include "symex/state.h"
#include "taint/crash_primitive.h"

namespace octopocs::support {
class Tracer;
}

namespace octopocs::symex {

enum class SymexStatus : std::uint8_t {
  kPocGenerated,    // all bunches placed, constraints solved → poc ready
  kReachedEp,       // P2-only goal met (ReachEp mode)
  kCfgUnreachable,  // backward path finding: ep not reachable (case ii)
  kProgramDead,     // worklist drained before any ep encounter (case iii)
  kUnsat,           // constraint conflict / ep-argument mismatch (P3.3)
  kBudget,          // state or memory budget exhausted ("MemError")
  kSolverFailure,   // final constraint system returned Unknown
  kDeadline,        // the run's wall-clock CancelToken tripped
};

std::string_view SymexStatusName(SymexStatus status);

struct SymexStats {
  std::uint64_t states_created = 0;
  std::uint64_t peak_live_states = 0;
  /// Instructions stepped or fast-forwarded, over all states.
  std::uint64_t instructions = 0;
  /// The part of `instructions` the exact-cycle skip jumped over
  /// instead of stepping (ExecutorOptions::cycle_skip).
  std::uint64_t instructions_skipped = 0;
  std::uint64_t solver_steps = 0;
  /// Solver shortcut effectiveness: queries answered by certified
  /// model reuse vs. the rest (fresh searches and branch wipeouts).
  std::uint64_t solver_cache_hits = 0;
  std::uint64_t solver_cache_misses = 0;
  /// The hits certified model reuse answered: since the exact memo and
  /// the context-wipeout tier were retired, every hit.
  std::uint64_t solver_model_reuse_hits = 0;
  /// Always 0: the exact memo and the subsumption tier that counted
  /// them are retired (see SolverCache). Kept declared only because the
  /// benchmark's layer table (perfbench/src/layers.cpp) still reads
  /// them; drop them when it stops.
  std::uint64_t solver_exact_hits = 0;
  std::uint64_t solver_subsumption_hits = 0;
  /// Hash-consing effectiveness: node constructions answered from the
  /// intern table vs. distinct nodes allocated.
  std::uint64_t expr_intern_hits = 0;
  std::uint64_t expr_intern_nodes = 0;
  /// Peak of Σ FootprintBytes() over the live worklist (Table IV "RAM").
  std::uint64_t peak_memory_bytes = 0;
  double elapsed_seconds = 0;
};

struct SymexResult {
  SymexStatus status = SymexStatus::kProgramDead;
  /// kPocGenerated: the reformed PoC. kReachedEp: a *witness* input
  /// that drives T from its entry to ep along the verified path.
  Bytes poc;
  /// Offsets of poc' occupied by relocated crash-primitive bytes; the
  /// complement is the guiding region (drives Type-I/II classification).
  std::vector<std::uint32_t> bunch_offsets;
  SymexStats stats;
  /// True when at least one state was killed by the loop cap θ. A
  /// program-dead verdict with this flag set is potentially a θ
  /// artefact — the paper's stated limitation — and the pipeline's
  /// adaptive-θ mode uses it to decide whether retrying with a larger
  /// cap could change the outcome.
  bool loop_dead_observed = false;
  /// Human-readable detail (which check failed, which budget tripped).
  std::string detail;
};

struct ExecutorOptions {
  /// θ — the maximum symbolic-loop iteration count (paper §IV-B: 120).
  std::uint32_t theta = 120;
  /// Live-state budget; exceeding it is the "MemError" condition.
  std::uint64_t max_live_states = 2048;
  /// Memory budget over live states (bytes).
  std::uint64_t max_memory_bytes = 1ULL << 31;
  /// Total instructions across all states.
  std::uint64_t max_instructions = 20'000'000;
  /// Per-state instruction fuel.
  std::uint64_t max_state_instructions = 2'000'000;
  std::uint32_t max_call_depth = 200;
  /// Symbolic input file size M: reads succeed below this bound and poc'
  /// is trimmed to the bytes actually required.
  std::uint64_t max_input_size = 4096;
  /// Exact-cycle fast-forward for a state that keeps running through ℓ
  /// after the final bunch (a CWE-835 hang): once its complete state
  /// repeats with period P, whole periods are counted instead of
  /// stepped. Answer-invisible — results and every SymexStats counter
  /// but the interner hits equal the stepped run's — so it enters no
  /// key; oracle::ShortcutsOff turns it off for the differential.
  bool cycle_skip = true;
  SolverOptions solver;
  /// Cooperative wall-clock bound over the whole symbolic run, polled in
  /// the stepping loop. Callers that also want mid-solve cancellation
  /// should set solver.cancel to the same deadline. Tripping yields
  /// SymexStatus::kDeadline — never a Type-III-style verdict.
  support::CancelToken cancel;
  /// Structured-tracing sink (not owned, may be null). Pure
  /// observability: never participates in determinism or verdicts.
  support::Tracer* tracer = nullptr;
};

class SymExecutor {
 public:
  /// `cfg` must outlive the executor and describe `t`.
  SymExecutor(const vm::Program& t, const cfg::Cfg& cfg, vm::FuncId ep,
              ExecutorOptions options = {});

  /// P2 goal only: drive execution until the first ep encounter.
  /// `directed` selects guided-DFS vs naive-BFS (Table IV compares both).
  SymexResult ReachEp(bool directed);

  /// Full P2+P3: place `bunches` at successive ep encounters and solve
  /// the combined constraint system into a reformed PoC.
  SymexResult GeneratePoc(const std::vector<taint::Bunch>& bunches);

 private:
  struct Run;  // implementation detail (executor.cpp)

  const vm::Program& t_;
  const cfg::Cfg& cfg_;
  vm::FuncId ep_;
  ExecutorOptions options_;
};

}  // namespace octopocs::symex
