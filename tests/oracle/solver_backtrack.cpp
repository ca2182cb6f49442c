// The original recursive CSP search, preserved verbatim as the slow
// oracle behind SolverBackend. Slow and simple on purpose: std::array
// domains, tree-walking Eval rather than node programs. The propagate
// core must agree with this one on every definitive answer (status and
// first model): solver_backend_test holds it to that on random
// systems, and the shortcut-off differential on whole corpora.
#include <algorithm>
#include <array>
#include <deque>
#include <map>
#include <vector>

#include "oracle/oracle.h"

namespace octopocs::symex {

namespace {

/// Propagation-queue CSP search with trail-based backtracking.
///
/// Domains live in a dense table; constraints carry an unassigned-var
/// counter. Whenever a constraint drops to one unassigned variable it is
/// queued and its variable's domain is filtered by evaluation (256
/// probes); singleton domains assign immediately and cascade. Branching
/// picks the smallest-domain variable, trying the hinted value first.
struct Search {
  Search(const std::vector<ExprRef>& constraints_in, const Model& hints_in,
         std::uint64_t max_steps_in, support::CancelToken cancel_in,
         const SolveContext* ctx_in)
      : constraints(constraints_in),
        hints(hints_in),
        max_steps(max_steps_in),
        cancel(cancel_in),
        ctx(ctx_in) {}

  const std::vector<ExprRef>& constraints;
  const Model& hints;
  std::uint64_t max_steps;
  support::CancelToken cancel;  // local copy; poll counters are ours
  const SolveContext* ctx;      // optional prefix-domain accelerator
  std::uint64_t steps = 0;
  bool cancelled = false;

  bool Cancelled() {
    if (!cancelled && cancel.ShouldStop()) cancelled = true;
    return cancelled;
  }

  std::vector<std::uint32_t> vars;               // dense index → offset
  std::map<std::uint32_t, std::size_t> var_index;
  std::vector<std::vector<std::size_t>> var_constraints;  // var → c-ids
  std::vector<std::vector<std::size_t>> cvars;            // c-id → vars
  std::vector<std::size_t> unassigned_count;              // per constraint

  std::vector<std::array<bool, 256>> domain;
  std::vector<int> domain_size;
  std::vector<int> assigned;  // -1 = unassigned, else the value
  Model assignment;           // offset → value (mirrors `assigned`)
  std::vector<bool> prefiltered;  // unary constraints folded at init

  struct TrailEntry {
    std::size_t var;
    std::array<bool, 256> saved_domain;
    int saved_size;
  };
  std::vector<TrailEntry> trail;
  std::vector<std::size_t> assign_trail;  // vars assigned, for undo
  std::vector<std::size_t> count_trail;   // constraints decremented

  enum class Outcome { kSat, kUnsat, kBudget, kCancelled };

  bool Init() {
    SortedSmallSet<std::uint32_t> all;
    cvars.resize(constraints.size());
    std::vector<SortedSmallSet<std::uint32_t>> cvar_sets(constraints.size());
    for (std::size_t c = 0; c < constraints.size(); ++c) {
      CollectInputs(constraints[c], cvar_sets[c]);
      all.UnionWith(cvar_sets[c]);
    }
    vars.assign(all.begin(), all.end());
    for (std::size_t i = 0; i < vars.size(); ++i) var_index[vars[i]] = i;
    var_constraints.resize(vars.size());
    unassigned_count.resize(constraints.size());
    for (std::size_t c = 0; c < constraints.size(); ++c) {
      for (const std::uint32_t off : cvar_sets[c]) {
        const std::size_t v = var_index[off];
        cvars[c].push_back(v);
        var_constraints[v].push_back(c);
      }
      unassigned_count[c] = cvars[c].size();
    }
    domain.assign(vars.size(), {});
    for (auto& d : domain) d.fill(true);
    domain_size.assign(vars.size(), 256);
    assigned.assign(vars.size(), -1);

    // Unary prefilter: every constraint over a single variable folds
    // into that variable's *initial* domain here, rather than through
    // the propagation queue. When the caller supplies a SolveContext
    // that already applied some of these constraints, its recorded
    // domain seeds the fold and those constraints' 256-probe
    // evaluations are skipped — the incremental-prefix saving. The
    // final domains are identical either way (filtering is idempotent
    // and intersection commutes), so context presence cannot change
    // the search outcome. Prefilter probes are setup, not search, and
    // do not count toward the step budget.
    prefiltered.assign(constraints.size(), false);
    Model probe;
    for (std::size_t v = 0; v < vars.size(); ++v) {
      bool any_unary = false;
      for (const std::size_t c : var_constraints[v]) {
        if (cvars[c].size() == 1) {
          any_unary = true;
          break;
        }
      }
      if (!any_unary) continue;
      auto& dom = domain[v];
      const std::uint32_t off = vars[v];
      const SolveContext::VarEntry* seed =
          ctx != nullptr ? ctx->Find(off) : nullptr;
      if (seed != nullptr) {
        int size = 0;
        for (int value = 0; value < 256; ++value) {
          dom[value] = seed->domain.Test(static_cast<unsigned>(value));
          size += dom[value] ? 1 : 0;
        }
        domain_size[v] = size;
      }
      for (const std::size_t c : var_constraints[v]) {
        if (cvars[c].size() != 1) continue;
        prefiltered[c] = true;
        if (seed != nullptr &&
            std::binary_search(seed->applied.begin(), seed->applied.end(),
                               constraints[c].get())) {
          continue;  // already folded into the seeded domain
        }
        int size = 0;
        std::uint8_t& cell = probe[off];
        for (int value = 0; value < 256; ++value) {
          if (!dom[value]) continue;
          cell = static_cast<std::uint8_t>(value);
          if (Eval(constraints[c], probe) != 0) {
            ++size;
          } else {
            dom[value] = false;
          }
        }
        probe.erase(off);
        domain_size[v] = size;
      }
      if (domain_size[v] == 0) return false;
    }
    return true;
  }

  /// Assigns var v := value, updating constraint counters. Records undo
  /// info. Returns false on immediate conflict (a fully-assigned
  /// constraint evaluating false).
  bool Assign(std::size_t v, int value) {
    assigned[v] = value;
    assignment[vars[v]] = static_cast<std::uint8_t>(value);
    assign_trail.push_back(v);
    for (const std::size_t c : var_constraints[v]) {
      --unassigned_count[c];
      count_trail.push_back(c);
      if (unassigned_count[c] == 0) {
        ++steps;
        if (Eval(constraints[c], assignment) == 0) return false;
      }
    }
    return true;
  }

  /// Filters `v`'s domain against constraint `c` (which must have `v`
  /// as its only unassigned variable). Returns the new domain size.
  int FilterDomain(std::size_t v, std::size_t c) {
    auto& dom = domain[v];
    // Save the domain once per (decision level, var) — conservatively
    // per call; the trail replays in reverse so repeated saves are fine.
    trail.push_back({v, dom, domain_size[v]});
    int size = 0;
    const std::uint32_t off = vars[v];
    for (int value = 0; value < 256; ++value) {
      if (!dom[value]) continue;
      ++steps;
      assignment[off] = static_cast<std::uint8_t>(value);
      if (Eval(constraints[c], assignment) != 0) {
        ++size;
      } else {
        dom[value] = false;
      }
    }
    assignment.erase(off);
    domain_size[v] = size;
    return size;
  }

  /// Unit propagation to fixpoint from the constraints of `seed_vars`.
  /// Returns false on wipe-out or constraint violation.
  bool Propagate(std::deque<std::size_t> queue) {
    while (!queue.empty()) {
      if (steps > max_steps) return true;  // caller re-checks budget
      if (Cancelled()) return true;        // ditto for cancellation
      const std::size_t c = queue.front();
      queue.pop_front();
      if (unassigned_count[c] != 1) continue;
      // Locate the single unassigned variable.
      std::size_t v = 0;
      for (const std::size_t cand : cvars[c]) {
        if (assigned[cand] < 0) {
          v = cand;
          break;
        }
      }
      const int size = FilterDomain(v, c);
      if (size == 0) return false;
      if (size == 1) {
        int value = 0;
        for (int i = 0; i < 256; ++i) {
          if (domain[v][i]) {
            value = i;
            break;
          }
        }
        if (!Assign(v, value)) return false;
        for (const std::size_t c2 : var_constraints[v]) {
          if (unassigned_count[c2] == 1) queue.push_back(c2);
        }
      }
    }
    return true;
  }

  std::deque<std::size_t> InitialUnits() {
    std::deque<std::size_t> queue;
    for (std::size_t c = 0; c < constraints.size(); ++c) {
      if (unassigned_count[c] == 1 && !prefiltered[c]) queue.push_back(c);
    }
    return queue;
  }

  struct Checkpoint {
    std::size_t trail_size;
    std::size_t assign_trail_size;
    std::size_t count_trail_size;
  };

  Checkpoint Mark() const {
    return {trail.size(), assign_trail.size(), count_trail.size()};
  }

  void Rollback(const Checkpoint& cp) {
    while (count_trail.size() > cp.count_trail_size) {
      ++unassigned_count[count_trail.back()];
      count_trail.pop_back();
    }
    while (assign_trail.size() > cp.assign_trail_size) {
      const std::size_t v = assign_trail.back();
      assign_trail.pop_back();
      assignment.erase(vars[v]);
      assigned[v] = -1;
    }
    while (trail.size() > cp.trail_size) {
      TrailEntry& e = trail.back();
      domain[e.var] = e.saved_domain;
      domain_size[e.var] = e.saved_size;
      trail.pop_back();
    }
  }

  Outcome Run() {
    if (!Init()) return Outcome::kUnsat;
    if (!Propagate(InitialUnits())) return Outcome::kUnsat;
    if (cancelled) return Outcome::kCancelled;
    if (steps > max_steps) return Outcome::kBudget;
    return Backtrack();
  }

  Outcome Backtrack() {
    if (Cancelled()) return Outcome::kCancelled;
    if (steps > max_steps) return Outcome::kBudget;
    // Pick the unassigned variable with the smallest domain.
    std::size_t best = vars.size();
    for (std::size_t v = 0; v < vars.size(); ++v) {
      if (assigned[v] >= 0) continue;
      if (best == vars.size() || domain_size[v] < domain_size[best]) {
        best = v;
      }
    }
    if (best == vars.size()) return Outcome::kSat;

    // Value order: hint first, then ascending.
    std::vector<int> values;
    values.reserve(domain_size[best]);
    const auto hint = hints.find(vars[best]);
    if (hint != hints.end() && domain[best][hint->second]) {
      values.push_back(hint->second);
    }
    for (int value = 0; value < 256; ++value) {
      if (!domain[best][value]) continue;
      if (hint != hints.end() && value == hint->second) continue;
      values.push_back(value);
    }

    for (const int value : values) {
      ++steps;
      if (Cancelled()) return Outcome::kCancelled;
      if (steps > max_steps) return Outcome::kBudget;
      const Checkpoint cp = Mark();
      std::deque<std::size_t> queue;
      bool ok = Assign(best, value);
      if (ok) {
        for (const std::size_t c : var_constraints[best]) {
          if (unassigned_count[c] == 1) queue.push_back(c);
        }
        ok = Propagate(std::move(queue));
      }
      if (ok && cancelled) return Outcome::kCancelled;
      if (ok && steps > max_steps) return Outcome::kBudget;
      if (ok) {
        const Outcome sub = Backtrack();
        if (sub != Outcome::kUnsat) return sub;
      }
      Rollback(cp);
    }
    return Outcome::kUnsat;
  }
};

class BacktrackBackend final : public SolverBackend {
 public:
  SolveResult Solve(const std::vector<ExprRef>& constraints,
                    const SolverOptions& options) const override {
    Search search{constraints, options.hints, options.max_steps,
                  options.cancel, options.context};
    const Search::Outcome outcome = search.Run();
    SolveResult result;
    result.steps = search.steps;
    switch (outcome) {
      case Search::Outcome::kSat:
        result.status = SolveStatus::kSat;
        result.model = std::move(search.assignment);
        break;
      case Search::Outcome::kUnsat:
        result.status = SolveStatus::kUnsat;
        break;
      case Search::Outcome::kBudget:
        result.status = SolveStatus::kUnknown;
        break;
      case Search::Outcome::kCancelled:
        result.status = SolveStatus::kCancelled;
        break;
    }
    return result;
  }
};

}  // namespace

}  // namespace octopocs::symex

namespace octopocs::oracle {

const symex::SolverBackend& BacktrackSolver() {
  static const symex::BacktrackBackend backend;
  return backend;
}

}  // namespace octopocs::oracle
