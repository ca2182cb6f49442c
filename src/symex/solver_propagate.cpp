// The propagation-first search core (DESIGN.md §15).
//
// Same decision procedure as the backtrack oracle
// (tests/oracle/solver_backtrack.cpp) — identical variable
// order (smallest filtered domain, lowest dense index on ties),
// identical value order (PoC-byte hint first, then ascending), identical
// filtering strength (unit constraints only) — so both cores return the
// same first model and the same kUnsat verdicts on every input, with the
// same step counts. The speed comes from mechanics, not search-order
// cleverness:
//
//   node programs          each constraint evaluates through the
//                          straight-line program attached to its
//                          interned node (ProgramFor), compiled once per
//                          node rather than once per query, over a dense
//                          offset-indexed byte array — no recursive
//                          shared_ptr walk, no std::map lookups;
//   cached variable sets   the per-constraint variable lists come from
//                          the node-cached FreeVars;
//   ByteDomain masks       domains are 256-bit masks (4 words), so the
//                          backtracking trail copies 32 bytes instead
//                          of a 256-entry bool array, and value
//                          iteration is count-trailing-zeros;
//   watched counters       constraints watch their unassigned-variable
//                          count; an assignment enqueues only the
//                          constraints of that variable, and a
//                          constraint filters only when it drops to a
//                          single watched variable.
#include <algorithm>
#include <cstdint>
#include <vector>

#include "symex/solver_backends.h"

namespace octopocs::symex {

namespace {

/// Ascending set-value iteration over a 256-bit domain mask.
template <typename F>
void ForEachValue(const ByteDomain& d, F&& f) {
  for (int w = 0; w < 4; ++w) {
    std::uint64_t bits = d.bits[w];
    while (bits != 0) {
      const int b = __builtin_ctzll(bits);
      bits &= bits - 1;
      f(w * 64 + b);
    }
  }
}

struct PropagateSearch {
  PropagateSearch(const std::vector<ExprRef>& constraints_in,
                  const SolverOptions& options)
      : constraints(constraints_in),
        hints(options.hints),
        max_steps(options.max_steps),
        cancel(options.cancel),
        ctx(options.context) {}

  const std::vector<ExprRef>& constraints;
  const Model& hints;
  std::uint64_t max_steps;
  support::CancelToken cancel;  // local copy; poll counters are ours
  const SolveContext* ctx;
  std::uint64_t steps = 0;
  bool cancelled = false;

  bool Cancelled() {
    if (!cancelled && cancel.ShouldStop()) cancelled = true;
    return cancelled;
  }

  std::vector<std::uint32_t> vars;  // dense index → offset, ascending
  std::vector<std::vector<std::size_t>> var_constraints;
  std::vector<std::vector<std::size_t>> cvars;
  std::vector<std::size_t> unassigned_count;
  std::vector<const ExprProgram*> programs;
  std::vector<std::uint64_t> scratch;  // sized to the largest program

  std::vector<ByteDomain> domain;
  std::vector<int> domain_size;
  std::vector<int> assigned;        // -1 = unassigned, else the value
  std::vector<std::uint8_t> vals;   // by input offset; unassigned read 0
  std::vector<bool> prefiltered;

  struct TrailEntry {
    std::size_t var;
    ByteDomain saved_domain;
    int saved_size;
  };
  std::vector<TrailEntry> trail;
  std::vector<std::size_t> assign_trail;
  std::vector<std::size_t> count_trail;
  /// FIFO of constraints to filter, reused across Propagate calls.
  std::vector<std::size_t> queue;

  enum class Outcome { kSat, kUnsat, kBudget, kCancelled };

  bool Holds(std::size_t c) {
    return RunProgram(*programs[c], vals.data(), scratch.data()) != 0;
  }

  bool Init() {
    // Dense variable indices in ascending offset order, the oracle's
    // numbering; `index` maps offset → dense index for this query.
    std::uint32_t top = 0;
    for (const ExprRef& c : constraints) {
      const auto& fv = FreeVars(c).items();
      if (!fv.empty()) top = std::max(top, fv.back());
    }
    constexpr std::uint32_t kAbsent = ~0u;
    std::vector<std::uint32_t> index(top + 1, kAbsent);
    for (const ExprRef& c : constraints) {
      for (const std::uint32_t off : FreeVars(c)) {
        if (index[off] == kAbsent) {
          index[off] = 0;
          vars.push_back(off);
        }
      }
    }
    std::sort(vars.begin(), vars.end());
    for (std::size_t i = 0; i < vars.size(); ++i) {
      index[vars[i]] = static_cast<std::uint32_t>(i);
    }
    var_constraints.resize(vars.size());
    cvars.resize(constraints.size());
    unassigned_count.resize(constraints.size());
    programs.resize(constraints.size());
    std::size_t max_steps_in_program = 0;
    for (std::size_t c = 0; c < constraints.size(); ++c) {
      for (const std::uint32_t off : FreeVars(constraints[c])) {
        const std::size_t v = index[off];
        cvars[c].push_back(v);
        var_constraints[v].push_back(c);
      }
      unassigned_count[c] = cvars[c].size();
      programs[c] = &ProgramFor(constraints[c]);
      max_steps_in_program =
          std::max(max_steps_in_program, programs[c]->steps.size());
    }
    scratch.resize(max_steps_in_program);
    domain.assign(vars.size(), ByteDomain{});
    domain_size.assign(vars.size(), 256);
    assigned.assign(vars.size(), -1);
    vals.assign(top + 1, 0);

    // Unary prefilter, mirroring the oracle: fold every single-variable
    // constraint into the initial domain, seeding from the SolveContext
    // when it already applied some of them. The context stores
    // ByteDomain directly, so seeding is a mask copy here.
    prefiltered.assign(constraints.size(), false);
    for (std::size_t v = 0; v < vars.size(); ++v) {
      bool any_unary = false;
      for (const std::size_t c : var_constraints[v]) {
        if (cvars[c].size() == 1) {
          any_unary = true;
          break;
        }
      }
      if (!any_unary) continue;
      ByteDomain& dom = domain[v];
      const SolveContext::VarEntry* seed =
          ctx != nullptr ? ctx->Find(vars[v]) : nullptr;
      if (seed != nullptr) {
        dom = seed->domain;
        domain_size[v] = dom.Count();
      }
      std::uint8_t& cell = vals[vars[v]];
      for (const std::size_t c : var_constraints[v]) {
        if (cvars[c].size() != 1) continue;
        prefiltered[c] = true;
        if (seed != nullptr &&
            std::binary_search(seed->applied.begin(), seed->applied.end(),
                               constraints[c].get())) {
          continue;  // already folded into the seeded domain
        }
        int size = 0;
        ForEachValue(dom, [&](int value) {
          cell = static_cast<std::uint8_t>(value);
          if (Holds(c)) {
            ++size;
          } else {
            dom.Reset(static_cast<unsigned>(value));
          }
        });
        cell = 0;
        domain_size[v] = size;
      }
      if (domain_size[v] == 0) return false;
    }
    return true;
  }

  bool Assign(std::size_t v, int value) {
    assigned[v] = value;
    vals[vars[v]] = static_cast<std::uint8_t>(value);
    assign_trail.push_back(v);
    for (const std::size_t c : var_constraints[v]) {
      --unassigned_count[c];
      count_trail.push_back(c);
      if (unassigned_count[c] == 0) {
        ++steps;
        if (!Holds(c)) return false;
      }
    }
    return true;
  }

  int FilterDomain(std::size_t v, std::size_t c) {
    ByteDomain& dom = domain[v];
    trail.push_back({v, dom, domain_size[v]});
    std::uint8_t& cell = vals[vars[v]];
    int size = 0;
    ForEachValue(dom, [&](int value) {
      ++steps;
      cell = static_cast<std::uint8_t>(value);
      if (Holds(c)) {
        ++size;
      } else {
        dom.Reset(static_cast<unsigned>(value));
      }
    });
    cell = 0;
    domain_size[v] = size;
    return size;
  }

  /// Queues the constraints of `v` that are down to one unassigned
  /// variable.
  void QueueUnitsOf(std::size_t v) {
    for (const std::size_t c : var_constraints[v]) {
      if (unassigned_count[c] == 1) queue.push_back(c);
    }
  }

  /// Unit propagation to fixpoint over `queue`, which the caller filled.
  bool Propagate() {
    for (std::size_t head = 0; head < queue.size(); ++head) {
      if (steps > max_steps) return true;  // caller re-checks budget
      if (Cancelled()) return true;        // ditto for cancellation
      const std::size_t c = queue[head];
      if (unassigned_count[c] != 1) continue;
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
        for (int w = 0; w < 4; ++w) {
          if (domain[v].bits[w] != 0) {
            value = w * 64 + __builtin_ctzll(domain[v].bits[w]);
            break;
          }
        }
        if (!Assign(v, value)) return false;
        QueueUnitsOf(v);
      }
    }
    return true;
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
      vals[vars[v]] = 0;
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
    for (std::size_t c = 0; c < constraints.size(); ++c) {
      if (unassigned_count[c] == 1 && !prefiltered[c]) queue.push_back(c);
    }
    if (!Propagate()) return Outcome::kUnsat;
    if (cancelled) return Outcome::kCancelled;
    if (steps > max_steps) return Outcome::kBudget;
    return Branch();
  }

  Outcome Branch() {
    if (Cancelled()) return Outcome::kCancelled;
    if (steps > max_steps) return Outcome::kBudget;
    // Identical branching rule to the oracle: smallest domain, lowest
    // dense index on ties.
    std::size_t best = vars.size();
    for (std::size_t v = 0; v < vars.size(); ++v) {
      if (assigned[v] >= 0) continue;
      if (best == vars.size() || domain_size[v] < domain_size[best]) {
        best = v;
      }
    }
    if (best == vars.size()) return Outcome::kSat;

    // Identical value order: hint first, then ascending.
    std::vector<int> values;
    values.reserve(domain_size[best]);
    const auto hint = hints.find(vars[best]);
    if (hint != hints.end() &&
        domain[best].Test(static_cast<unsigned>(hint->second))) {
      values.push_back(hint->second);
    }
    ForEachValue(domain[best], [&](int value) {
      if (hint != hints.end() && value == hint->second) return;
      values.push_back(value);
    });

    for (const int value : values) {
      ++steps;
      if (Cancelled()) return Outcome::kCancelled;
      if (steps > max_steps) return Outcome::kBudget;
      const Checkpoint cp = Mark();
      queue.clear();
      bool ok = Assign(best, value);
      if (ok) {
        QueueUnitsOf(best);
        ok = Propagate();
      }
      if (ok && cancelled) return Outcome::kCancelled;
      if (ok && steps > max_steps) return Outcome::kBudget;
      if (ok) {
        const Outcome sub = Branch();
        if (sub != Outcome::kUnsat) return sub;
      }
      Rollback(cp);
    }
    return Outcome::kUnsat;
  }

  Model TakeModel() const {
    Model model;
    for (std::size_t v = 0; v < vars.size(); ++v) {
      model.emplace_hint(model.end(), vars[v],
                         static_cast<std::uint8_t>(assigned[v]));
    }
    return model;
  }
};

class PropagateBackend final : public SolverBackend {
 public:
  SolveResult Solve(const std::vector<ExprRef>& constraints,
                    const SolverOptions& options) const override {
    PropagateSearch search(constraints, options);
    const PropagateSearch::Outcome outcome = search.Run();
    SolveResult result;
    result.steps = search.steps;
    switch (outcome) {
      case PropagateSearch::Outcome::kSat:
        result.status = SolveStatus::kSat;
        result.model = search.TakeModel();
        break;
      case PropagateSearch::Outcome::kUnsat:
        result.status = SolveStatus::kUnsat;
        break;
      case PropagateSearch::Outcome::kBudget:
        result.status = SolveStatus::kUnknown;
        break;
      case PropagateSearch::Outcome::kCancelled:
        result.status = SolveStatus::kCancelled;
        break;
    }
    return result;
  }
};

}  // namespace

const SolverBackend& PropagateBackendInstance() {
  static const PropagateBackend backend;
  return backend;
}

}  // namespace octopocs::symex
