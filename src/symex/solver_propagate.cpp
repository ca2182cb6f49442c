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
//   the path layer         the query's variable table and
//                          per-constraint variable lists come from the
//                          state's SolveContext (SolveContext::Index),
//                          which keeps them as the path grows, so a
//                          search copies them instead of deriving them;
//   batched unary filter   the prefilter folds a unary constraint with
//                          one pass of its program over all 256 values
//                          of the byte (UnaryDomain);
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
  PropagateSearch(const QueryIndex& index_in, const SolverOptions& options,
                  const SolveContext* ctx_in)
      : index(index_in),
        hints(options.hints),
        max_steps(options.max_steps),
        cancel(options.cancel),
        ctx(ctx_in) {}

  const QueryIndex& index;
  const Model& hints;
  std::uint64_t max_steps;
  support::CancelToken cancel;  // local copy; poll counters are ours
  const SolveContext* ctx;      // seeds the prefilter when non-null
  std::uint64_t steps = 0;
  bool cancelled = false;

  bool Cancelled() {
    if (!cancelled && cancel.ShouldStop()) cancelled = true;
    return cancelled;
  }

  /// Variables are the query's dense ids, in ascending offset order
  /// like the oracle's (QueryIndex::var_offset).
  std::size_t num_vars = 0;
  std::size_t num_constraints = 0;
  std::vector<std::size_t> unassigned_count;
  std::vector<std::uint64_t> scratch;  // sized to the largest program

  std::vector<ByteDomain> domain;
  std::vector<int> domain_size;
  std::vector<int> assigned;        // -1 = unassigned, else the value
  /// Branching key per variable: (domain size, dense index) packed so
  /// the smallest key is the oracle's choice; kAssigned once assigned.
  std::vector<std::uint64_t> key;
  static constexpr std::uint64_t kAssigned = ~std::uint64_t{0};
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

  std::uint32_t Offset(std::size_t v) const { return index.var_offset[v]; }

  void Rekey(std::size_t v) {
    key[v] = (std::uint64_t(domain_size[v]) << 32) | v;
  }

  std::size_t Arity(std::size_t c) const {
    return index.cvar_begin[c + 1] - index.cvar_begin[c];
  }

  /// Calls f(c) for each constraint mentioning variable `v`, ascending.
  template <typename F>
  void ForEachConstraintOf(std::size_t v, F&& f) const {
    for (std::uint32_t k = index.vcon_begin[v]; k < index.vcon_begin[v + 1];
         ++k) {
      if (!f(static_cast<std::size_t>(index.vcons[k]))) return;
    }
  }

  bool Holds(std::size_t c) {
    return RunProgram(*index.programs[c], vals.data(), scratch.data()) != 0;
  }

  bool Init() {
    num_vars = index.var_offset.size();
    num_constraints = index.programs.size();
    unassigned_count.resize(num_constraints);
    prefiltered.assign(num_constraints, false);
    std::size_t max_steps_in_program = 0;
    for (std::size_t c = 0; c < num_constraints; ++c) {
      unassigned_count[c] = Arity(c);
      prefiltered[c] = Arity(c) == 1;
      max_steps_in_program =
          std::max(max_steps_in_program, index.programs[c]->steps.size());
    }
    scratch.resize(max_steps_in_program);
    domain.assign(num_vars, ByteDomain{});
    domain_size.assign(num_vars, 256);
    assigned.assign(num_vars, -1);
    vals.assign(index.top, 0);

    // Unary prefilter, mirroring the oracle: fold every single-variable
    // constraint into the initial domain. Seeded, a variable starts from
    // the SolveContext's domain, which already holds every path
    // constraint and path pin on it, so only the branch and its pins
    // are filtered here, each in one 256-lane pass.
    for (std::size_t v = 0; v < num_vars; ++v) {
      bool any_unary = false;
      ForEachConstraintOf(v, [&](std::size_t c) {
        any_unary = Arity(c) == 1;
        return !any_unary;
      });
      if (!any_unary) continue;
      ByteDomain& dom = domain[v];
      const SolveContext::VarEntry* seed =
          ctx != nullptr ? ctx->Find(Offset(v)) : nullptr;
      if (seed != nullptr) dom = seed->domain;
      ForEachConstraintOf(v, [&](std::size_t c) {
        if (Arity(c) != 1) return true;
        if (seed != nullptr && index.Folded(static_cast<std::uint32_t>(c))) {
          return true;  // already folded into the seeded domain
        }
        dom = UnaryDomain(*index.programs[c], Offset(v), dom);
        return true;
      });
      domain_size[v] = dom.Count();
      if (domain_size[v] == 0) return false;
    }
    key.resize(num_vars);
    for (std::size_t v = 0; v < num_vars; ++v) Rekey(v);
    return true;
  }

  bool Assign(std::size_t v, int value) {
    assigned[v] = value;
    key[v] = kAssigned;
    vals[Offset(v)] = static_cast<std::uint8_t>(value);
    assign_trail.push_back(v);
    bool ok = true;
    ForEachConstraintOf(v, [&](std::size_t c) {
      --unassigned_count[c];
      count_trail.push_back(c);
      if (unassigned_count[c] == 0) {
        ++steps;
        ok = Holds(c);
      }
      return ok;
    });
    return ok;
  }

  int FilterDomain(std::size_t v, std::size_t c) {
    ByteDomain& dom = domain[v];
    trail.push_back({v, dom, domain_size[v]});
    std::uint8_t& cell = vals[Offset(v)];
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
    Rekey(v);
    return size;
  }

  /// Queues the constraints of `v` that are down to one unassigned
  /// variable.
  void QueueUnitsOf(std::size_t v) {
    ForEachConstraintOf(v, [&](std::size_t c) {
      if (unassigned_count[c] == 1) queue.push_back(c);
      return true;
    });
  }

  /// Unit propagation to fixpoint over `queue`, which the caller filled.
  bool Propagate() {
    for (std::size_t head = 0; head < queue.size(); ++head) {
      if (steps > max_steps) return true;  // caller re-checks budget
      if (Cancelled()) return true;        // ditto for cancellation
      const std::size_t c = queue[head];
      if (unassigned_count[c] != 1) continue;
      std::size_t v = 0;
      for (std::uint32_t k = index.cvar_begin[c]; k < index.cvar_begin[c + 1];
           ++k) {
        if (assigned[index.cvars[k]] < 0) {
          v = index.cvars[k];
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
      vals[Offset(v)] = 0;
      assigned[v] = -1;
      Rekey(v);
    }
    while (trail.size() > cp.trail_size) {
      TrailEntry& e = trail.back();
      domain[e.var] = e.saved_domain;
      domain_size[e.var] = e.saved_size;
      if (assigned[e.var] < 0) Rekey(e.var);
      trail.pop_back();
    }
  }

  Outcome Run() {
    if (!Init()) return Outcome::kUnsat;
    for (std::size_t c = 0; c < num_constraints; ++c) {
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
    // dense index on ties — the smallest key.
    std::uint64_t smallest = kAssigned;
    for (const std::uint64_t k : key) smallest = std::min(smallest, k);
    if (smallest == kAssigned) return Outcome::kSat;
    const auto best = static_cast<std::size_t>(smallest & 0xFFFFFFFFu);

    // Identical value order: hint first, then ascending. The values come
    // from a snapshot of the domain, which is what it was when this node
    // opened: deeper nodes never filter an assigned variable.
    const ByteDomain values = domain[best];
    const auto found = hints.find(Offset(best));
    const int hint = found != hints.end() ? found->second : -1;
    const bool hinted = hint >= 0 && values.Test(static_cast<unsigned>(hint));
    if (hinted) {
      const Outcome outcome = TryValue(best, hint);
      if (outcome != Outcome::kUnsat) return outcome;
    }
    for (int w = 0; w < 4; ++w) {
      std::uint64_t bits = values.bits[w];
      while (bits != 0) {
        const int value = w * 64 + __builtin_ctzll(bits);
        bits &= bits - 1;
        if (hinted && value == hint) continue;
        const Outcome outcome = TryValue(best, value);
        if (outcome != Outcome::kUnsat) return outcome;
      }
    }
    return Outcome::kUnsat;
  }

  /// Assigns `value` to `best` and searches below it. kUnsat means the
  /// value failed and everything it changed is rolled back.
  Outcome TryValue(std::size_t best, int value) {
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
    return Outcome::kUnsat;
  }

  Model TakeModel() const {
    Model model;
    for (std::size_t v = 0; v < num_vars; ++v) {
      model.emplace_hint(model.end(), Offset(v),
                         static_cast<std::uint8_t>(assigned[v]));
    }
    return model;
  }
};

class PropagateBackend final : public SolverBackend {
 public:
  SolveResult Solve(const SolveContext& path, const ExprRef& branch,
                    const SolverOptions& options,
                    bool seeded) const override {
    thread_local QueryIndex index;
    path.Index(branch, &index);
    PropagateSearch search(index, options, seeded ? &path : nullptr);
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
