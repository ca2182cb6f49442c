#include "symex/solver.h"

#include <algorithm>

#include "support/fault.h"
#include "symex/solver_backends.h"

namespace octopocs::symex {

namespace {

/// Preprocesses a system of distinct, non-constant constraints and
/// searches it on `core`; defined below, next to its preprocessing.
SolveResult SolveDistinct(std::vector<ExprRef> constraints,
                          const SolverOptions& options,
                          const SolverBackend& core, const SolveContext* ctx);

/// Drops every repeat of a node, keeping first occurrences in order,
/// through a sorted copy of the node addresses rather than a hash set:
/// paths seldom repeat a node, so usually the sort finds no adjacent
/// pair and nothing else runs.
void DropRepeats(std::vector<ExprRef>* constraints) {
  std::vector<const Expr*> sorted;
  sorted.reserve(constraints->size());
  for (const ExprRef& c : *constraints) sorted.push_back(c.get());
  std::sort(sorted.begin(), sorted.end());
  if (std::adjacent_find(sorted.begin(), sorted.end()) == sorted.end()) {
    return;
  }
  sorted.erase(std::unique(sorted.begin(), sorted.end()), sorted.end());
  std::vector<bool> kept(sorted.size(), false);
  std::vector<ExprRef>& cs = *constraints;
  std::size_t n = 0;
  for (std::size_t i = 0; i < cs.size(); ++i) {
    const auto rank = static_cast<std::size_t>(
        std::lower_bound(sorted.begin(), sorted.end(), cs[i].get()) -
        sorted.begin());
    if (kept[rank]) continue;
    kept[rank] = true;
    if (n != i) cs[n] = std::move(cs[i]);
    ++n;
  }
  cs.resize(n);
}

}  // namespace

bool ReuseCertifiedModel(const std::vector<ExprRef>& constraints,
                         const Model& pins, const Model& hints,
                         const std::vector<Model>& pool, Model* out) {
  // Candidates come from the pool newest first, then from no cached
  // model at all, which captures a guiding path the original PoC bytes
  // already satisfy. Per variable the candidate takes pin > cached
  // model > hint, the value a fresh hint-guided search would try first.
  std::uint32_t top = 0;
  std::size_t scratch_size = 0;
  std::vector<const ExprProgram*> programs;
  programs.reserve(constraints.size());
  for (const ExprRef& c : constraints) {
    const auto& fv = FreeVars(c).items();
    if (!fv.empty()) top = std::max(top, fv.back());
    programs.push_back(&ProgramFor(c));
    scratch_size = std::max(scratch_size, programs.back()->steps.size());
  }
  // Per offset: whether the constraints mention it, and where its base
  // value (pin, else hint, else 0) came from.
  enum : std::uint8_t { kUnused, kFree, kHinted, kPinned };
  std::vector<std::uint8_t> source(top + 1, kUnused);
  std::vector<std::uint8_t> base(top + 1, 0);
  std::vector<std::uint32_t> vars;
  for (const ExprRef& c : constraints) {
    for (const std::uint32_t var : FreeVars(c)) {
      if (source[var] != kUnused) continue;
      vars.push_back(var);
      source[var] = kFree;
      if (const auto pin = pins.find(var); pin != pins.end()) {
        source[var] = kPinned;
        base[var] = pin->second;
      } else if (const auto hint = hints.find(var); hint != hints.end()) {
        source[var] = kHinted;
        base[var] = hint->second;
      }
    }
  }
  std::vector<std::uint8_t> vals(top + 1, 0);
  std::vector<std::uint64_t> scratch(scratch_size);
  for (std::size_t i = pool.size() + 1; i-- > 0;) {
    const Model* reuse = i == 0 ? nullptr : &pool[i - 1];
    for (const std::uint32_t var : vars) vals[var] = base[var];
    if (reuse != nullptr) {
      for (const auto& [var, value] : *reuse) {
        if (var <= top && source[var] != kUnused && source[var] != kPinned) {
          vals[var] = value;
        }
      }
    }
    bool satisfied = true;
    for (const ExprProgram* program : programs) {
      if (RunProgram(*program, vals.data(), scratch.data()) == 0) {
        satisfied = false;
        break;
      }
    }
    if (!satisfied) continue;
    out->clear();
    for (const std::uint32_t var : vars) {
      if (source[var] != kFree || (reuse != nullptr && reuse->count(var))) {
        out->emplace(var, vals[var]);
      }
    }
    return true;
  }
  return false;
}

SolveResult SolverCache::Solve(const std::vector<ExprRef>& raw,
                               const Model& pins,
                               const SolverOptions& options,
                               SolveContext& ctx) {
  // Normalize: constant-true constraints vanish, constant-false poisons
  // the system, duplicate nodes collapse under pointer identity.
  SolveResult out;
  std::vector<ExprRef> constraints;
  constraints.reserve(raw.size());
  for (const ExprRef& c : raw) {
    if (c->IsConst()) {
      if (c->value == 0) {
        out.status = SolveStatus::kUnsat;
        return out;  // trivial; not worth a counter
      }
      continue;
    }
    constraints.push_back(c);
  }
  DropRepeats(&constraints);
  if (constraints.empty()) {
    out.status = SolveStatus::kSat;
    return out;  // vacuously satisfiable; not a counted query
  }

  // The oracle's path: no shortcut, no seeding, the configured core alone.
  if (options.backend != nullptr) {
    support::fault::MaybeThrow(support::FaultSite::kSolverStep);
    ++stats_.misses;
    return SolveDistinct(std::move(constraints), options, *options.backend,
                         nullptr);
  }

  // 1. Branch wipeout. A branch query is the state's path plus one new
  // constraint; when that constraint is unary and empties its
  // variable's context domain, the fresh search would stop in its
  // unary prefilter with zero steps. Answer as it would — a miss —
  // without building it.
  if (ctx.Refutes(constraints.back())) {
    support::fault::MaybeThrow(support::FaultSite::kSolverStep);
    ++stats_.misses;
    out.status = SolveStatus::kUnsat;
    return out;
  }

  // 2. Certified model reuse from the state's own pool. Steps report
  // the work done by *this* call, so a hit contributes zero to the
  // caller's search-effort accounting.
  if (ReuseCertifiedModel(constraints, pins, options.hints,
                          ctx.recent_models(), &out.model)) {
    ++stats_.hits;
    out.status = SolveStatus::kSat;
    ctx.NoteModel(out.model);
    return out;
  }

  // 3. Fresh search on the propagate core, seeded from the context.
  support::fault::MaybeThrow(support::FaultSite::kSolverStep);
  out = SolveDistinct(std::move(constraints), options,
                      PropagateBackendInstance(), &ctx);
  ++stats_.misses;
  if (out.status == SolveStatus::kSat) ctx.NoteModel(out.model);
  return out;
}

namespace {

SolveResult SolveDistinct(std::vector<ExprRef> constraints,
                          const SolverOptions& options,
                          const SolverBackend& core, const SolveContext* ctx) {
  // Propagation pre-pass: append each concat equality's byte pins (read
  // from the node, ConcatPins) so unit propagation starts from singleton
  // domains for multi-byte fields. Runs before backend dispatch, so
  // every core sees the same preprocessed system — a prerequisite for
  // answer identity.
  std::vector<ExprRef> derived;
  bool impossible = false;
  for (const ExprRef& e : constraints) {
    ForEachConcatPin(e, [&](const ExprRef& pin) {
      if (pin->IsConst()) impossible = true;  // only ever constant false
      derived.push_back(pin);
    });
  }
  if (impossible) {
    SolveResult result;
    result.status = SolveStatus::kUnsat;
    return result;
  }
  constraints.insert(constraints.end(), derived.begin(), derived.end());
  return core.Solve(constraints, options, ctx);
}

}  // namespace

}  // namespace octopocs::symex
