#include "symex/solver.h"

#include <algorithm>
#include <map>
#include <unordered_map>
#include <unordered_set>

#include "support/fault.h"
#include "symex/solver_backends.h"

namespace octopocs::symex {

namespace {

/// Preprocesses a system of distinct, non-constant constraints and
/// searches it on `core`; defined below, next to its preprocessing.
SolveResult SolveDistinct(std::vector<ExprRef> constraints,
                          const SolverOptions& options,
                          const SolverBackend& core, const SolveContext* ctx);

}  // namespace

std::uint64_t SolverCache::HashKey(const std::vector<ExprRef>& constraints) {
  std::uint64_t h = 0xcbf29ce484222325ull;  // FNV-1a over node addresses
  for (const ExprRef& c : constraints) {
    h ^= reinterpret_cast<std::uintptr_t>(c.get());
    h *= 0x100000001b3ull;
  }
  return h;
}

bool SolverCache::KeyEquals(const std::vector<const Expr*>& key,
                            const std::vector<ExprRef>& constraints) {
  if (key.size() != constraints.size()) return false;
  for (std::size_t i = 0; i < key.size(); ++i) {
    if (key[i] != constraints[i].get()) return false;
  }
  return true;
}

const SolverCache::Entry* SolverCache::FindExact(
    const std::vector<ExprRef>& constraints) const {
  const auto it = buckets_.find(HashKey(constraints));
  if (it == buckets_.end()) return nullptr;
  for (const Entry& entry : it->second) {
    if (KeyEquals(entry.key, constraints)) return &entry;
  }
  return nullptr;
}

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

void SolverCache::StoreEntry(const std::vector<ExprRef>& constraints,
                             const SolveResult& result) {
  Entry entry;
  entry.key.reserve(constraints.size());
  for (const ExprRef& c : constraints) entry.key.push_back(c.get());
  entry.result = result;
  buckets_[HashKey(constraints)].push_back(std::move(entry));
  ++entries_;
}

SolveResult SolverCache::Solve(const std::vector<ExprRef>& raw,
                               const Model& pins,
                               const SolverOptions& options,
                               SolveContext& ctx) {
  // Normalize: constant-true constraints vanish, constant-false poisons
  // the system, duplicate nodes collapse under pointer identity. The
  // normalized sequence is the cache key, so a re-asserted pin cannot
  // split the memo.
  SolveResult out;
  std::vector<ExprRef> constraints;
  constraints.reserve(raw.size());
  {
    std::unordered_set<const Expr*> seen;
    for (const ExprRef& c : raw) {
      if (c->IsConst()) {
        if (c->value == 0) {
          out.status = SolveStatus::kUnsat;
          return out;  // trivial; not worth a cache entry or a counter
        }
        continue;
      }
      if (seen.insert(c.get()).second) constraints.push_back(c);
    }
  }
  if (constraints.empty()) {
    out.status = SolveStatus::kSat;
    return out;  // vacuously satisfiable; not a cacheable query
  }

  // The oracle's path: no tier, no seeding, the configured core alone.
  if (options.backend != nullptr) {
    support::fault::MaybeThrow(support::FaultSite::kSolverStep);
    ++stats_.misses;
    return SolveDistinct(std::move(constraints), options, *options.backend,
                         nullptr);
  }

  // 1. Exact memo. Steps report the work done by *this* call, so a hit
  // contributes zero to the caller's search-effort accounting.
  if (const Entry* entry = FindExact(constraints)) {
    ++stats_.hits;
    ++stats_.exact_hits;
    out = entry->result;
    out.steps = 0;
    if (out.status == SolveStatus::kSat) ctx.NoteModel(out.model);
    return out;
  }

  // 2. Subsumption. The context's wiped-out domain is an UNSAT unary
  // subset of this very query (every applied constraint is a query
  // member by the executor's contract). Verdict-only — no model, no
  // search.
  if (ctx.known_unsat()) {
    ++stats_.hits;
    ++stats_.subsumption_hits;
    out.status = SolveStatus::kUnsat;
    return out;
  }

  // 3. Certified model reuse from the state's own pool.
  if (ReuseCertifiedModel(constraints, pins, options.hints,
                          ctx.recent_models(), &out.model)) {
    ++stats_.hits;
    ++stats_.model_reuse_hits;
    out.status = SolveStatus::kSat;
    ctx.NoteModel(out.model);
    return out;
  }

  // 4. Fresh search on the propagate core, seeded from the context.
  support::fault::MaybeThrow(support::FaultSite::kSolverStep);
  out = SolveDistinct(constraints, options, PropagateBackendInstance(), &ctx);
  ++stats_.misses;

  if (out.status == SolveStatus::kSat || out.status == SolveStatus::kUnsat) {
    StoreEntry(constraints, out);
    if (out.status == SolveStatus::kSat) ctx.NoteModel(out.model);
  }
  return out;
}

namespace {

/// Tries to read `expr` as a little-endian byte concatenation — the
/// shape LoadWide builds: or(or(b0, shl(b1,8)), shl(b2,16))... Returns
/// lane→input-offset on success. This powers the key propagation rule:
/// an equality between a concatenation and a constant decomposes into
/// per-byte pins, which turns the dominant "magic/field == K" constraint
/// from a 256^n search into unit propagation.
bool AsByteConcat(const ExprRef& expr, unsigned shift,
                  std::map<unsigned, std::uint32_t>* lanes) {
  switch (expr->kind) {
    case ExprKind::kInput: {
      if (shift % 8 != 0) return false;
      const unsigned lane = shift / 8;
      if (lanes->count(lane) != 0) return false;
      (*lanes)[lane] = expr->offset;
      return true;
    }
    case ExprKind::kBinOp:
      if (expr->op == vm::Op::kOr) {
        return AsByteConcat(expr->lhs, shift, lanes) &&
               AsByteConcat(expr->rhs, shift, lanes);
      }
      if (expr->op == vm::Op::kShl && expr->rhs->IsConst()) {
        return AsByteConcat(expr->lhs,
                            shift + static_cast<unsigned>(expr->rhs->value),
                            lanes);
      }
      return false;
    default:
      return false;
  }
}

/// If `constraint` is CmpEq(concat, K), appends the per-byte equalities
/// to `out` (or a constant-false when K has bits outside the lanes).
/// Returns true when a decomposition happened.
bool DecomposeConcatEquality(const ExprRef& constraint,
                             std::vector<ExprRef>* out) {
  if (constraint->kind != ExprKind::kBinOp ||
      constraint->op != vm::Op::kCmpEq) {
    return false;
  }
  ExprRef concat, konst;
  if (constraint->rhs->IsConst()) {
    concat = constraint->lhs;
    konst = constraint->rhs;
  } else if (constraint->lhs->IsConst()) {
    concat = constraint->rhs;
    konst = constraint->lhs;
  } else {
    return false;
  }
  std::map<unsigned, std::uint32_t> lanes;
  if (!AsByteConcat(concat, 0, &lanes) || lanes.empty()) return false;
  std::uint64_t covered = 0;
  SortedSmallSet<std::uint32_t> seen;
  for (const auto& [lane, offset] : lanes) {
    if (lane >= 8 || seen.Contains(offset)) return false;
    seen.Insert(offset);
    covered |= 0xFFull << (8 * lane);
  }
  if ((konst->value & ~covered) != 0) {
    out->push_back(MakeConst(0));  // impossible: bits outside any lane
    return true;
  }
  for (const auto& [lane, offset] : lanes) {
    out->push_back(MakeBinOp(
        vm::Op::kCmpEq, MakeInput(offset),
        MakeConst((konst->value >> (8 * lane)) & 0xFF)));
  }
  return true;
}

SolveResult SolveDistinct(std::vector<ExprRef> constraints,
                          const SolverOptions& options,
                          const SolverBackend& core, const SolveContext* ctx) {
  // Propagation pre-pass: decompose concat equalities into byte pins so
  // unit propagation starts from singleton domains for multi-byte
  // fields. Runs before backend dispatch, so every core sees the same
  // preprocessed system — a prerequisite for answer identity.
  std::vector<ExprRef> derived;
  for (const ExprRef& e : constraints) DecomposeConcatEquality(e, &derived);
  for (const ExprRef& e : derived) {
    if (e->IsConst() && e->value == 0) {
      SolveResult result;
      result.status = SolveStatus::kUnsat;
      return result;
    }
  }
  constraints.insert(constraints.end(), derived.begin(), derived.end());
  return core.Solve(constraints, options, ctx);
}

}  // namespace

}  // namespace octopocs::symex
