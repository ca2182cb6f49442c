// Solver memoization through the front door, SolverCache::Solve: a
// cached verdict must always equal what a fresh search with every
// shortcut off would return. Exact-key hits may return any verdict;
// model-reuse hits must be certificates (the returned model satisfies
// every constraint) drawn from the querying state's own pool and can
// never manufacture a kUnsat. Also covers context-wipeout subsumption,
// the branch wipeout, solve-context seeding (derived pins included),
// and the oracle bypass (SolverOptions::backend).
#include <gtest/gtest.h>

#include <cstdint>
#include <random>
#include <vector>

#include "oracle/oracle.h"
#include "solve_once.h"
#include "symex/expr.h"
#include "symex/solver_backends.h"

namespace octopocs::symex {
namespace {

ExprRef In(std::uint32_t off) { return MakeInput(off); }

ExprRef InputEq(std::uint32_t off, std::uint64_t val) {
  return MakeBinOp(vm::Op::kCmpEq, MakeInput(off), MakeConst(val));
}

/// The reference answer: no cache tier, no seeding, the backtrack
/// oracle's search.
SolveResult FreshSolve(const std::vector<ExprRef>& constraints,
                       SolverOptions options = {}) {
  options.backend = &oracle::BacktrackSolver();
  return SolveOnce(constraints, options);
}

SolverOptions Hinted(Model hints) {
  SolverOptions options;
  options.hints = std::move(hints);
  return options;
}

// Byte-level model equality. A model maps only the offsets the producer
// assigned explicitly; absent offsets default to 0 everywhere a model is
// consumed (Eval, poc' emission), so two models are the same *assignment*
// when every constrained variable gets the same effective value — a
// certified-reuse model that omits zero bytes is byte-identical to a
// search model that spells them out.
testing::AssertionResult SameAssignment(const std::vector<ExprRef>& cs,
                                        const Model& a, const Model& b) {
  SortedSmallSet<std::uint32_t> vars;
  for (const ExprRef& c : cs) vars.UnionWith(FreeVars(c));
  for (const std::uint32_t v : vars) {
    const auto ai = a.find(v);
    const auto bi = b.find(v);
    const std::uint8_t av = ai == a.end() ? 0 : ai->second;
    const std::uint8_t bv = bi == b.end() ? 0 : bi->second;
    if (av != bv) {
      return testing::AssertionFailure()
             << "byte " << v << ": " << int(av) << " vs " << int(bv);
    }
  }
  return testing::AssertionSuccess();
}

bool Satisfies(const std::vector<ExprRef>& cs, const Model& model) {
  for (const ExprRef& c : cs) {
    if (Eval(c, model) == 0) return false;
  }
  return true;
}

TEST(SolverCacheTest, ExactKeyHitReturnsTheInsertedVerdict) {
  InternScope intern;
  SolverCache cache;
  SolveContext ctx;
  const std::vector<ExprRef> constraints = {InputEq(0, 65), InputEq(1, 66)};

  const SolveResult fresh = cache.Solve(constraints, {}, {}, ctx);
  ASSERT_EQ(fresh.status, SolveStatus::kSat);
  EXPECT_EQ(cache.stats().misses, 1u);

  const SolveResult hit = cache.Solve(constraints, {}, {}, ctx);
  EXPECT_EQ(cache.stats().exact_hits, 1u);
  EXPECT_EQ(hit.status, fresh.status);
  EXPECT_EQ(hit.model, fresh.model);
  EXPECT_EQ(hit.steps, 0u) << "cache hits must report zero steps";
}

TEST(SolverCacheTest, ExactKeyHitMayReturnUnsat) {
  InternScope intern;
  SolverCache cache;
  // in[0] == 1 && in[0] == 2 is unsatisfiable. The context applies
  // nothing, so no wipeout answers ahead of the memo.
  SolveContext ctx;
  const std::vector<ExprRef> constraints = {InputEq(0, 1), InputEq(0, 2)};
  ASSERT_EQ(cache.Solve(constraints, {}, {}, ctx).status,
            SolveStatus::kUnsat);
  EXPECT_EQ(cache.Solve(constraints, {}, {}, ctx).status,
            SolveStatus::kUnsat)
      << "an exact sequence match is provably the same query";
  EXPECT_EQ(cache.stats().exact_hits, 1u);
}

TEST(SolverCacheTest, RepeatedNodesCollapseToTheirFirstOccurrences) {
  // A repeated node counts once, where it first appears: the memo key
  // of {a, a, b, a} is {a, b}, and the search never sees a repeat.
  InternScope intern;
  const ExprRef a = MakeBinOp(vm::Op::kCmpLeU, In(0), In(1));
  const ExprRef b = MakeBinOp(vm::Op::kCmpEq,
                              MakeBinOp(vm::Op::kAdd, In(0), In(1)),
                              MakeConst(9));
  SolverCache cache;
  SolveContext ctx;
  ASSERT_EQ(cache.Solve({a, b}, {}, {}, ctx).status, SolveStatus::kSat);
  ASSERT_EQ(cache.Solve({a, a, b, a}, {}, {}, ctx).status, SolveStatus::kSat);
  EXPECT_EQ(cache.stats().exact_hits, 1u);
  EXPECT_EQ(cache.stats().misses, 1u);

  const SolveResult once = SolveOnce({b, a});
  const SolveResult repeated = SolveOnce({b, a, b, b, a});
  ASSERT_EQ(once.status, SolveStatus::kSat);
  EXPECT_EQ(repeated.status, once.status);
  EXPECT_EQ(repeated.model, once.model);
  EXPECT_EQ(repeated.steps, once.steps);
}

TEST(SolverCacheTest, ModelReuseHitEqualsFreshSolveAndCertifies) {
  InternScope intern;
  SolverCache cache;
  SolveContext ctx;
  std::vector<ExprRef> prefix = {InputEq(0, 10), InputEq(1, 20)};
  ASSERT_EQ(cache.Solve(prefix, {}, {}, ctx).status, SolveStatus::kSat);

  // Extend the path the way the executor does: append one constraint the
  // state's pooled model already satisfies (in[0] != 0).
  std::vector<ExprRef> extended = prefix;
  extended.push_back(
      MakeBinOp(vm::Op::kCmpNe, MakeInput(0), MakeConst(0)));

  const SolveResult hit = cache.Solve(extended, {}, {}, ctx);
  EXPECT_EQ(cache.stats().model_reuse_hits, 1u)
      << "the pooled model satisfies the extension";
  EXPECT_EQ(hit.status, SolveStatus::kSat);
  for (const ExprRef& c : extended) {
    EXPECT_NE(Eval(c, hit.model), 0u)
        << "a reuse hit must certify every constraint";
  }
  EXPECT_EQ(hit.status, FreshSolve(extended).status);
}

TEST(SolverCacheTest, PinsOverrideTheCachedModel) {
  InternScope intern;
  SolverCache cache;
  SolveContext ctx;
  std::vector<ExprRef> prefix = {
      MakeBinOp(vm::Op::kCmpNe, MakeInput(0), MakeConst(7))};
  ASSERT_EQ(cache.Solve(prefix, {}, {}, ctx).status, SolveStatus::kSat);

  // Pin in[1] = 42 and require it in the constraints, the shape P3's
  // bunch placement produces. The pooled model knows nothing about
  // in[1]; the pin overlay must supply it.
  std::vector<ExprRef> extended = prefix;
  extended.push_back(InputEq(1, 42));
  const Model pins = {{1, 42}};

  const std::uint64_t reused = cache.stats().model_reuse_hits;
  const SolveResult hit = cache.Solve(extended, pins, {}, ctx);
  EXPECT_EQ(cache.stats().model_reuse_hits, reused + 1);
  EXPECT_EQ(hit.status, SolveStatus::kSat);
  EXPECT_EQ(hit.model.at(1), 42);
  EXPECT_EQ(hit.status, FreshSolve(extended).status);
}

TEST(SolverCacheTest, HintsFillFreshVariablesLikeAFreshSolveWould) {
  InternScope intern;
  SolverCache cache;
  SolveContext ctx;
  std::vector<ExprRef> prefix = {InputEq(0, 3)};
  ASSERT_EQ(cache.Solve(prefix, {}, {}, ctx).status, SolveStatus::kSat);

  // The extension constrains a byte no pooled model has seen; only the
  // hint (the original PoC's byte) satisfies it.
  std::vector<ExprRef> extended = prefix;
  extended.push_back(InputEq(5, 77));

  const SolveResult hit = cache.Solve(extended, {}, Hinted({{5, 77}}), ctx);
  EXPECT_EQ(cache.stats().model_reuse_hits, 1u)
      << "hint overlay should certify the extension";
  EXPECT_EQ(hit.model.at(5), 77);

  // The returned model covers only constrained variables — a hint for an
  // unconstrained byte must not appear (it would change poc' emission).
  const SolveResult hit2 =
      cache.Solve(extended, {}, Hinted({{5, 77}, {200, 9}}), ctx);
  EXPECT_EQ(cache.stats().model_reuse_hits, 2u);
  EXPECT_EQ(hit2.model.count(200), 0u);
}

TEST(SolverCacheTest, UnsatisfiableExtensionMissesInsteadOfGuessing) {
  InternScope intern;
  SolverCache cache;
  SolveContext ctx;
  std::vector<ExprRef> prefix = {InputEq(0, 10)};
  ASSERT_EQ(cache.Solve(prefix, {}, {}, ctx).status, SolveStatus::kSat);

  // The extension contradicts the prefix: no candidate can certify it,
  // so reuse must miss — never report kUnsat — and the search decides.
  std::vector<ExprRef> extended = prefix;
  extended.push_back(InputEq(0, 11));
  EXPECT_EQ(cache.Solve(extended, {}, {}, ctx).status, SolveStatus::kUnsat);
  EXPECT_EQ(cache.stats().model_reuse_hits, 0u);
  EXPECT_EQ(cache.stats().misses, 2u);
  EXPECT_EQ(FreshSolve(extended).status, SolveStatus::kUnsat);
}

TEST(SolverCacheTest, CachedVerdictsMatchFreshSolvesAcrossAWorkload) {
  InternScope intern;
  SolverCache cache;
  // Simulate one executor state's query stream: a growing constraint
  // sequence, each constraint applied to the state's context, with
  // occasional pins, checking every answer against a fresh search on
  // the same system.
  SolveContext ctx;
  std::vector<ExprRef> constraints;
  Model pins;
  Model hints;
  for (std::uint32_t i = 0; i < 24; ++i) hints[i] = static_cast<uint8_t>(i);
  const SolverOptions options = Hinted(hints);
  for (std::uint32_t i = 0; i < 24; ++i) {
    constraints.push_back(i % 3 == 0
                              ? InputEq(i, i)
                              : MakeBinOp(vm::Op::kCmpNe, MakeInput(i),
                                          MakeConst(255)));
    ctx.Apply(constraints.back());
    if (i % 5 == 0) pins[i] = static_cast<uint8_t>(i);

    const SolveResult got = cache.Solve(constraints, pins, options, ctx);
    if (got.status == SolveStatus::kSat) {
      for (const ExprRef& c : constraints) {
        ASSERT_NE(Eval(c, got.model), 0u);
      }
    }
    EXPECT_EQ(got.status, FreshSolve(constraints, options).status)
        << "query " << i;
  }
  EXPECT_GT(cache.stats().hits, 0u) << "the workload should produce hits";
}

// -- Cache front door ≡ monolithic solving --------------------------------
//
// The load-bearing property: every answer the SolverCache front door
// produces — whichever mechanism produced it — must equal what a fresh
// search with every shortcut off returns over the same constraint
// sequence, byte for byte.

// Builds a random constraint system over a handful of variables with a
// mix of unary range checks and binary couplings, spread over several
// independent clusters (varied structure for the purity checks).
std::vector<ExprRef> RandomSystem(std::mt19937& rng, bool force_unsat) {
  std::vector<ExprRef> cs;
  const int clusters = 2 + static_cast<int>(rng() % 3);
  for (int c = 0; c < clusters; ++c) {
    const std::uint32_t base = static_cast<std::uint32_t>(c) * 4;
    const int k = 1 + static_cast<int>(rng() % 3);
    for (int i = 0; i < k; ++i) {
      switch (rng() % 3) {
        case 0:
          cs.push_back(MakeBinOp(vm::Op::kCmpLtU, In(base + rng() % 2),
                                 MakeConst(1 + rng() % 200)));
          break;
        case 1:
          cs.push_back(MakeBinOp(vm::Op::kCmpEq,
                                 MakeBinOp(vm::Op::kAnd, In(base),
                                           MakeConst(0x0F)),
                                 MakeConst(rng() % 16)));
          break;
        default:
          cs.push_back(MakeBinOp(vm::Op::kCmpLeU, In(base),
                                 MakeBinOp(vm::Op::kAdd, In(base + 1),
                                           MakeConst(rng() % 5))));
          break;
      }
    }
  }
  if (force_unsat) {
    const std::uint32_t v = rng() % 8;
    cs.push_back(InputEq(v, 3));
    cs.push_back(InputEq(v, 4));
  }
  return cs;
}

TEST(CacheSolveTest, FrontDoorEqualsMonolithicOnRandomSystems) {
  std::mt19937 rng(1234);
  for (int round = 0; round < 60; ++round) {
    InternScope intern;
    const std::vector<ExprRef> cs = RandomSystem(rng, (round % 4) == 3);
    const SolveResult fresh = FreshSolve(cs);
    // The executor's way: the state's context has applied every
    // constraint, so forced-UNSAT rounds meet the wipeout tier.
    SolveContext ctx;
    for (const ExprRef& c : cs) ctx.Apply(c);
    SolverCache cache;
    const SolveResult cached = cache.Solve(cs, {}, {}, ctx);
    ASSERT_EQ(cached.status, fresh.status) << "round " << round;
    if (fresh.status == SolveStatus::kSat) {
      EXPECT_TRUE(SameAssignment(cs, cached.model, fresh.model))
          << "round " << round
          << ": the cache front door must pick byte-identical models";
    }
  }
}

TEST(CacheSolveTest, ResultIsPureAcrossCacheHistories) {
  // The same query through two caches with different histories must
  // agree: one cold, one whose state first asked each constraint alone.
  InternScope intern;
  const std::vector<ExprRef> cs = {
      MakeBinOp(vm::Op::kCmpLtU, In(0), MakeConst(9)),
      InputEq(4, 200),
      MakeBinOp(vm::Op::kCmpLeU, In(8), In(9)),
  };
  SolverCache cold;
  SolveContext cold_ctx;
  const SolveResult a = cold.Solve(cs, {}, {}, cold_ctx);

  SolverCache warm;
  SolveContext warm_ctx;
  for (const ExprRef& c : cs) (void)warm.Solve({c}, {}, {}, warm_ctx);
  const SolveResult b = warm.Solve(cs, {}, {}, warm_ctx);

  EXPECT_EQ(a.status, b.status);
  EXPECT_TRUE(SameAssignment(cs, a.model, b.model));
  EXPECT_GE(warm.stats().hits, 1u)
      << "the warmed cache should answer the joint query from cache";
}

// -- Subsumption -----------------------------------------------------------

TEST(SubsumptionTest, NeverFlipsASatisfiableQuery) {
  // Warm a cache with many wiped-out UNSAT systems, then stress it with
  // random *satisfiable* queries, each from a state whose context
  // applied the whole query: none may come back kUnsat.
  std::mt19937 rng(99);
  InternScope intern;
  SolverCache cache;
  for (std::uint32_t v = 0; v < 6; ++v) {
    SolveContext ctx;
    const std::vector<ExprRef> cs = {InputEq(v, 1), InputEq(v, 2)};
    for (const ExprRef& c : cs) ctx.Apply(c);
    ASSERT_EQ(cache.Solve(cs, {}, {}, ctx).status, SolveStatus::kUnsat);
  }
  ASSERT_EQ(cache.stats().subsumption_hits, 6u);
  for (int round = 0; round < 40; ++round) {
    const std::vector<ExprRef> cs = RandomSystem(rng, /*force_unsat=*/false);
    SolveContext ctx;
    for (const ExprRef& c : cs) ctx.Apply(c);
    const SolveResult fresh = FreshSolve(cs);
    const SolveResult cached = cache.Solve(cs, {}, {}, ctx);
    ASSERT_EQ(cached.status, fresh.status)
        << "round " << round << ": subsumption flipped a verdict";
    if (fresh.status == SolveStatus::kSat) {
      // A warm cache may serve a *different* model than a cold search
      // (certified reuse), but whatever it serves must be a certificate.
      EXPECT_TRUE(Satisfies(cs, cached.model)) << "round " << round;
    }
  }
}

TEST(SubsumptionTest, WipeoutIsUnsatUnderAZeroStepBudget) {
  // A wiped-out domain is found by the unary prefilter, before any step
  // or budget check, so the fresh search on either core answers kUnsat
  // under any budget — the same status the wipeout tier returns.
  InternScope intern;
  const ExprRef coupled =
      MakeBinOp(vm::Op::kCmpEq, MakeBinOp(vm::Op::kAdd, In(0), In(1)),
                MakeConst(300));
  const std::vector<ExprRef> cs = {coupled, InputEq(3, 10), InputEq(3, 11)};
  SolverOptions zero;
  zero.max_steps = 0;
  ASSERT_EQ(SolveOnce({coupled}, zero).status, SolveStatus::kUnknown)
      << "without the wipeout the zero budget must bite";

  EXPECT_EQ(SolveOnce(cs, zero).status, SolveStatus::kUnsat)
      << "propagate core, fresh search";
  EXPECT_EQ(FreshSolve(cs, zero).status, SolveStatus::kUnsat)
      << "backtrack core";

  SolveContext ctx;
  for (const ExprRef& c : cs) ctx.Apply(c);
  ASSERT_TRUE(ctx.known_unsat());
  SolverCache cache;
  EXPECT_EQ(cache.Solve(cs, {}, zero, ctx).status, SolveStatus::kUnsat);
  EXPECT_EQ(cache.stats().subsumption_hits, 1u);
}

TEST(SubsumptionTest, BranchWipeoutMatchesTheSearch) {
  // The state's path narrows in[3] below 10 without wiping it out; the
  // branch constraint in[3] > 20 then empties the context domain. The
  // front door answers from the context as the fresh search would: a
  // kUnsat miss with zero steps, memoized, and no subsumption hit.
  InternScope intern;
  const ExprRef coupled =
      MakeBinOp(vm::Op::kCmpEq, MakeBinOp(vm::Op::kAdd, In(0), In(1)),
                MakeConst(300));
  const std::vector<ExprRef> path = {
      coupled, MakeBinOp(vm::Op::kCmpLtU, In(3), MakeConst(10))};
  SolveContext ctx;
  for (const ExprRef& c : path) ctx.Apply(c);
  ASSERT_FALSE(ctx.known_unsat());

  std::vector<ExprRef> branch = path;
  branch.push_back(MakeBinOp(vm::Op::kCmpGtU, In(3), MakeConst(20)));
  SolverOptions zero;
  zero.max_steps = 0;
  SolverCache cache;
  const SolveResult got = cache.Solve(branch, {}, zero, ctx);
  EXPECT_EQ(got.status, SolveStatus::kUnsat);
  EXPECT_EQ(got.steps, 0u);
  EXPECT_EQ(cache.stats().misses, 1u);
  EXPECT_EQ(cache.stats().hits, 0u);
  EXPECT_EQ(cache.size(), 1u) << "the answer is memoized like a search's";

  const SolveResult again = cache.Solve(branch, {}, zero, ctx);
  EXPECT_EQ(again.status, SolveStatus::kUnsat);
  EXPECT_EQ(cache.stats().exact_hits, 1u);
  EXPECT_EQ(cache.stats().misses, 1u);

  // Both cores, unseeded and under the same zero budget, agree.
  const SolveResult search = SolveOnce(branch, zero);
  EXPECT_EQ(search.status, SolveStatus::kUnsat);
  EXPECT_EQ(search.steps, 0u);
  EXPECT_EQ(FreshSolve(branch, zero).status, SolveStatus::kUnsat);
}

// -- SolveContext seeding --------------------------------------------------

TEST(SolveContextTest, SeededSearchIsBitIdenticalIncludingSteps) {
  std::mt19937 rng(4321);
  const SolverBackend& core = PropagateBackendInstance();
  for (int round = 0; round < 40; ++round) {
    InternScope intern;
    const std::vector<ExprRef> cs = RandomSystem(rng, (round % 5) == 4);

    SolveContext ctx;
    for (const ExprRef& c : cs) ctx.Apply(c);

    const SolveResult seeded = core.Solve(cs, {}, &ctx);
    const SolveResult plain = core.Solve(cs, {}, nullptr);
    const SolveResult reference =
        oracle::BacktrackSolver().Solve(cs, {}, nullptr);

    ASSERT_EQ(seeded.status, plain.status) << "round " << round;
    EXPECT_EQ(seeded.model, plain.model) << "round " << round;
    EXPECT_EQ(seeded.steps, plain.steps)
        << "round " << round
        << ": context seeding may only skip prefilter evaluations, "
           "never change the search";
    ASSERT_EQ(seeded.status, reference.status) << "round " << round;
    EXPECT_EQ(seeded.steps, reference.steps) << "round " << round;
  }
}

/// What the front door hands a core: `cs` plus each concat equality's
/// byte pins (the solver's pre-pass).
std::vector<ExprRef> WithPins(const std::vector<ExprRef>& cs) {
  std::vector<ExprRef> out = cs;
  for (const ExprRef& c : cs) {
    ForEachConcatPin(c, [&](const ExprRef& pin) { out.push_back(pin); });
  }
  return out;
}

/// A two-byte little-endian field equality: in[lo] | in[lo+1] << 8 == k.
ExprRef FieldEq(std::uint32_t lo, std::uint64_t k) {
  return MakeBinOp(vm::Op::kCmpEq,
                   MakeBinOp(vm::Op::kOr, In(lo),
                             MakeBinOp(vm::Op::kShl, In(lo + 1),
                                       MakeConst(8))),
                   MakeConst(k));
}

TEST(SolveContextTest, FoldsConcatEqualityPins) {
  // A field equality pins both its bytes in the context's domains,
  // without counting as a unary path constraint...
  {
    InternScope intern;
    SolveContext ctx;
    ctx.Apply(FieldEq(0, 0x4241));
    ASSERT_NE(ctx.Find(0), nullptr);
    ASSERT_NE(ctx.Find(1), nullptr);
    EXPECT_EQ(ctx.Find(0)->domain.Count(), 1);
    EXPECT_TRUE(ctx.Find(0)->domain.Test(0x41));
    EXPECT_TRUE(ctx.Find(1)->domain.Test(0x42));
    EXPECT_TRUE(ctx.Find(0)->applied.empty());
    EXPECT_EQ(ctx.Find(0)->unary.Count(), 256);

    // ...so a path byte the pin contradicts empties the seed domain but
    // not the unary one: known_unsat (the subsumption tier) stays as it
    // was, and the query is a kUnsat miss with zero steps.
    const ExprRef small = MakeBinOp(vm::Op::kCmpLtU, In(0), MakeConst(0x10));
    ctx.Apply(small);
    EXPECT_TRUE(ctx.Find(0)->domain.None());
    EXPECT_FALSE(ctx.known_unsat());
    SolverCache cache;
    const SolveResult r = cache.Solve({FieldEq(0, 0x4241), small}, {}, {}, ctx);
    EXPECT_EQ(r.status, SolveStatus::kUnsat);
    EXPECT_EQ(r.steps, 0u);
    EXPECT_EQ(cache.stats().misses, 1u);
    EXPECT_EQ(cache.stats().subsumption_hits, 0u);
  }

  // With pins folded, a seeded search over the preprocessed system is
  // bit-identical, steps included, to an unseeded one.
  std::mt19937 rng(2468);
  const SolverBackend& core = PropagateBackendInstance();
  for (int round = 0; round < 40; ++round) {
    InternScope intern;
    std::vector<ExprRef> cs = RandomSystem(rng, (round % 5) == 4);
    cs.push_back(FieldEq(rng() % 8, rng() % 0x10000));
    if (round % 3 == 0) cs.push_back(FieldEq(rng() % 8, rng() % 0x10000));
    const std::vector<ExprRef> pre = WithPins(cs);

    SolveContext ctx;
    for (const ExprRef& c : cs) ctx.Apply(c);

    const SolveResult seeded = core.Solve(pre, {}, &ctx);
    const SolveResult plain = core.Solve(pre, {}, nullptr);
    const SolveResult reference =
        oracle::BacktrackSolver().Solve(pre, {}, nullptr);
    ASSERT_EQ(seeded.status, plain.status) << "round " << round;
    EXPECT_EQ(seeded.model, plain.model) << "round " << round;
    EXPECT_EQ(seeded.steps, plain.steps) << "round " << round;
    ASSERT_EQ(seeded.status, reference.status) << "round " << round;
    EXPECT_EQ(seeded.steps, reference.steps) << "round " << round;

    // And the front door over the state's context answers as a cold one.
    SolverCache cache;
    const SolveResult front = cache.Solve(cs, {}, {}, ctx);
    const SolveResult cold = SolveOnce(cs);
    ASSERT_EQ(front.status, cold.status) << "round " << round;
    EXPECT_EQ(front.steps, cold.steps) << "round " << round;
    if (cold.status == SolveStatus::kSat) {
      EXPECT_TRUE(SameAssignment(cs, front.model, cold.model))
          << "round " << round;
    }
  }
}

TEST(SolveContextTest, LongUnaryChainOnOneByteAnswersLikeSolveOnce) {
  // The symex-hostile shape: a gate in[4] >= 128, then a warm-up loop
  // whose every iteration asks both branches of i < in[4], behind a
  // magic field, with 140 iterations. The stay-in branch is committed
  // each time. Every answer the state's front door gives must equal a
  // cold SolveOnce over the same query.
  InternScope intern;
  SolverOptions options = Hinted({{0, 0x50}, {1, 0x4B}, {4, 200}});
  SolverCache cache;
  SolveContext ctx;
  std::vector<ExprRef> path = {
      FieldEq(0, 0x4B50),
      MakeBinOp(vm::Op::kCmpGeU, In(4), MakeConst(128))};
  for (const ExprRef& c : path) ctx.Apply(c);
  int unsat = 0;
  for (std::uint64_t i = 0; i < 140; ++i) {
    const ExprRef more = MakeBinOp(vm::Op::kCmpLtU, MakeConst(i), In(4));
    const ExprRef done = MakeBinOp(vm::Op::kCmpEq, more, MakeConst(0));
    for (const ExprRef& branch : {done, more}) {
      std::vector<ExprRef> q = path;
      q.push_back(branch);
      const SolveResult got = cache.Solve(q, {}, options, ctx);
      const SolveResult want = SolveOnce(q, options);
      ASSERT_EQ(got.status, want.status) << "i " << i;
      if (got.status == SolveStatus::kSat) {
        ASSERT_TRUE(Satisfies(q, got.model)) << "i " << i;
      } else {
        EXPECT_EQ(got.steps, want.steps) << "i " << i;
        ++unsat;
      }
      EXPECT_EQ(got.status, FreshSolve(q, options).status) << "i " << i;
    }
    path.push_back(more);
    ctx.Apply(more);
  }
  EXPECT_EQ(unsat, 128) << "the exit branch is infeasible while i < 128";
  EXPECT_EQ(cache.stats().subsumption_hits, 0u);
}

TEST(SolveContextTest, WipeoutMarksKnownUnsat) {
  InternScope intern;
  SolveContext ctx;
  ctx.Apply(InputEq(3, 10));
  EXPECT_FALSE(ctx.known_unsat());
  ctx.Apply(InputEq(3, 11));
  EXPECT_TRUE(ctx.known_unsat());

  SolverCache cache;
  SolveContext query_ctx = ctx;
  const SolveResult r =
      cache.Solve({InputEq(3, 10), InputEq(3, 11)}, {}, {}, query_ctx);
  EXPECT_EQ(r.status, SolveStatus::kUnsat);
  EXPECT_EQ(cache.stats().subsumption_hits, 1u);
}

// -- Per-mechanism hit counters --------------------------------------------

TEST(CacheCountersTest, EachMechanismBumpsItsOwnCounter) {
  InternScope intern;
  SolverCache cache;
  // One state whose context applies nothing: every tier but the
  // wipeout can answer.
  SolveContext ctx;
  const ExprRef a = InputEq(0, 5);
  const ExprRef b = InputEq(1, 7);

  // Fresh solve: miss.
  ASSERT_EQ(cache.Solve({a}, {}, {}, ctx).status, SolveStatus::kSat);
  EXPECT_EQ(cache.stats().misses, 1u);
  EXPECT_EQ(cache.stats().hits, 0u);

  // Same sequence again: exact hit.
  ASSERT_EQ(cache.Solve({a}, {}, {}, ctx).status, SolveStatus::kSat);
  EXPECT_EQ(cache.stats().exact_hits, 1u);

  // A new joint query is a fresh search (the slicing tier that once
  // stitched {a} and {b} answers together is retired), but it pools
  // the joint model {0:5, 1:7} on the state...
  ASSERT_EQ(cache.Solve({a, b}, {}, {}, ctx).status, SolveStatus::kSat);
  EXPECT_EQ(cache.stats().misses, 2u);

  // ...which certifies this relaxation without a search: model reuse.
  const std::vector<ExprRef> relaxed = {
      MakeBinOp(vm::Op::kCmpLeU, In(0), MakeConst(5)),
      MakeBinOp(vm::Op::kCmpLeU, In(1), MakeConst(7)),
  };
  const SolveResult reused = cache.Solve(relaxed, {}, {}, ctx);
  ASSERT_EQ(reused.status, SolveStatus::kSat);
  EXPECT_EQ(reused.steps, 0u) << "cache hits must report zero steps";
  EXPECT_TRUE(Satisfies(relaxed, reused.model));
  const SolverCache::Stats s = cache.stats();
  EXPECT_EQ(s.hits + s.misses, 4u) << "hits + misses == counted queries";
  EXPECT_EQ(s.hits, s.exact_hits + s.model_reuse_hits + s.subsumption_hits)
      << "per-mechanism counters partition the hit total";
  EXPECT_GE(s.model_reuse_hits, 1u)
      << "the relaxed query must be served by certified model reuse";

  // A context that applied nothing proves no query UNSAT in advance: a
  // UNSAT system and a superset of it are both fresh searches.
  ASSERT_EQ(cache.Solve({InputEq(2, 1), InputEq(2, 2)}, {}, {}, ctx).status,
            SolveStatus::kUnsat);
  ASSERT_EQ(cache.Solve({a, InputEq(2, 1), InputEq(2, 2)}, {}, {}, ctx)
                .status,
            SolveStatus::kUnsat);
  EXPECT_EQ(cache.stats().misses, 4u);
  EXPECT_EQ(cache.stats().subsumption_hits, 0u);

  // A context whose unary domain for in[2] wiped out: subsumption.
  SolveContext wiped;
  wiped.Apply(InputEq(2, 1));
  wiped.Apply(InputEq(2, 2));
  ASSERT_TRUE(wiped.known_unsat());
  ASSERT_EQ(cache.Solve({b, InputEq(2, 1), InputEq(2, 2)}, {}, {}, wiped)
                .status,
            SolveStatus::kUnsat);
  EXPECT_EQ(cache.stats().subsumption_hits, 1u);
  EXPECT_EQ(cache.stats().misses, 4u);
}

TEST(CacheCountersTest, OracleBackendBypassesEveryTier) {
  // With SolverOptions::backend set, Solve is the bare search: the same
  // query twice is two misses, a pooled model is never reused and a
  // wiped-out context answers nothing. The default path answers the
  // repeat from the exact memo.
  InternScope intern;
  const std::vector<ExprRef> q = {InputEq(0, 5)};
  SolverOptions off;
  off.backend = &oracle::BacktrackSolver();

  SolverCache bypass;
  SolveContext ctx;
  ASSERT_EQ(bypass.Solve(q, {}, off, ctx).status, SolveStatus::kSat);
  ASSERT_EQ(bypass.Solve(q, {}, off, ctx).status, SolveStatus::kSat);
  EXPECT_EQ(bypass.stats().hits, 0u);
  EXPECT_EQ(bypass.stats().misses, 2u);
  EXPECT_TRUE(ctx.recent_models().empty()) << "the bypass pools nothing";

  SolveContext wiped;
  wiped.Apply(InputEq(2, 1));
  wiped.Apply(InputEq(2, 2));
  ASSERT_EQ(bypass.Solve({InputEq(2, 1), InputEq(2, 2)}, {}, off, wiped)
                .status,
            SolveStatus::kUnsat);
  EXPECT_EQ(bypass.stats().subsumption_hits, 0u);
  EXPECT_EQ(bypass.stats().misses, 3u);

  SolverCache cache;
  SolveContext fresh_ctx;
  ASSERT_EQ(cache.Solve(q, {}, {}, fresh_ctx).status, SolveStatus::kSat);
  ASSERT_EQ(cache.Solve(q, {}, {}, fresh_ctx).status, SolveStatus::kSat);
  EXPECT_EQ(cache.stats().exact_hits, 1u);
  EXPECT_EQ(cache.stats().misses, 1u);
}

}  // namespace
}  // namespace octopocs::symex
