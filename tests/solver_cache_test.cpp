// The solver's front door, SolverCache::Solve: every answer must equal
// what a fresh search with every shortcut off would return. Model-reuse
// hits must be certificates (the returned model satisfies every
// constraint) drawn from the querying state's own pool and can never
// manufacture a kUnsat. Also covers the branch wipeout, solve-context
// seeding (derived pins included), the path layer shared by forks,
// reuse certificates, and the oracle bypass (SolverOptions::backend).
#include <gtest/gtest.h>

#include <cstdint>
#include <optional>
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

TEST(SolverCacheTest, RepeatedNodesCollapseToTheirFirstOccurrences) {
  // A repeated node counts once, where it first appears: the search
  // never sees a repeat.
  InternScope intern;
  const ExprRef a = MakeBinOp(vm::Op::kCmpLeU, In(0), In(1));
  const ExprRef b = MakeBinOp(vm::Op::kCmpEq,
                              MakeBinOp(vm::Op::kAdd, In(0), In(1)),
                              MakeConst(9));
  const SolveResult once = SolveOnce({b, a});
  const SolveResult repeated = SolveOnce({b, a, b, b, a});
  ASSERT_EQ(once.status, SolveStatus::kSat);
  EXPECT_EQ(repeated.status, once.status);
  EXPECT_EQ(repeated.model, once.model);
  EXPECT_EQ(repeated.steps, once.steps);
}


TEST(SolverCacheTest, RepeatedBranchAndRepeatedAppendAnswerLikeFirstOccurrence) {
  // A repeated node appended to the path only counts: the layer keeps
  // its first occurrence, so every later query answers as over the
  // path without the repeat. A branch already on the path adds nothing.
  InternScope intern;
  const ExprRef a = MakeBinOp(vm::Op::kCmpLeU, In(0), In(1));
  const ExprRef b = MakeBinOp(vm::Op::kCmpEq,
                              MakeBinOp(vm::Op::kAdd, In(0), In(1)),
                              MakeConst(9));
  const ExprRef c = MakeBinOp(vm::Op::kCmpNe, In(1), MakeConst(9));
  SolveContext repeated = PathContext({b, a, b});
  repeated.Append(a);
  SolveContext distinct = PathContext({b, a});
  EXPECT_EQ(repeated.appended(), 4u);
  EXPECT_EQ(repeated.size(), 2u);
  EXPECT_TRUE(repeated.OnPath(b.get()));
  EXPECT_FALSE(repeated.OnPath(c.get()));

  for (const ExprRef& branch : {ExprRef{}, a, c}) {
    SolverCache lhs, rhs;
    SolveContext x = repeated, y = distinct;
    const SolveResult got = lhs.Solve(x, branch, {}, {});
    const SolveResult want = rhs.Solve(y, branch, {}, {});
    ASSERT_EQ(got.status, want.status);
    EXPECT_EQ(got.model, want.model);
    EXPECT_EQ(got.steps, want.steps);
  }
  // A branch on the path is the path's own query: the model the path
  // query pooled answers it.
  SolverCache cache;
  ASSERT_EQ(cache.Solve(repeated, nullptr, {}, {}).status, SolveStatus::kSat);
  ASSERT_EQ(cache.Solve(repeated, b, {}, {}).status, SolveStatus::kSat);
  EXPECT_EQ(cache.stats().hits, 1u);
  EXPECT_EQ(cache.stats().misses, 1u);
}

TEST(SolverCacheTest, ModelReuseHitEqualsFreshSolveAndCertifies) {
  InternScope intern;
  SolverCache cache;
  const std::vector<ExprRef> prefix = {InputEq(0, 10), InputEq(1, 20)};
  SolveContext ctx = PathContext(prefix);
  ASSERT_EQ(cache.Solve(ctx, nullptr, {}, {}).status, SolveStatus::kSat);

  // Ask a branch the way the executor does: one constraint the state's
  // pooled model already satisfies (in[0] != 0).
  const ExprRef branch =
      MakeBinOp(vm::Op::kCmpNe, MakeInput(0), MakeConst(0));
  std::vector<ExprRef> extended = prefix;
  extended.push_back(branch);

  const SolveResult hit = cache.Solve(ctx, branch, {}, {});
  EXPECT_EQ(cache.stats().hits, 1u)
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
  const std::vector<ExprRef> prefix = {
      MakeBinOp(vm::Op::kCmpNe, MakeInput(0), MakeConst(7))};
  SolveContext ctx = PathContext(prefix);
  ASSERT_EQ(cache.Solve(ctx, nullptr, {}, {}).status, SolveStatus::kSat);

  // Pin in[1] = 42 and require it in the constraints, the shape P3's
  // bunch placement produces. The pooled model knows nothing about
  // in[1]; the pin overlay must supply it.
  std::vector<ExprRef> extended = prefix;
  extended.push_back(InputEq(1, 42));
  ctx.Append(InputEq(1, 42));
  const Model pins = {{1, 42}};

  const std::uint64_t reused = cache.stats().hits;
  const SolveResult hit = cache.Solve(ctx, nullptr, pins, {});
  EXPECT_EQ(cache.stats().hits, reused + 1);
  EXPECT_EQ(hit.status, SolveStatus::kSat);
  EXPECT_EQ(hit.model.at(1), 42);
  EXPECT_EQ(hit.status, FreshSolve(extended).status);
}

TEST(SolverCacheTest, HintsFillFreshVariablesLikeAFreshSolveWould) {
  InternScope intern;
  SolverCache cache;
  SolveContext ctx = PathContext({InputEq(0, 3)});
  ASSERT_EQ(cache.Solve(ctx, nullptr, {}, {}).status, SolveStatus::kSat);

  // The branch constrains a byte no pooled model has seen; only the
  // hint (the original PoC's byte) satisfies it.
  const ExprRef branch = InputEq(5, 77);
  const SolveResult hit = cache.Solve(ctx, branch, {}, Hinted({{5, 77}}));
  EXPECT_EQ(cache.stats().hits, 1u)
      << "hint overlay should certify the extension";
  EXPECT_EQ(hit.model.at(5), 77);

  // The returned model covers only constrained variables — a hint for an
  // unconstrained byte must not appear (it would change poc' emission).
  const SolveResult hit2 =
      cache.Solve(ctx, branch, {}, Hinted({{5, 77}, {200, 9}}));
  EXPECT_EQ(cache.stats().hits, 2u);
  EXPECT_EQ(hit2.model.count(200), 0u);
}

TEST(SolverCacheTest, UnsatisfiableExtensionMissesInsteadOfGuessing) {
  InternScope intern;
  SolverCache cache;
  const std::vector<ExprRef> prefix = {InputEq(0, 10)};
  SolveContext ctx = PathContext(prefix);
  ASSERT_EQ(cache.Solve(ctx, nullptr, {}, {}).status, SolveStatus::kSat);

  // The extension contradicts the prefix: no candidate can certify it,
  // so reuse must miss — never report kUnsat — and the search decides.
  std::vector<ExprRef> extended = prefix;
  extended.push_back(InputEq(0, 11));
  ctx.Append(InputEq(0, 11));
  EXPECT_EQ(cache.Solve(ctx, nullptr, {}, {}).status, SolveStatus::kUnsat);
  EXPECT_EQ(cache.stats().hits, 0u);
  EXPECT_EQ(cache.stats().misses, 2u);
  EXPECT_EQ(FreshSolve(extended).status, SolveStatus::kUnsat);
}

TEST(SolverCacheTest, CachedVerdictsMatchFreshSolvesAcrossAWorkload) {
  InternScope intern;
  SolverCache cache;
  // Simulate one executor state's query stream: a growing constraint
  // sequence, each constraint appended to the state's path, with
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
    ctx.Append(constraints.back());
    if (i % 5 == 0) pins[i] = static_cast<uint8_t>(i);

    const SolveResult got = cache.Solve(ctx, nullptr, pins, options);
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
    // The executor's way: the state's path holds every constraint but
    // the last, which is asked as a branch, so forced-UNSAT rounds meet
    // the branch wipeout.
    SolveContext ctx =
        PathContext(std::vector<ExprRef>(cs.begin(), cs.end() - 1));
    SolverCache cache;
    const SolveResult cached = cache.Solve(ctx, cs.back(), {}, {});
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
  // agree: one cold, one whose state asked after each constraint.
  InternScope intern;
  const std::vector<ExprRef> cs = {
      MakeBinOp(vm::Op::kCmpLtU, In(0), MakeConst(9)),
      InputEq(4, 200),
      MakeBinOp(vm::Op::kCmpLeU, In(8), In(9)),
  };
  SolverCache cold;
  SolveContext cold_ctx = PathContext(cs);
  const SolveResult a = cold.Solve(cold_ctx, nullptr, {}, {});

  SolverCache warm;
  SolveContext warm_ctx;
  for (const ExprRef& c : cs) {
    (void)warm.Solve(warm_ctx, c, {}, {});
    warm_ctx.Append(c);
  }
  const SolveResult b = warm.Solve(warm_ctx, nullptr, {}, {});

  EXPECT_EQ(a.status, b.status);
  EXPECT_TRUE(SameAssignment(cs, a.model, b.model));
  EXPECT_GE(warm.stats().hits, 1u)
      << "the warmed cache should answer the joint query from cache";
}

// -- Subsumption -----------------------------------------------------------

TEST(SubsumptionTest, NeverFlipsASatisfiableQuery) {
  // Random *satisfiable* queries, each a branch over a state whose path
  // holds the rest of the query, so the branch wipeout filters the
  // branch over the path's domains: none may come back kUnsat.
  std::mt19937 rng(99);
  InternScope intern;
  SolverCache cache;
  for (int round = 0; round < 40; ++round) {
    const std::vector<ExprRef> cs = RandomSystem(rng, /*force_unsat=*/false);
    SolveContext ctx =
        PathContext(std::vector<ExprRef>(cs.begin(), cs.end() - 1));
    const SolveResult fresh = FreshSolve(cs);
    const SolveResult cached = cache.Solve(ctx, cs.back(), {}, {});
    ASSERT_EQ(cached.status, fresh.status)
        << "round " << round << ": subsumption flipped a verdict";
    if (fresh.status == SolveStatus::kSat) {
      // Certified reuse may serve a *different* model than a cold
      // search, but whatever it serves must be a certificate.
      EXPECT_TRUE(Satisfies(cs, cached.model)) << "round " << round;
    }
  }
  EXPECT_EQ(cache.stats().hits + cache.stats().misses, 40u);
}

TEST(SubsumptionTest, WipeoutIsUnsatUnderAZeroStepBudget) {
  // A wiped-out domain is found by the unary prefilter, before any step
  // or budget check, so the fresh search on either core answers kUnsat
  // under any budget — the same status the branch wipeout returns.
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

  // A state whose path wiped in[3] out: its next query is the zero-step
  // miss the seeded search returns from the context's empty domain.
  SolveContext ctx = PathContext(cs);
  ASSERT_TRUE(ctx.Find(3)->domain.None());
  SolverCache cache;
  const SolveResult got = cache.Solve(ctx, nullptr, {}, zero);
  EXPECT_EQ(got.status, SolveStatus::kUnsat);
  EXPECT_EQ(got.steps, 0u);
  EXPECT_EQ(cache.stats().misses, 1u);
  EXPECT_EQ(cache.stats().hits, 0u);
}

TEST(SubsumptionTest, BranchWipeoutMatchesTheSearch) {
  // The state's path narrows in[3] below 10 without wiping it out; the
  // branch constraint in[3] > 20 then empties the context domain. The
  // front door answers from the context as the fresh search would: a
  // kUnsat miss with zero steps, every time it is asked.
  InternScope intern;
  const ExprRef coupled =
      MakeBinOp(vm::Op::kCmpEq, MakeBinOp(vm::Op::kAdd, In(0), In(1)),
                MakeConst(300));
  const std::vector<ExprRef> path = {
      coupled, MakeBinOp(vm::Op::kCmpLtU, In(3), MakeConst(10))};
  SolveContext ctx = PathContext(path);
  ASSERT_EQ(ctx.Find(3)->domain.Count(), 10);

  const ExprRef far = MakeBinOp(vm::Op::kCmpGtU, In(3), MakeConst(20));
  std::vector<ExprRef> branch = path;
  branch.push_back(far);
  SolverOptions zero;
  zero.max_steps = 0;
  SolverCache cache;
  const SolveResult got = cache.Solve(ctx, far, {}, zero);
  EXPECT_EQ(got.status, SolveStatus::kUnsat);
  EXPECT_EQ(got.steps, 0u);
  EXPECT_EQ(cache.stats().misses, 1u);
  EXPECT_EQ(cache.stats().hits, 0u);

  const SolveResult again = cache.Solve(ctx, far, {}, zero);
  EXPECT_EQ(again.status, SolveStatus::kUnsat);
  EXPECT_EQ(again.steps, 0u);
  EXPECT_EQ(cache.stats().misses, 2u) << "nothing remembers the first answer";
  EXPECT_EQ(cache.stats().hits, 0u);

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
    const SolveContext ctx = PathContext(cs);

    const SolveResult seeded = core.Solve(ctx, nullptr, {}, true);
    const SolveResult plain = core.Solve(ctx, nullptr, {}, false);
    const SolveResult reference =
        oracle::BacktrackSolver().Solve(ctx, nullptr, {}, false);

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
    ctx.Append(FieldEq(0, 0x4241));
    ASSERT_NE(ctx.Find(0), nullptr);
    ASSERT_NE(ctx.Find(1), nullptr);
    EXPECT_EQ(ctx.Find(0)->domain.Count(), 1);
    EXPECT_TRUE(ctx.Find(0)->domain.Test(0x41));
    EXPECT_TRUE(ctx.Find(1)->domain.Test(0x42));
    EXPECT_TRUE(ctx.Find(0)->applied.empty());

    // ...so a path byte the pin contradicts empties the seed domain,
    // and the query is a kUnsat miss with zero steps.
    const ExprRef small = MakeBinOp(vm::Op::kCmpLtU, In(0), MakeConst(0x10));
    ctx.Append(small);
    EXPECT_TRUE(ctx.Find(0)->domain.None());
    SolverCache cache;
    const SolveResult r = cache.Solve(ctx, nullptr, {}, {});
    EXPECT_EQ(r.status, SolveStatus::kUnsat);
    EXPECT_EQ(r.steps, 0u);
    EXPECT_EQ(cache.stats().misses, 1u);
    EXPECT_EQ(cache.stats().hits, 0u);
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

    SolveContext ctx = PathContext(cs);
    if (ctx.Impossible(nullptr)) continue;  // answered before any core

    const SolveResult seeded = core.Solve(ctx, nullptr, {}, true);
    const SolveResult plain = core.Solve(ctx, nullptr, {}, false);
    const SolveResult reference =
        oracle::BacktrackSolver().Solve(ctx, nullptr, {}, false);
    ASSERT_EQ(seeded.status, plain.status) << "round " << round;
    EXPECT_EQ(seeded.model, plain.model) << "round " << round;
    EXPECT_EQ(seeded.steps, plain.steps) << "round " << round;
    ASSERT_EQ(seeded.status, reference.status) << "round " << round;
    EXPECT_EQ(seeded.steps, reference.steps) << "round " << round;

    // And the front door over the state's context answers as a cold one.
    SolverCache cache;
    const SolveResult front = cache.Solve(ctx, nullptr, {}, {});
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
  std::vector<ExprRef> path = {
      FieldEq(0, 0x4B50),
      MakeBinOp(vm::Op::kCmpGeU, In(4), MakeConst(128))};
  SolveContext ctx = PathContext(path);
  int unsat = 0;
  for (std::uint64_t i = 0; i < 140; ++i) {
    const ExprRef more = MakeBinOp(vm::Op::kCmpLtU, MakeConst(i), In(4));
    const ExprRef done = MakeBinOp(vm::Op::kCmpEq, more, MakeConst(0));
    for (const ExprRef& branch : {done, more}) {
      std::vector<ExprRef> q = path;
      q.push_back(branch);
      const SolveResult got = cache.Solve(ctx, branch, {}, options);
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
    ctx.Append(more);
  }
  EXPECT_EQ(unsat, 128) << "the exit branch is infeasible while i < 128";
}

// -- The path layer and its certificates -----------------------------------

TEST(PathLayerTest, NewPinOnAnEarlierVariableReChecksTheWholePath) {
  // A model certified at path length 1 gave in[3] the value 0. A pin
  // then forces in[3] = 5, which the first constraint forbids: the
  // candidate's value for a variable the certified prefix reads has
  // moved, so reuse must evaluate the whole path again and miss. Were
  // only the constraints past the certificate checked, the pinned
  // candidate would pass the pin's own equality and return a wrong kSat.
  InternScope intern;
  const ExprRef not5 = MakeBinOp(vm::Op::kCmpNe, In(3), MakeConst(5));
  SolverCache cache;
  SolveContext ctx = PathContext({not5});
  const SolveResult first = cache.Solve(ctx, nullptr, {}, {});
  ASSERT_EQ(first.status, SolveStatus::kSat);
  ASSERT_EQ(first.model.count(3), 0u) << "in[3] reads 0";

  ctx.Append(InputEq(3, 5));
  const SolverCache::Stats before = cache.stats();
  const SolveResult pinned = cache.Solve(ctx, nullptr, {{3, 5}}, {});
  EXPECT_EQ(pinned.status, SolveStatus::kUnsat);
  EXPECT_EQ(cache.stats().hits, before.hits);
  EXPECT_EQ(pinned.status, FreshSolve({not5, InputEq(3, 5)}).status);

  // A pin on a variable the certified prefix does not read leaves the
  // certificate standing: only the new constraint is evaluated, and the
  // pooled model answers.
  SolverCache other;
  SolveContext fork = PathContext({not5});
  ASSERT_EQ(other.Solve(fork, nullptr, {}, {}).status, SolveStatus::kSat);
  fork.Append(InputEq(9, 5));
  const SolveResult hit = other.Solve(fork, nullptr, {{9, 5}}, {});
  ASSERT_EQ(hit.status, SolveStatus::kSat);
  EXPECT_EQ(other.stats().hits, 2u);
  EXPECT_EQ(hit.model, (Model{{9, 5}}));
}

/// One executor state in the fork test below: its context, the path it
/// holds and the pins its equalities forced.
struct ForkState {
  SolveContext ctx;
  std::vector<ExprRef> path;
  Model pins;
};

TEST(PathLayerTest, ForkedBranchQueriesEqualFromScratchSolves) {
  // Random branch sequences over states that fork: siblings extend one
  // shared layer prefix (the first to append extends the storage in
  // place, the other copies its prefix into storage of its own). Every
  // query must answer as the from-scratch query does: the search core
  // over the layer equals the oracle's search from scratch in status,
  // model and steps; the front door equals SolveOnce in status, a fresh
  // search there equals the oracle's in model and steps, and a reuse hit
  // certifies the query.
  std::mt19937 rng(8080);
  int queries = 0, hits = 0, unsat = 0;
  for (int round = 0; round < 25; ++round) {
    InternScope intern;
    SolverOptions options;
    for (std::uint32_t v = 0; v < 6; ++v) {
      if (rng() % 2 == 0) options.hints[v] = static_cast<std::uint8_t>(rng());
    }
    SolverCache cache;
    std::vector<ForkState> states(1);
    states.reserve(8);
    const auto random_constraint = [&]() -> ExprRef {
      const std::uint32_t a = rng() % 6, b = rng() % 6;
      switch (rng() % 5) {
        case 0:
          return MakeBinOp(vm::Op::kCmpLtU, In(a), MakeConst(1 + rng() % 60));
        case 4:
          return MakeBinOp(vm::Op::kCmpGtU, In(a), MakeConst(150 + rng() % 100));
        case 1:
          return MakeBinOp(vm::Op::kCmpNe, In(a), MakeConst(rng() % 256));
        case 2:
          return MakeBinOp(vm::Op::kCmpLeU, In(a),
                           MakeBinOp(vm::Op::kAdd, In(b),
                                     MakeConst(rng() % 40)));
        default:
          return MakeBinOp(vm::Op::kCmpNe,
                           MakeBinOp(vm::Op::kXor, In(a), In(b)),
                           MakeConst(rng() % 256));
      }
    };
    for (int step = 0; step < 60; ++step) {
      ForkState& s = states[rng() % states.size()];
      const ExprRef branch = random_constraint();
      std::vector<ExprRef> query = s.path;
      query.push_back(branch);
      const SolveResult want = FreshSolve(query, options);
      ASSERT_EQ(SolveOnce(query, options).status, want.status);

      if (!s.ctx.OnPath(branch.get())) {
        const SolveResult core =
            PropagateBackendInstance().Solve(s.ctx, branch, options, true);
        ASSERT_EQ(core.status, want.status) << round << "/" << step;
        EXPECT_EQ(core.model, want.model) << round << "/" << step;
        EXPECT_EQ(core.steps, want.steps) << round << "/" << step;
      }
      const std::uint64_t hits_before = cache.stats().hits;
      const SolveResult got = cache.Solve(s.ctx, branch, s.pins, options);
      ++queries;
      ASSERT_EQ(got.status, want.status) << round << "/" << step;
      if (got.status == SolveStatus::kUnsat) {
        ++unsat;
        continue;
      }
      if (cache.stats().hits > hits_before) {
        ++hits;
        EXPECT_TRUE(Satisfies(query, got.model)) << round << "/" << step;
      } else {
        EXPECT_EQ(got.model, want.model) << round << "/" << step;
        EXPECT_EQ(got.steps, want.steps) << round << "/" << step;
      }
      // Fork now and then (the sibling keeps the path without the
      // branch), commit the branch most times, pin a byte sometimes.
      if (rng() % 3 == 0 && states.size() < 8) states.push_back(s);
      if (rng() % 3 == 0) continue;
      s.path.push_back(branch);
      s.ctx.Append(branch);
      if (rng() % 4 == 0) {
        const std::uint32_t v = rng() % 6;
        const auto it = got.model.find(v);
        const std::uint8_t k = it == got.model.end() ? 0 : it->second;
        if (s.pins.count(v) == 0) {
          s.pins[v] = k;
          s.path.push_back(InputEq(v, k));
          s.ctx.Append(s.path.back());
        }
      }
    }
  }
  EXPECT_EQ(queries, 1500);
  EXPECT_GE(hits, 500);
  EXPECT_GE(unsat, 100);
}

TEST(PathLayerTest, AForkBehindItsStorageEndKeepsOnlyItsOwnPath) {
  // A fork extends the shared storage in place while its path ends
  // where the storage ends. A context left behind that end copies its
  // prefix, whether or not the sibling still reads the storage: the
  // sibling's constraint, and in[5] and in[6], which only that
  // constraint mentioned, leave its path, so in[6] gets a new variable
  // id when `own` mentions it.
  InternScope intern;
  const ExprRef a = MakeBinOp(vm::Op::kCmpLtU, In(0), MakeConst(40));
  const ExprRef b = MakeBinOp(vm::Op::kCmpLeU, In(1), In(0));
  const ExprRef sibling = MakeBinOp(
      vm::Op::kCmpEq, MakeBinOp(vm::Op::kAdd, In(5), In(6)), MakeConst(200));
  const ExprRef own = MakeBinOp(
      vm::Op::kCmpNe, MakeBinOp(vm::Op::kXor, In(6), In(0)), MakeConst(3));
  const ExprRef branch = MakeBinOp(vm::Op::kCmpGtU, In(6), In(1));
  for (const bool sibling_lives : {true, false}) {
    SolveContext ctx = PathContext({a, b});
    std::optional<SolveContext> fork(ctx);
    fork->Append(sibling);
    if (!sibling_lives) fork.reset();
    ctx.Append(own);
    EXPECT_EQ(ctx.size(), 3u);
    EXPECT_FALSE(ctx.OnPath(sibling.get()));
    EXPECT_TRUE(ctx.OnPath(own.get()));
    const std::vector<ExprRef> query = {a, b, own, branch};
    EXPECT_EQ(ctx.System(branch), query);
    QueryIndex index;
    ctx.Index(branch, &index);
    EXPECT_EQ(index.var_offset, (std::vector<std::uint32_t>{0, 1, 6}));
    EXPECT_EQ(std::vector<std::uint32_t>(
                  index.cvars.begin() + index.cvar_begin[2],
                  index.cvars.begin() + index.cvar_begin[3]),
              (std::vector<std::uint32_t>{0, 2}))
        << "`own` reads in[0] and in[6]";
    const SolveResult want = FreshSolve(query);
    const SolveResult core =
        PropagateBackendInstance().Solve(ctx, branch, {}, true);
    ASSERT_EQ(core.status, want.status) << sibling_lives;
    EXPECT_EQ(core.model, want.model) << sibling_lives;
    EXPECT_EQ(core.steps, want.steps) << sibling_lives;
    if (sibling_lives) {
      EXPECT_EQ(fork->System(nullptr), (std::vector<ExprRef>{a, b, sibling}));
      EXPECT_FALSE(fork->OnPath(own.get()));
    }
  }
}

// -- Hit and miss counters --------------------------------------------------

TEST(CacheCountersTest, EachMechanismBumpsItsOwnCounter) {
  InternScope intern;
  SolverCache cache;
  const ExprRef a = InputEq(0, 5);
  const ExprRef b = InputEq(1, 7);
  SolveContext ctx = PathContext({a});

  // Fresh solve: miss.
  const SolveResult first = cache.Solve(ctx, nullptr, {}, {});
  ASSERT_EQ(first.status, SolveStatus::kSat);
  EXPECT_EQ(cache.stats().misses, 1u);
  EXPECT_EQ(cache.stats().hits, 0u);

  // Same query again: its model is in the state's pool, so model
  // reuse answers with it.
  const SolveResult again = cache.Solve(ctx, nullptr, {}, {});
  ASSERT_EQ(again.status, SolveStatus::kSat);
  EXPECT_EQ(again.model, first.model);
  EXPECT_EQ(cache.stats().hits, 1u);

  // A branch onto a new byte is a fresh search (no pooled model sets
  // in[1]), but it pools the joint model {0:5, 1:7} on the state...
  ASSERT_EQ(cache.Solve(ctx, b, {}, {}).status, SolveStatus::kSat);
  EXPECT_EQ(cache.stats().misses, 2u);

  // ...which certifies these looser constraints without a search, on
  // the state or on a fork of it: model reuse.
  SolveContext fork = ctx;
  const ExprRef at_most = MakeBinOp(vm::Op::kCmpLeU, In(0), MakeConst(5));
  fork.Append(at_most);
  const ExprRef loose = MakeBinOp(vm::Op::kCmpLeU, In(1), MakeConst(7));
  const SolveResult reused = cache.Solve(fork, loose, {}, {});
  ASSERT_EQ(reused.status, SolveStatus::kSat);
  EXPECT_EQ(reused.steps, 0u) << "cache hits must report zero steps";
  EXPECT_TRUE(Satisfies({a, at_most, loose}, reused.model));
  EXPECT_EQ(reused.model.at(1), 7);
  EXPECT_EQ(cache.stats().hits, 2u)
      << "the looser query must be served by certified model reuse";
  EXPECT_EQ(cache.stats().hits + cache.stats().misses, 4u)
      << "hits + misses == counted queries";

  // A non-unary branch cannot be refuted from the domains: a UNSAT query
  // and an extension of it are both fresh searches.
  SolveContext both = PathContext({InputEq(2, 1), InputEq(2, 2)});
  ASSERT_EQ(cache.Solve(both, nullptr, {}, {}).status, SolveStatus::kUnsat);
  const ExprRef sum = MakeBinOp(
      vm::Op::kCmpNe, MakeBinOp(vm::Op::kAdd, In(2), In(0)), MakeConst(0));
  ASSERT_EQ(cache.Solve(both, sum, {}, {}).status, SolveStatus::kUnsat);
  EXPECT_EQ(cache.stats().misses, 4u);

  // A unary branch that empties its byte's domain: the branch wipeout
  // answers, as the zero-step miss the search would be.
  SolveContext narrowed = PathContext({b, InputEq(2, 1)});
  const SolveResult refuted = cache.Solve(narrowed, InputEq(2, 2), {}, {});
  ASSERT_EQ(refuted.status, SolveStatus::kUnsat);
  EXPECT_EQ(refuted.steps, 0u);
  EXPECT_EQ(cache.stats().misses, 5u);
  EXPECT_EQ(cache.stats().hits, 2u);
}

TEST(CacheCountersTest, OracleBackendBypassesEveryTier) {
  // With SolverOptions::backend set, Solve is the bare search: the same
  // query twice is two misses, a pooled model is never reused and a
  // wiped-out context answers nothing. The default path answers the
  // repeat by model reuse.
  InternScope intern;
  const std::vector<ExprRef> q = {InputEq(0, 5)};
  SolverOptions off;
  off.backend = &oracle::BacktrackSolver();

  SolverCache bypass;
  SolveContext ctx = PathContext(q);
  ASSERT_EQ(bypass.Solve(ctx, nullptr, {}, off).status, SolveStatus::kSat);
  ASSERT_EQ(bypass.Solve(ctx, nullptr, {}, off).status, SolveStatus::kSat);
  EXPECT_EQ(bypass.stats().hits, 0u);
  EXPECT_EQ(bypass.stats().misses, 2u);
  EXPECT_TRUE(ctx.recent_models().empty()) << "the bypass pools nothing";

  SolveContext wiped = PathContext({InputEq(2, 1)});
  ASSERT_EQ(bypass.Solve(wiped, InputEq(2, 2), {}, off).status,
            SolveStatus::kUnsat);
  EXPECT_EQ(bypass.stats().hits, 0u);
  EXPECT_EQ(bypass.stats().misses, 3u);

  SolverCache cache;
  SolveContext fresh_ctx = PathContext(q);
  ASSERT_EQ(cache.Solve(fresh_ctx, nullptr, {}, {}).status, SolveStatus::kSat);
  ASSERT_EQ(cache.Solve(fresh_ctx, nullptr, {}, {}).status, SolveStatus::kSat);
  EXPECT_EQ(cache.stats().hits, 1u);
  EXPECT_EQ(cache.stats().misses, 1u);
}

TEST(CacheCountersTest, CommittedBranchQueryIsAModelReuseHit) {
  // The executor's pattern: BranchFeasible asks the path plus each
  // direction, then commits one, so the committed state's next query
  // repeats that direction's query exactly. The model the branch query
  // pooled answers it, with zero steps; nothing else remembers it, so
  // a state whose pool never saw that model searches again.
  InternScope intern;
  const ExprRef coupled =
      MakeBinOp(vm::Op::kCmpEq, MakeBinOp(vm::Op::kAdd, In(0), In(1)),
                MakeConst(300));
  const ExprRef high = MakeBinOp(vm::Op::kCmpGtU, In(0), MakeConst(200));
  const ExprRef low = MakeBinOp(vm::Op::kCmpEq, high, MakeConst(0));
  SolverCache cache;
  SolveContext ctx = PathContext({coupled});
  ASSERT_EQ(cache.Solve(ctx, nullptr, {}, {}).status, SolveStatus::kSat);
  const SolveContext before_branch = ctx;

  const SolveResult branch = cache.Solve(ctx, high, {}, {});
  ASSERT_EQ(branch.status, SolveStatus::kSat);
  ASSERT_GT(branch.steps, 0u) << "the branch query must be a real search";
  ASSERT_EQ(cache.Solve(ctx, low, {}, {}).status, SolveStatus::kSat);

  // Commit the taken direction and ask the state's next query.
  ctx.Append(high);
  const SolverCache::Stats before = cache.stats();
  const SolveResult next = cache.Solve(ctx, nullptr, {}, {});
  EXPECT_EQ(next.status, SolveStatus::kSat);
  EXPECT_EQ(next.model, branch.model);
  EXPECT_EQ(next.steps, 0u);
  EXPECT_EQ(cache.stats().hits, before.hits + 1);
  EXPECT_EQ(cache.stats().misses, before.misses);

  // The same query from a state that never pooled the branch's model
  // is a fresh search, which finds the same model.
  SolveContext sibling = before_branch;
  sibling.Append(high);
  const SolveResult searched = cache.Solve(sibling, nullptr, {}, {});
  EXPECT_EQ(searched.model, branch.model);
  EXPECT_EQ(searched.steps, branch.steps);
  EXPECT_EQ(cache.stats().misses, before.misses + 1);
}

}  // namespace
}  // namespace octopocs::symex
