// Solver memoization: a cached verdict must always equal what a fresh
// solve would return. Exact-key hits may return any verdict; model-reuse
// hits must be certificates (the returned model satisfies every
// constraint) and can never manufacture a kUnsat. Also covers the cache
// front door (SolverCache::Solve), context-wipeout subsumption, and
// solve-context seeding.
#include <gtest/gtest.h>

#include <cstdint>
#include <random>
#include <vector>

#include "symex/expr.h"
#include "symex/solve_context.h"
#include "symex/solver.h"

namespace octopocs::symex {
namespace {

ExprRef In(std::uint32_t off) { return MakeInput(off); }

ExprRef InputEq(std::uint32_t off, std::uint64_t val) {
  return MakeBinOp(vm::Op::kCmpEq, MakeInput(off), MakeConst(val));
}

SolveResult FreshSolve(const std::vector<ExprRef>& constraints,
                       const SolverOptions& options = {}) {
  ByteSolver solver(options);
  for (const ExprRef& c : constraints) solver.Add(c);
  return solver.Solve();
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
  const std::vector<ExprRef> constraints = {InputEq(0, 65), InputEq(1, 66)};

  EXPECT_EQ(cache.Lookup(constraints, {}, {}), nullptr);
  EXPECT_EQ(cache.stats().misses, 1u);

  const SolveResult fresh = FreshSolve(constraints);
  ASSERT_EQ(fresh.status, SolveStatus::kSat);
  cache.Insert(constraints, fresh);

  const SolveResult* hit = cache.Lookup(constraints, {}, {});
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(cache.stats().hits, 1u);
  EXPECT_EQ(hit->status, fresh.status);
  EXPECT_EQ(hit->model, fresh.model);
}

TEST(SolverCacheTest, ExactKeyHitMayReturnUnsat) {
  InternScope intern;
  SolverCache cache;
  // in[0] == 1 && in[0] == 2 is unsatisfiable.
  const std::vector<ExprRef> constraints = {InputEq(0, 1), InputEq(0, 2)};
  const SolveResult fresh = FreshSolve(constraints);
  ASSERT_EQ(fresh.status, SolveStatus::kUnsat);
  cache.Insert(constraints, fresh);

  const SolveResult* hit = cache.Lookup(constraints, {}, {});
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(hit->status, SolveStatus::kUnsat)
      << "an exact sequence match is provably the same query";
}

TEST(SolverCacheTest, ModelReuseHitEqualsFreshSolveAndCertifies) {
  InternScope intern;
  SolverCache cache;
  std::vector<ExprRef> prefix = {InputEq(0, 10), InputEq(1, 20)};
  cache.Insert(prefix, FreshSolve(prefix));

  // Extend the path the way the executor does: append one constraint the
  // cached model already satisfies (in[0] != 0).
  std::vector<ExprRef> extended = prefix;
  extended.push_back(
      MakeBinOp(vm::Op::kCmpNe, MakeInput(0), MakeConst(0)));

  const SolveResult* hit = cache.Lookup(extended, {}, {});
  ASSERT_NE(hit, nullptr) << "cached model satisfies the extension";
  EXPECT_EQ(hit->status, SolveStatus::kSat);
  for (const ExprRef& c : extended) {
    EXPECT_NE(Eval(c, hit->model), 0u)
        << "a reuse hit must certify every constraint";
  }
  EXPECT_EQ(hit->status, FreshSolve(extended).status);
}

TEST(SolverCacheTest, PinsOverrideTheCachedModel) {
  InternScope intern;
  SolverCache cache;
  std::vector<ExprRef> prefix = {
      MakeBinOp(vm::Op::kCmpNe, MakeInput(0), MakeConst(7))};
  SolveResult seed = FreshSolve(prefix);
  ASSERT_EQ(seed.status, SolveStatus::kSat);
  cache.Insert(prefix, std::move(seed));

  // Pin in[1] = 42 and require it in the constraints, the shape P3's
  // bunch placement produces. The cached model knows nothing about
  // in[1]; the pin overlay must supply it.
  std::vector<ExprRef> extended = prefix;
  extended.push_back(InputEq(1, 42));
  const Model pins = {{1, 42}};

  const SolveResult* hit = cache.Lookup(extended, pins, {});
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(hit->status, SolveStatus::kSat);
  EXPECT_EQ(hit->model.at(1), 42);
  EXPECT_EQ(hit->status, FreshSolve(extended).status);
}

TEST(SolverCacheTest, HintsFillFreshVariablesLikeAFreshSolveWould) {
  InternScope intern;
  SolverCache cache;
  std::vector<ExprRef> prefix = {InputEq(0, 3)};
  cache.Insert(prefix, FreshSolve(prefix));

  // The extension constrains a byte no cached model has seen; only the
  // hint (the original PoC's byte) satisfies it.
  std::vector<ExprRef> extended = prefix;
  extended.push_back(InputEq(5, 77));
  const Model hints = {{5, 77}};

  const SolveResult* hit = cache.Lookup(extended, {}, hints);
  ASSERT_NE(hit, nullptr) << "hint overlay should certify the extension";
  EXPECT_EQ(hit->model.at(5), 77);

  // The returned model covers only constrained variables — a hint for an
  // unconstrained byte must not appear (it would change poc' emission).
  const Model wide_hints = {{5, 77}, {200, 9}};
  const SolveResult* hit2 = cache.Lookup(extended, {}, wide_hints);
  ASSERT_NE(hit2, nullptr);
  EXPECT_EQ(hit2->model.count(200), 0u);
}

TEST(SolverCacheTest, UnsatisfiableExtensionMissesInsteadOfGuessing) {
  InternScope intern;
  SolverCache cache;
  std::vector<ExprRef> prefix = {InputEq(0, 10)};
  cache.Insert(prefix, FreshSolve(prefix));

  // The extension contradicts the prefix: no candidate can certify it,
  // so Lookup must miss — never report kUnsat from reuse.
  std::vector<ExprRef> extended = prefix;
  extended.push_back(InputEq(0, 11));
  EXPECT_EQ(cache.Lookup(extended, {}, {}), nullptr);
  EXPECT_EQ(FreshSolve(extended).status, SolveStatus::kUnsat);
}

TEST(SolverCacheTest, CachedVerdictsMatchFreshSolvesAcrossAWorkload) {
  InternScope intern;
  SolverCache cache;
  // Simulate an executor's query stream: a growing constraint sequence
  // with occasional pins, checking every cache answer against a fresh
  // solver on the same system.
  std::vector<ExprRef> constraints;
  Model pins;
  Model hints;
  for (std::uint32_t i = 0; i < 24; ++i) hints[i] = static_cast<uint8_t>(i);
  for (std::uint32_t i = 0; i < 24; ++i) {
    constraints.push_back(i % 3 == 0
                              ? InputEq(i, i)
                              : MakeBinOp(vm::Op::kCmpNe, MakeInput(i),
                                          MakeConst(255)));
    if (i % 5 == 0) pins[i] = static_cast<uint8_t>(i);

    SolveStatus got;
    if (const SolveResult* hit = cache.Lookup(constraints, pins, hints)) {
      got = hit->status;
      if (hit->status == SolveStatus::kSat) {
        for (const ExprRef& c : constraints) {
          ASSERT_NE(Eval(c, hit->model), 0u);
        }
      }
    } else {
      got = cache.Insert(constraints, FreshSolve(constraints)).status;
    }
    EXPECT_EQ(got, FreshSolve(constraints).status) << "query " << i;
  }
  EXPECT_GT(cache.stats().hits, 0u) << "the workload should produce hits";
}

// -- Cache front door ≡ monolithic solving --------------------------------
//
// The load-bearing property: every answer the SolverCache front door
// produces — whichever mechanism produced it — must equal what a fresh
// monolithic ByteSolver search over the same constraint sequence
// returns, byte for byte.

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
    SolverCache cache;
    const SolveResult cached = cache.Solve(cs, {}, {}, nullptr);
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
  // agree: one cold, one warmed with each slice separately.
  InternScope intern;
  const std::vector<ExprRef> cs = {
      MakeBinOp(vm::Op::kCmpLtU, In(0), MakeConst(9)),
      InputEq(4, 200),
      MakeBinOp(vm::Op::kCmpLeU, In(8), In(9)),
  };
  SolverCache cold;
  const SolveResult a = cold.Solve(cs, {}, {}, nullptr);

  SolverCache warm;
  (void)warm.Solve({cs[0]}, {}, {}, nullptr);
  (void)warm.Solve({cs[1]}, {}, {}, nullptr);
  (void)warm.Solve({cs[2]}, {}, {}, nullptr);
  const SolveResult b = warm.Solve(cs, {}, {}, nullptr);

  EXPECT_EQ(a.status, b.status);
  EXPECT_TRUE(SameAssignment(cs, a.model, b.model));
  EXPECT_GE(warm.stats().hits, 1u)
      << "the warmed cache should answer the joint query from cache";
}

// -- Subsumption -----------------------------------------------------------

TEST(SubsumptionTest, NeverFlipsASatisfiableQuery) {
  // Warm a cache with many UNSAT systems, then stress it with random
  // *satisfiable* queries: none may come back kUnsat.
  std::mt19937 rng(99);
  InternScope intern;
  SolverCache cache;
  for (std::uint32_t v = 0; v < 6; ++v) {
    (void)cache.Solve({InputEq(v, 1), InputEq(v, 2)}, {}, {}, nullptr);
  }
  for (int round = 0; round < 40; ++round) {
    const std::vector<ExprRef> cs = RandomSystem(rng, /*force_unsat=*/false);
    const SolveResult fresh = FreshSolve(cs);
    const SolveResult cached = cache.Solve(cs, {}, {}, nullptr);
    ASSERT_EQ(cached.status, fresh.status)
        << "round " << round << ": subsumption flipped a verdict";
    if (fresh.status == SolveStatus::kSat) {
      // A warm cache may serve a *different* model than a cold search
      // (certified reuse), but whatever it serves must be a certificate.
      EXPECT_TRUE(Satisfies(cs, cached.model)) << "round " << round;
    }
  }
}

// -- SolveContext seeding --------------------------------------------------

TEST(SolveContextTest, SeededSearchIsBitIdenticalIncludingSteps) {
  std::mt19937 rng(4321);
  for (int round = 0; round < 40; ++round) {
    InternScope intern;
    const std::vector<ExprRef> cs = RandomSystem(rng, (round % 5) == 4);

    SolveContext ctx;
    for (const ExprRef& c : cs) ctx.Apply(c);

    SolverOptions with_ctx;
    with_ctx.context = &ctx;
    const SolveResult seeded = FreshSolve(cs, with_ctx);
    const SolveResult plain = FreshSolve(cs, {});

    ASSERT_EQ(seeded.status, plain.status) << "round " << round;
    EXPECT_EQ(seeded.model, plain.model) << "round " << round;
    EXPECT_EQ(seeded.steps, plain.steps)
        << "round " << round
        << ": context seeding may only skip prefilter evaluations, "
           "never change the search";
  }
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
      cache.Solve({InputEq(3, 10), InputEq(3, 11)}, {}, {}, &query_ctx);
  EXPECT_EQ(r.status, SolveStatus::kUnsat);
  EXPECT_EQ(cache.stats().subsumption_hits, 1u);
}

// -- Per-mechanism hit counters --------------------------------------------

TEST(CacheCountersTest, EachMechanismBumpsItsOwnCounter) {
  InternScope intern;
  SolverCache cache;
  const ExprRef a = InputEq(0, 5);
  const ExprRef b = InputEq(1, 7);

  // Fresh solve: miss.
  ASSERT_EQ(cache.Solve({a}, {}, {}, nullptr).status, SolveStatus::kSat);
  EXPECT_EQ(cache.stats().misses, 1u);
  EXPECT_EQ(cache.stats().hits, 0u);

  // Same sequence again: exact hit.
  ASSERT_EQ(cache.Solve({a}, {}, {}, nullptr).status, SolveStatus::kSat);
  EXPECT_EQ(cache.stats().exact_hits, 1u);

  // A new joint query is a fresh search (the slicing tier that once
  // stitched {a} and {b} answers together is retired), but it caches
  // the joint model {0:5, 1:7}...
  ASSERT_EQ(cache.Solve({a, b}, {}, {}, nullptr).status, SolveStatus::kSat);
  EXPECT_EQ(cache.stats().misses, 2u);

  // ...which certifies this relaxation without a search: model reuse.
  const std::vector<ExprRef> relaxed = {
      MakeBinOp(vm::Op::kCmpLeU, In(0), MakeConst(5)),
      MakeBinOp(vm::Op::kCmpLeU, In(1), MakeConst(7)),
  };
  const SolveResult reused = cache.Solve(relaxed, {}, {}, nullptr);
  ASSERT_EQ(reused.status, SolveStatus::kSat);
  EXPECT_EQ(reused.steps, 0u) << "cache hits must report zero steps";
  EXPECT_TRUE(Satisfies(relaxed, reused.model));
  const SolverCache::Stats s = cache.stats();
  EXPECT_EQ(s.hits + s.misses, 4u) << "hits + misses == counted queries";
  EXPECT_EQ(s.hits, s.exact_hits + s.model_reuse_hits + s.subsumption_hits)
      << "per-mechanism counters partition the hit total";
  EXPECT_GE(s.model_reuse_hits, 1u)
      << "the relaxed query must be served by certified model reuse";

  // Without a context nothing proves a query UNSAT in advance: a UNSAT
  // system and a superset of it are both fresh searches.
  ASSERT_EQ(cache.Solve({InputEq(2, 1), InputEq(2, 2)}, {}, {}, nullptr)
                .status,
            SolveStatus::kUnsat);
  ASSERT_EQ(
      cache.Solve({a, InputEq(2, 1), InputEq(2, 2)}, {}, {}, nullptr).status,
      SolveStatus::kUnsat);
  EXPECT_EQ(cache.stats().misses, 4u);
  EXPECT_EQ(cache.stats().subsumption_hits, 0u);

  // A context whose unary domain for in[2] wiped out: subsumption.
  SolveContext ctx;
  ctx.Apply(InputEq(2, 1));
  ctx.Apply(InputEq(2, 2));
  ASSERT_TRUE(ctx.known_unsat());
  ASSERT_EQ(cache.Solve({b, InputEq(2, 1), InputEq(2, 2)}, {}, {}, &ctx)
                .status,
            SolveStatus::kUnsat);
  EXPECT_EQ(cache.stats().subsumption_hits, 1u);
  EXPECT_EQ(cache.stats().misses, 4u);
}

}  // namespace
}  // namespace octopocs::symex
