// SolverBackend differential suite: the propagation core against the
// legacy backtracker (the oracle in tests/oracle/).
//
// The contract under test is *answer identity*: for any preprocessed
// constraint system, every backend returns the same status, and on kSat
// the same effective byte assignment — the backends share one decision
// procedure (variable order, value order, filtering strength) and
// differ only in how fast they walk it. kUnsat must agree exactly
// (Type-III verdicts ride on its completeness). Under tiny step
// budgets the backends may disagree about *whether* they finished, but
// never about a definitive answer. With no budget in play the two cores
// walk the same decision tree step for step, so even their step counts
// match.
#include <gtest/gtest.h>

#include <cstdint>
#include <random>
#include <vector>

#include "oracle/oracle.h"
#include "symex/expr.h"
#include "symex/solver.h"

namespace octopocs::symex {
namespace {

ExprRef In(std::uint32_t off) { return MakeInput(off); }

ExprRef InputEq(std::uint32_t off, std::uint64_t val) {
  return MakeBinOp(vm::Op::kCmpEq, In(off), MakeConst(val));
}

/// Random expression tree over a small variable window. Mixes arithmetic,
/// bitwise ops, comparisons, negation, and byte extraction so the
/// compiled-program evaluator in the propagate core is exercised on every
/// node kind the tree-walking Eval handles.
ExprRef RandomExpr(std::mt19937& rng, int depth, std::uint32_t num_vars) {
  if (depth <= 0 || rng() % 4 == 0) {
    return rng() % 2 == 0 ? In(rng() % num_vars)
                          : MakeConst(rng() % 256);
  }
  switch (rng() % 12) {
    case 0:
      return MakeNot(RandomExpr(rng, depth - 1, num_vars));
    case 1:
      return MakeExtract(RandomExpr(rng, depth - 1, num_vars),
                         static_cast<std::uint8_t>(rng() % 2));
    default: {
      static const vm::Op kOps[] = {
          vm::Op::kAdd,   vm::Op::kSub,   vm::Op::kMul,   vm::Op::kAnd,
          vm::Op::kOr,    vm::Op::kXor,   vm::Op::kCmpEq, vm::Op::kCmpNe,
          vm::Op::kCmpLtU, vm::Op::kCmpLeU,
      };
      return MakeBinOp(kOps[rng() % (sizeof(kOps) / sizeof(kOps[0]))],
                       RandomExpr(rng, depth - 1, num_vars),
                       RandomExpr(rng, depth - 1, num_vars));
    }
  }
}

/// A random system: mostly comparison constraints (so a decent fraction
/// is satisfiable but not trivially), with optional forced-UNSAT pairs.
std::vector<ExprRef> RandomSystem(std::mt19937& rng, bool force_unsat) {
  const std::uint32_t num_vars = 2 + rng() % 6;
  std::vector<ExprRef> cs;
  const int n = 1 + static_cast<int>(rng() % 5);
  for (int i = 0; i < n; ++i) {
    cs.push_back(RandomExpr(rng, 1 + static_cast<int>(rng() % 3), num_vars));
  }
  if (force_unsat) {
    const std::uint32_t v = rng() % num_vars;
    cs.push_back(InputEq(v, 3));
    cs.push_back(InputEq(v, 4));
  }
  return cs;
}

/// Random PoC-byte value-ordering hints for a subset of the window.
Model RandomHints(std::mt19937& rng) {
  Model hints;
  const int n = static_cast<int>(rng() % 4);
  for (int i = 0; i < n; ++i) {
    hints[rng() % 8] = static_cast<std::uint8_t>(rng() % 256);
  }
  return hints;
}

/// The two cores under test: null selects the production propagate core.
const SolverBackend* const kPropagate = nullptr;
const SolverBackend* const kBacktrack = &oracle::BacktrackSolver();

SolveResult SolveUnder(const std::vector<ExprRef>& cs,
                       const SolverBackend* core,
                       const SolverOptions& base = {}) {
  SolverOptions options = base;
  options.backend = core;
  ByteSolver solver(options);
  for (const ExprRef& c : cs) solver.Add(c);
  return solver.Solve();
}

/// Effective-assignment equality over the constrained variables (absent
/// model entries read as 0 everywhere a model is consumed).
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

bool Definitive(SolveStatus s) {
  return s == SolveStatus::kSat || s == SolveStatus::kUnsat;
}

// -- Differential fuzz: propagate vs backtrack ------------------------------

TEST(BackendDifferential, FiveHundredRandomSystemsAgreeExactly) {
  std::mt19937 rng(20260807);
  int sat = 0, unsat = 0;
  for (int round = 0; round < 520; ++round) {
    InternScope intern;
    const std::vector<ExprRef> cs = RandomSystem(rng, (round % 5) == 4);
    SolverOptions base;
    base.hints = RandomHints(rng);
    const SolveResult oracle = SolveUnder(cs, kBacktrack, base);
    const SolveResult fast = SolveUnder(cs, kPropagate, base);
    ASSERT_EQ(fast.status, oracle.status) << "round " << round;
    if (oracle.status == SolveStatus::kSat) {
      ++sat;
      EXPECT_TRUE(SameAssignment(cs, fast.model, oracle.model))
          << "round " << round << ": first models must be byte-identical";
      EXPECT_TRUE(Satisfies(cs, fast.model)) << "round " << round;
    } else if (oracle.status == SolveStatus::kUnsat) {
      ++unsat;
    }
  }
  // The generator must actually exercise both verdicts, or the
  // differential proves nothing.
  EXPECT_GE(sat, 100);
  EXPECT_GE(unsat, 50);
}

TEST(BackendDifferential, GrowingPrefixReSolvesAgree) {
  // The exact P3 shape: a path's constraint prefix grows at each ep
  // encounter and is re-solved each time, inside one interning scope so
  // the node programs compiled for earlier rungs serve the later ones.
  // Every rung must match a cold backtrack solve of that rung: status,
  // first model and step count.
  std::mt19937 rng(31337);
  for (int round = 0; round < 60; ++round) {
    InternScope intern;
    std::vector<ExprRef> prefix;
    for (int stage = 0; stage < 4; ++stage) {
      const std::vector<ExprRef> extension =
          RandomSystem(rng, /*force_unsat=*/stage == 3 && (round % 3) == 0);
      prefix.insert(prefix.end(), extension.begin(), extension.end());
      const SolveResult fast = SolveUnder(prefix, kPropagate);
      const SolveResult oracle = SolveUnder(prefix, kBacktrack);
      ASSERT_EQ(fast.status, oracle.status)
          << "round " << round << " stage " << stage;
      EXPECT_EQ(fast.steps, oracle.steps)
          << "round " << round << " stage " << stage;
      if (oracle.status == SolveStatus::kSat) {
        EXPECT_TRUE(SameAssignment(prefix, fast.model, oracle.model))
            << "round " << round << " stage " << stage;
        EXPECT_TRUE(Satisfies(prefix, fast.model))
            << "round " << round << " stage " << stage;
      }
      if (oracle.status == SolveStatus::kUnsat) break;
    }
  }
}

TEST(BackendDifferential, BudgetEdgesNeverContradict) {
  // Under tiny step budgets a backend may run out (kUnknown) where the
  // other finishes — that asymmetry is allowed. What is not allowed is
  // two *definitive* answers that disagree, or a model that fails its
  // own constraints.
  std::mt19937 rng(5150);
  for (int round = 0; round < 200; ++round) {
    InternScope intern;
    const std::vector<ExprRef> cs = RandomSystem(rng, (round % 4) == 3);
    SolverOptions tight;
    tight.max_steps = rng() % 24;
    const SolveResult a = SolveUnder(cs, kBacktrack, tight);
    const SolveResult b = SolveUnder(cs, kPropagate, tight);
    if (Definitive(a.status) && Definitive(b.status)) {
      ASSERT_EQ(a.status, b.status) << "round " << round;
      if (a.status == SolveStatus::kSat) {
        EXPECT_TRUE(SameAssignment(cs, a.model, b.model)) << "round "
                                                          << round;
      }
    }
    if (b.status == SolveStatus::kSat) {
      EXPECT_TRUE(Satisfies(cs, b.model)) << "round " << round;
    }
  }
}

}  // namespace
}  // namespace octopocs::symex
