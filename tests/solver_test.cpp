// The solver front door: satisfiable systems produce verifying models;
// unsatisfiable systems are proven Unsat (that verdict becomes the
// paper's Type-III).
#include <gtest/gtest.h>

#include "solve_once.h"
#include "support/rng.h"

namespace octopocs::symex {
namespace {

using vm::Op;

ExprRef In(std::uint32_t o) { return MakeInput(o); }
ExprRef C(std::uint64_t v) { return MakeConst(v); }
ExprRef Eq(ExprRef e, std::uint64_t v) {
  return MakeBinOp(Op::kCmpEq, std::move(e), C(v));
}
/// A model byte; absent bytes read as 0, as everywhere a model is used.
std::uint64_t Byte(const Model& model, std::uint32_t off) {
  return Eval(In(off), model);
}

TEST(Solver, DirectEquality) {
  const auto r = SolveOnce({Eq(In(3), 0x41)});
  ASSERT_EQ(r.status, SolveStatus::kSat);
  EXPECT_EQ(r.model.at(3), 0x41);
}

TEST(Solver, MultiByteFieldEquality) {
  // Little-endian 16-bit field (in[0] | in[1]<<8) == 0x013D — the TIFF
  // tag shape from the motivating example.
  const auto field =
      MakeBinOp(Op::kOr, In(0), MakeBinOp(Op::kShl, In(1), C(8)));
  const auto r = SolveOnce({Eq(field, 0x013D)});
  ASSERT_EQ(r.status, SolveStatus::kSat);
  EXPECT_EQ(r.model.at(0), 0x3D);
  EXPECT_EQ(r.model.at(1), 0x01);
}

TEST(Solver, SumAcrossBytes) {
  const auto r = SolveOnce({Eq(MakeBinOp(Op::kAdd, In(0), In(1)), 0x110)});
  ASSERT_EQ(r.status, SolveStatus::kSat);
  EXPECT_EQ(r.model.at(0) + r.model.at(1), 0x110);
}

TEST(Solver, RangeConstraintPrefersZero) {
  const auto r = SolveOnce({MakeBinOp(Op::kCmpLtU, In(5), C(0x10))});
  ASSERT_EQ(r.status, SolveStatus::kSat);
  EXPECT_EQ(Byte(r.model, 5), 0u);
}

TEST(Solver, ContradictionIsUnsat) {
  EXPECT_EQ(SolveOnce({Eq(In(0), 1), Eq(In(0), 2)}).status,
            SolveStatus::kUnsat);
}

TEST(Solver, ImpossibleByteValueIsUnsat) {
  // A byte can never equal 0x1234.
  EXPECT_EQ(SolveOnce({Eq(In(0), 0x1234)}).status, SolveStatus::kUnsat);
}

TEST(Solver, CrossVariableConflictIsUnsat) {
  // in[0] < in[1], in[1] < in[0] — no ordering satisfies both.
  EXPECT_EQ(SolveOnce({MakeBinOp(Op::kCmpLtU, In(0), In(1)),
                       MakeBinOp(Op::kCmpLtU, In(1), In(0))})
                .status,
            SolveStatus::kUnsat);
}

TEST(Solver, PatchGuardConflictShape) {
  // The Idx-13/14 mechanism: a bunch pins a length field to a large
  // value while the patched T requires it below a bound.
  const auto len =
      MakeBinOp(Op::kOr, In(4), MakeBinOp(Op::kShl, In(5), C(8)));
  EXPECT_EQ(SolveOnce({Eq(len, 0xFFFF),                          // primitive
                       MakeBinOp(Op::kCmpLtU, len, C(0x100))})  // guard
                .status,
            SolveStatus::kUnsat);
}

TEST(Solver, PinsInteractWithConstraints) {
  const auto r = SolveOnce(
      {Eq(In(2), 7), Eq(MakeBinOp(Op::kAdd, In(2), In(3)), 10)});
  ASSERT_EQ(r.status, SolveStatus::kSat);
  EXPECT_EQ(r.model.at(2), 7);
  EXPECT_EQ(r.model.at(3), 3);
}

TEST(Solver, SolveWithExtraConstraints) {
  const ExprRef below4 = MakeBinOp(Op::kCmpLtU, In(0), C(4));
  EXPECT_EQ(SolveOnce({below4, Eq(In(0), 3)}).status, SolveStatus::kSat);
  EXPECT_EQ(SolveOnce({below4, Eq(In(0), 9)}).status, SolveStatus::kUnsat);
}

TEST(Solver, EmptySystemIsTriviallySat) {
  EXPECT_EQ(SolveOnce({}).status, SolveStatus::kSat);
}

TEST(Solver, BudgetYieldsUnknown) {
  // Five coupled variables and a near-exhaustive search with a 1-step
  // budget must bail out as Unknown rather than loop forever.
  SolverOptions opts;
  opts.max_steps = 1;
  ExprRef sum = In(0);
  for (std::uint32_t i = 1; i < 5; ++i) {
    sum = MakeBinOp(Op::kAdd, std::move(sum), In(i));
  }
  EXPECT_EQ(SolveOnce({Eq(sum, 600)}, opts).status, SolveStatus::kUnknown);
}

// Property: random satisfiable systems (generated from a hidden model)
// always solve, and the returned model verifies every constraint.
class SolverSoundness : public ::testing::TestWithParam<int> {};

TEST_P(SolverSoundness, ModelVerifies) {
  Rng rng(1000 + GetParam());
  // Hidden assignment over up to 8 variables.
  const std::size_t n_vars = 2 + rng.Below(7);
  Model hidden;
  for (std::size_t i = 0; i < n_vars; ++i) {
    hidden[static_cast<std::uint32_t>(i)] =
        static_cast<std::uint8_t>(rng.Next());
  }
  // Derive constraints that the hidden model satisfies by construction.
  std::vector<ExprRef> constraints;
  const std::size_t n_constraints = 1 + rng.Below(8);
  for (std::size_t c = 0; c < n_constraints; ++c) {
    const auto a = static_cast<std::uint32_t>(rng.Below(n_vars));
    const auto b = static_cast<std::uint32_t>(rng.Below(n_vars));
    ExprRef e;
    switch (rng.Below(4)) {
      case 0:
        e = MakeBinOp(Op::kAdd, In(a), In(b));
        break;
      case 1:
        e = MakeBinOp(Op::kXor, In(a), In(b));
        break;
      case 2:
        e = MakeBinOp(Op::kOr, In(a), MakeBinOp(Op::kShl, In(b), C(8)));
        break;
      default:
        e = MakeBinOp(Op::kMul, In(a), C(1 + rng.Below(5)));
        break;
    }
    const std::uint64_t value = Eval(e, hidden);
    const auto constraint = MakeBinOp(Op::kCmpEq, e, C(value));
    constraints.push_back(constraint);
  }
  const auto r = SolveOnce(constraints);
  ASSERT_EQ(r.status, SolveStatus::kSat);
  for (const auto& c : constraints) {
    EXPECT_NE(Eval(c, r.model), 0u) << ToString(c);
  }
}

INSTANTIATE_TEST_SUITE_P(RandomSystems, SolverSoundness,
                         ::testing::Range(0, 30));

}  // namespace
}  // namespace octopocs::symex
