// Node-attached constraint programs and the dense model-reuse tier,
// checked against their slow oracles.
//
// ProgramFor lowers an interned node once and publishes the program on
// the node; RunProgram must equal the tree-walking Eval on every node
// kind and every binary ALU op. ReuseCertifiedModel evaluates candidate
// models through those programs over a dense offset-indexed byte array;
// it must return the same hit/miss and the very same Model as the
// std::map evaluator it replaced, which lives on here as the oracle.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <random>
#include <thread>
#include <vector>

#include "symex/expr.h"
#include "symex/solver.h"
#include "vm/op_info.h"

namespace octopocs::symex {
namespace {

/// The std::map model-reuse evaluator the SolverCache used before node
/// programs: per candidate, a Model over the constrained variables and a
/// tree-walking Eval of every constraint.
bool OracleReuse(const std::vector<ExprRef>& constraints, const Model& pins,
                 const Model& hints, const std::vector<Model>& pool,
                 Model* out) {
  SortedSmallSet<std::uint32_t> vars;
  for (const ExprRef& c : constraints) vars.UnionWith(FreeVars(c));
  for (std::size_t i = pool.size() + 1; i-- > 0;) {
    const Model* reuse = i == 0 ? nullptr : &pool[i - 1];
    Model candidate;
    for (const std::uint32_t var : vars) {
      if (const auto pin = pins.find(var); pin != pins.end()) {
        candidate[var] = pin->second;
      } else if (reuse != nullptr && reuse->count(var) != 0) {
        candidate[var] = reuse->at(var);
      } else if (const auto hint = hints.find(var); hint != hints.end()) {
        candidate[var] = hint->second;
      }
    }
    bool satisfied = true;
    for (const ExprRef& c : constraints) {
      if (Eval(c, candidate) == 0) {
        satisfied = false;
        break;
      }
    }
    if (satisfied) {
      *out = std::move(candidate);
      return true;
    }
  }
  return false;
}

std::vector<vm::Op> BinaryAluOps() {
  std::vector<vm::Op> ops;
  for (std::size_t i = 0; i < vm::kOpCount; ++i) {
    const auto op = static_cast<vm::Op>(i);
    if (vm::GetOpInfo(op).is_binary_alu) ops.push_back(op);
  }
  return ops;
}

/// Random interned DAG builder. New nodes draw their operands from the
/// nodes built so far, so subtrees are shared across constraints and
/// within one constraint; every binary ALU op, Not and Extract appear.
class DagBuilder {
 public:
  DagBuilder(std::mt19937& rng, std::uint32_t num_vars)
      : rng_(rng), ops_(BinaryAluOps()) {
    for (std::uint32_t v = 0; v < num_vars; ++v) {
      pool_.push_back(MakeInput(Spread(v)));
    }
    pool_.push_back(MakeConst(rng_() % 256));
    pool_.push_back(MakeConst(rng_()));
  }

  /// Offsets are spread out so the dense arrays cover gaps.
  static std::uint32_t Spread(std::uint32_t v) { return v * 37 + v % 3; }

  ExprRef Next() {
    ExprRef e;
    switch (rng_() % 10) {
      case 0:
        e = MakeNot(Pick());
        break;
      case 1:
        e = MakeExtract(Pick(), static_cast<std::uint8_t>(rng_() % 8));
        break;
      case 2:
        e = MakeBinOp(ops_[rng_() % ops_.size()], Pick(),
                      MakeConst(rng_() % 70));
        break;
      default:
        e = MakeBinOp(ops_[rng_() % ops_.size()], Pick(), Pick());
        break;
    }
    pool_.push_back(e);
    return e;
  }

  /// A constraint: a comparison over DAG nodes, so a fair share holds.
  ExprRef Constraint() {
    static const vm::Op kCmps[] = {vm::Op::kCmpEq,  vm::Op::kCmpNe,
                                   vm::Op::kCmpLtU, vm::Op::kCmpLeU,
                                   vm::Op::kCmpGtU, vm::Op::kCmpGeU};
    if (rng_() % 3 == 0) return Next();  // a bare node: nonzero-ness
    return MakeBinOp(kCmps[rng_() % 6], Next(), Pick());
  }

  ExprRef Pick() { return pool_[rng_() % pool_.size()]; }

 private:
  std::mt19937& rng_;
  std::vector<vm::Op> ops_;
  std::vector<ExprRef> pool_;
};

Model RandomModel(std::mt19937& rng, std::uint32_t num_vars, int density) {
  Model m;
  for (std::uint32_t v = 0; v < num_vars; ++v) {
    if (static_cast<int>(rng() % 100) < density) {
      m[DagBuilder::Spread(v)] = static_cast<std::uint8_t>(rng() % 256);
    }
  }
  return m;
}

std::uint64_t RunDense(const ExprRef& e, const Model& model) {
  std::vector<std::uint8_t> vals(DagBuilder::Spread(64), 0);
  for (const auto& [off, val] : model) vals[off] = val;
  const ExprProgram& program = ProgramFor(e);
  std::vector<std::uint64_t> scratch(program.steps.size());
  return RunProgram(program, vals.data(), scratch.data());
}

TEST(NodeProgram, EqualsEvalOnRandomSharedDags) {
  std::mt19937 rng(20261017);
  const std::size_t op_count = BinaryAluOps().size();
  ASSERT_GE(op_count, 15u) << "every binary ALU op should be exercised";
  for (int round = 0; round < 200; ++round) {
    InternScope intern;
    const std::uint32_t num_vars = 1 + rng() % 6;
    DagBuilder dag(rng, num_vars);
    for (int n = 0; n < 30; ++n) {
      const ExprRef e = dag.Next();
      for (int trial = 0; trial < 4; ++trial) {
        const Model model = RandomModel(rng, num_vars, 70);
        ASSERT_EQ(RunDense(e, model), Eval(e, model))
            << "round " << round << ": " << ToString(e);
      }
    }
  }
}

TEST(NodeProgram, IsPublishedOncePerNode) {
  InternScope intern;
  const ExprRef x = MakeBinOp(vm::Op::kAdd, MakeInput(3), MakeInput(5));
  const ExprRef shared = MakeBinOp(vm::Op::kMul, x, x);
  const ExprProgram& first = ProgramFor(shared);
  EXPECT_EQ(&ProgramFor(shared), &first);
  // The shared child lowers once: in[3], in[5], add, mul.
  EXPECT_EQ(first.steps.size(), 4u);
  // Interning hands back the same node, and so the same program.
  EXPECT_EQ(&ProgramFor(MakeBinOp(vm::Op::kMul, x, x)), &first);
}

TEST(NodeProgram, ConcurrentProgramForPublishesOneProgram) {
  // Four threads race to lower the same shared nodes. Every thread must
  // see one published program per node, and its value must match Eval.
  std::mt19937 rng(4);
  InternScope intern;
  DagBuilder dag(rng, 6);
  std::vector<ExprRef> nodes;
  for (int n = 0; n < 300; ++n) nodes.push_back(dag.Constraint());
  const Model model = RandomModel(rng, 6, 100);

  constexpr int kThreads = 4;
  std::vector<std::vector<const ExprProgram*>> seen(kThreads);
  std::atomic<int> mismatches{0};
  std::atomic<bool> go{false};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      while (!go.load(std::memory_order_acquire)) {
      }
      for (std::size_t i = 0; i < nodes.size(); ++i) {
        const std::size_t n = t % 2 == 0 ? i : nodes.size() - 1 - i;
        seen[t].push_back(&ProgramFor(nodes[n]));
        if (RunDense(nodes[n], model) != Eval(nodes[n], model)) {
          mismatches.fetch_add(1);
        }
      }
    });
  }
  go.store(true, std::memory_order_release);
  for (std::thread& th : threads) th.join();

  EXPECT_EQ(mismatches.load(), 0);
  for (int t = 0; t < kThreads; ++t) {
    ASSERT_EQ(seen[t].size(), nodes.size());
    for (std::size_t i = 0; i < nodes.size(); ++i) {
      const std::size_t n = t % 2 == 0 ? i : nodes.size() - 1 - i;
      EXPECT_EQ(seen[t][i], &ProgramFor(nodes[n])) << "thread " << t;
    }
  }
}

TEST(DenseModelReuse, MatchesTheMapOracleOnGrowingQueries) {
  // Prefix-then-extension query sequences, the P2/P3 shape: each rung
  // appends constraints, pins some bytes and carries hints; the pool
  // holds models of earlier rungs (reused or freshly searched) plus
  // random noise.
  std::mt19937 rng(777);
  int hits = 0, misses = 0;
  for (int round = 0; round < 300; ++round) {
    InternScope intern;
    const std::uint32_t num_vars = 2 + rng() % 6;
    DagBuilder dag(rng, num_vars);
    const Model hints = RandomModel(rng, num_vars, 60);
    Model pins;
    std::vector<Model> pool;
    std::vector<ExprRef> query;
    for (int rung = 0; rung < 6; ++rung) {
      const int grow = 1 + static_cast<int>(rng() % 2);
      for (int k = 0; k < grow; ++k) query.push_back(dag.Constraint());
      if (rng() % 2 == 0) {
        const std::uint32_t v = DagBuilder::Spread(rng() % num_vars);
        pins[v] = static_cast<std::uint8_t>(rng() % 256);
        query.push_back(MakeBinOp(vm::Op::kCmpEq, MakeInput(v),
                                  MakeConst(pins[v])));
      }
      pool.push_back(RandomModel(rng, num_vars, 50));

      Model expect, got;
      const bool oracle_hit = OracleReuse(query, pins, hints, pool, &expect);
      const bool dense_hit =
          ReuseCertifiedModel(query, pins, hints, pool, &got);
      ASSERT_EQ(dense_hit, oracle_hit) << "round " << round << " rung "
                                       << rung;
      if (oracle_hit) {
        ++hits;
        EXPECT_EQ(got, expect) << "round " << round << " rung " << rung;
        pool.push_back(got);  // a hit joins the pool, as in the cache
      } else {
        ++misses;
        // A miss is searched fresh, and its model joins the pool.
        SolverOptions options;
        options.hints = hints;
        options.max_steps = 20'000;
        ByteSolver solver(options);
        for (const ExprRef& c : query) solver.Add(c);
        const SolveResult fresh = solver.Solve();
        if (fresh.status == SolveStatus::kUnsat) break;
        if (fresh.status == SolveStatus::kSat) pool.push_back(fresh.model);
      }
      if (pool.size() > 4) pool.erase(pool.begin());
    }
  }
  // Both outcomes must be common, or the comparison proves little.
  EXPECT_GE(hits, 150);
  EXPECT_GE(misses, 150);
}

TEST(DenseModelReuse, AbsentVariablesStayAbsent) {
  // A variable with no pin, no pool value and no hint reads as 0 and is
  // left out of the returned model, exactly like the oracle's.
  InternScope intern;
  const std::vector<ExprRef> query = {
      MakeBinOp(vm::Op::kCmpLtU, MakeInput(9), MakeConst(4)),
      MakeBinOp(vm::Op::kCmpEq, MakeInput(2), MakeConst(6)),
  };
  const Model hints = {{2, 6}};
  Model got, expect;
  ASSERT_TRUE(ReuseCertifiedModel(query, {}, hints, {}, &got));
  ASSERT_TRUE(OracleReuse(query, {}, hints, {}, &expect));
  EXPECT_EQ(got, expect);
  EXPECT_EQ(got, (Model{{2, 6}}));
}

}  // namespace
}  // namespace octopocs::symex
