// Node-attached constraint programs and the dense model-reuse tier,
// checked against their slow oracles.
//
// ProgramFor lowers an interned node once and publishes the program on
// the node; RunProgram must equal the tree-walking Eval on every node
// kind and every binary ALU op, and the 256-lane UnaryDomain must equal
// RunProgram value for value. SolveContext::Reuse evaluates candidate
// models through those programs over a dense offset-indexed byte array,
// checking only what a candidate's certificate does not cover; it must
// return the same hit/miss and the very same Model as the std::map
// evaluator over the whole query, which lives on here as the oracle.
// ConcatPins derives a concat equality's byte pins once per node and
// publishes them the same way.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "solve_once.h"
#include "symex/expr.h"
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

/// RunProgram at every value of in[var], every other byte 0, as a mask:
/// what UnaryDomain computes in one 256-lane pass.
ByteDomain ValueByValue(const ExprRef& e, std::uint32_t var) {
  std::vector<std::uint8_t> vals(var + 1, 0);
  const ExprProgram& program = ProgramFor(e);
  std::vector<std::uint64_t> scratch(program.steps.size());
  ByteDomain dom;
  for (unsigned v = 0; v < 256; ++v) {
    vals[var] = static_cast<std::uint8_t>(v);
    if (RunProgram(program, vals.data(), scratch.data()) == 0) dom.Reset(v);
  }
  return dom;
}

TEST(NodeProgram, UnaryDomainEqualsRunProgramOnEveryValue) {
  // Every binary ALU op with the byte on either side or both, against
  // constants that reach the edges (division and remainder by zero,
  // shift counts of 64 and more), every extract lane, Not, and
  // programs that do not read the byte at all. Each is checked bare and
  // under comparisons, so the masks are neither all nor nothing.
  InternScope intern;
  const std::uint32_t var = 5;
  const ExprRef x = MakeInput(var);
  const std::uint64_t ks[] = {0,   1,   2,      7,     8,       63,
                              64,  65,  127,    128,   200,     255,
                              256, 300, 0x1234, ~0ull, 1ull << 63};
  std::vector<ExprRef> exprs;
  for (const vm::Op op : BinaryAluOps()) {
    for (const std::uint64_t k : ks) {
      exprs.push_back(MakeBinOp(op, x, MakeConst(k)));
      exprs.push_back(MakeBinOp(op, MakeConst(k), x));
    }
    exprs.push_back(MakeBinOp(op, MakeBinOp(vm::Op::kSub, x, MakeConst(3)),
                              MakeBinOp(vm::Op::kShr, x, MakeConst(2))));
    exprs.push_back(MakeBinOp(op, MakeBinOp(vm::Op::kAnd, x, MakeConst(7)),
                              MakeBinOp(vm::Op::kAdd, x, MakeConst(60))));
  }
  const ExprRef wide =
      MakeBinOp(vm::Op::kMul, x, MakeConst(0x0102030405060708ull));
  for (std::uint8_t lane = 0; lane < 8; ++lane) {
    exprs.push_back(MakeExtract(wide, lane));
    exprs.push_back(MakeExtract(MakeNot(x), lane));
  }
  exprs.push_back(MakeNot(x));
  exprs.push_back(MakeInput(2));  // another byte, which reads 0
  exprs.push_back(MakeBinOp(vm::Op::kAdd, MakeInput(2), MakeConst(9)));
  // A filter over part of the domain evaluates only those lanes and
  // must equal the full filter intersected with that part.
  std::mt19937 rng(256);
  int partial = 0;
  for (const ExprRef& e : exprs) {
    for (const ExprRef& c :
         {e, MakeBinOp(vm::Op::kCmpLtU, e, MakeConst(100)),
          MakeBinOp(vm::Op::kCmpEq, e, MakeConst(0)),
          MakeBinOp(vm::Op::kCmpGtU, e, MakeConst(0x80))}) {
      const ByteDomain lanes = UnaryDomain(ProgramFor(c), var);
      const ByteDomain expect = ValueByValue(c, var);
      ASSERT_EQ(lanes.bits, expect.bits) << ToString(c);
      partial += lanes.Count() > 0 && lanes.Count() < 256;
      ByteDomain within;
      for (std::uint64_t& w : within.bits) w = rng() | std::uint64_t{rng()} << 32;
      ByteDomain both = expect;
      for (int w = 0; w < 4; ++w) both.bits[w] &= within.bits[w];
      ASSERT_EQ(UnaryDomain(ProgramFor(c), var, within).bits, both.bits)
          << ToString(c);
    }
  }
  EXPECT_GE(partial, 300) << "most masks should be neither all nor none";
}

TEST(NodeProgram, UnaryDomainEqualsRunProgramOnRandomDags) {
  std::mt19937 rng(4096);
  for (int round = 0; round < 200; ++round) {
    InternScope intern;
    DagBuilder dag(rng, /*num_vars=*/1);  // every input is in[0]
    for (int n = 0; n < 20; ++n) {
      const ExprRef c = dag.Constraint();
      ASSERT_EQ(UnaryDomain(ProgramFor(c), 0).bits, ValueByValue(c, 0).bits)
          << "round " << round << ": " << ToString(c);
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
    SolveContext ctx;
    std::vector<ExprRef> query;
    for (int rung = 0; rung < 6; ++rung) {
      const int grow = 1 + static_cast<int>(rng() % 2);
      for (int k = 0; k < grow; ++k) {
        const ExprRef c = dag.Constraint();
        if (c->IsConst()) continue;  // never on a path
        query.push_back(c);
        ctx.Append(c);
      }
      if (rng() % 2 == 0) {
        // A pin may move a value an earlier rung's certificate relied on.
        const std::uint32_t v = DagBuilder::Spread(rng() % num_vars);
        pins[v] = static_cast<std::uint8_t>(rng() % 256);
        query.push_back(MakeBinOp(vm::Op::kCmpEq, MakeInput(v),
                                  MakeConst(pins[v])));
        ctx.Append(query.back());
      }
      ctx.NoteModel(RandomModel(rng, num_vars, 50));

      // The branch half of the rungs asks one more constraint on top.
      const ExprRef branch = rung % 2 == 0 ? dag.Constraint() : nullptr;
      std::vector<ExprRef> asked = query;
      if (branch != nullptr && !branch->IsConst() &&
          !ctx.OnPath(branch.get())) {
        asked.push_back(branch);
      }
      const ExprRef extra = asked.size() > query.size() ? branch : nullptr;

      Model expect, got;
      const bool oracle_hit =
          OracleReuse(asked, pins, hints, ctx.recent_models(), &expect);
      const bool dense_hit = ctx.Reuse(extra, pins, hints, &got);
      ASSERT_EQ(dense_hit, oracle_hit) << "round " << round << " rung "
                                       << rung;
      if (oracle_hit) {
        ++hits;
        EXPECT_EQ(got, expect) << "round " << round << " rung " << rung;
      } else {
        ++misses;
        // A miss is searched fresh, and its model joins the pool.
        SolverOptions options;
        options.hints = hints;
        options.max_steps = 20'000;
        const SolveResult fresh = SolveOnce(query, options);
        if (fresh.status == SolveStatus::kUnsat) break;
        if (fresh.status == SolveStatus::kSat) ctx.NoteSolution(fresh.model);
      }
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
  SolveContext ctx = PathContext(query);
  ASSERT_TRUE(ctx.Reuse(nullptr, {}, hints, &got));
  ASSERT_TRUE(OracleReuse(query, {}, hints, {}, &expect));
  EXPECT_EQ(got, expect);
  EXPECT_EQ(got, (Model{{2, 6}}));
}

/// in[lo] | in[lo+1] << 8 | ... over `width` bytes.
ExprRef Concat(std::uint32_t lo, unsigned width) {
  ExprRef e = MakeInput(lo);
  for (unsigned lane = 1; lane < width; ++lane) {
    e = MakeBinOp(vm::Op::kOr, e,
                  MakeBinOp(vm::Op::kShl, MakeInput(lo + lane),
                            MakeConst(8 * lane)));
  }
  return e;
}

ExprRef Eq(ExprRef lhs, ExprRef rhs) {
  return MakeBinOp(vm::Op::kCmpEq, std::move(lhs), std::move(rhs));
}

std::vector<std::string> PinStrings(const ExprRef& expr) {
  std::vector<std::string> out;
  ForEachConcatPin(expr,
                   [&](const ExprRef& pin) { out.push_back(ToString(pin)); });
  return out;
}

TEST(ConcatPins, DecomposesEqualitiesAgainstAConstantOnEitherSide) {
  InternScope intern;
  const std::vector<std::string> field = {"(in[4] cmpeq 0x41)",
                                          "(in[5] cmpeq 0x42)"};
  EXPECT_EQ(PinStrings(Eq(Concat(4, 2), MakeConst(0x4241))), field);
  EXPECT_EQ(PinStrings(Eq(MakeConst(0x4241), Concat(4, 2))), field);
  // Bits outside every lane: one constant false.
  EXPECT_EQ(PinStrings(Eq(Concat(4, 2), MakeConst(0x14241))),
            std::vector<std::string>{"0x0"});
  // Not a concatenation, or not against a constant: no pins.
  EXPECT_TRUE(ConcatPins(Eq(MakeBinOp(vm::Op::kAdd, MakeInput(0),
                                      MakeInput(1)),
                            MakeConst(3)))
                  .empty());
  EXPECT_TRUE(ConcatPins(Eq(MakeInput(0), MakeInput(1))).empty());
  EXPECT_TRUE(ConcatPins(MakeBinOp(vm::Op::kCmpLtU, MakeInput(0),
                                   MakeConst(3)))
                  .empty());
  // A one-byte equality is its own pin: cached as null, handed back as
  // the node itself.
  const ExprRef self = Eq(MakeInput(7), MakeConst(9));
  ASSERT_EQ(ConcatPins(self).size(), 1u);
  EXPECT_EQ(ConcatPins(self)[0], nullptr);
  ForEachConcatPin(self, [&](const ExprRef& pin) { EXPECT_EQ(pin, self); });
  // Derived once: the list and its nodes are the same on every call.
  const ExprRef eq = Eq(Concat(0, 4), MakeConst(0x04030201));
  const std::vector<ExprRef>* first = &ConcatPins(eq);
  EXPECT_EQ(&ConcatPins(eq), first);
  EXPECT_EQ(first->size(), 4u);
}

TEST(ConcatPins, ConcurrentConcatPinsPublishesOneList) {
  // Four threads race to derive the pins of the same shared nodes; each
  // must see one published list per node.
  InternScope intern;
  std::vector<ExprRef> nodes;
  for (std::uint32_t n = 0; n < 200; ++n) {
    nodes.push_back(Eq(Concat(n % 16, 1 + n % 4), MakeConst(n * 0x0101)));
  }
  constexpr int kThreads = 4;
  std::vector<std::vector<const std::vector<ExprRef>*>> seen(kThreads);
  std::atomic<bool> go{false};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      while (!go.load(std::memory_order_acquire)) {
      }
      for (std::size_t i = 0; i < nodes.size(); ++i) {
        const std::size_t n = t % 2 == 0 ? i : nodes.size() - 1 - i;
        seen[t].push_back(&ConcatPins(nodes[n]));
      }
    });
  }
  go.store(true, std::memory_order_release);
  for (std::thread& th : threads) th.join();
  for (int t = 0; t < kThreads; ++t) {
    ASSERT_EQ(seen[t].size(), nodes.size());
    for (std::size_t i = 0; i < nodes.size(); ++i) {
      const std::size_t n = t % 2 == 0 ? i : nodes.size() - 1 - i;
      EXPECT_EQ(seen[t][i], &ConcatPins(nodes[n])) << "thread " << t;
    }
  }
}

}  // namespace
}  // namespace octopocs::symex
