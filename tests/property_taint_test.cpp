// Property suite: taint soundness against ground-truth influence.
//
// Taint analysis is a *may-depend* over-approximation, so the testable
// direction is soundness: if flipping input byte k changes any output
// byte, that output byte's taint set must contain k (no false
// negatives). The programs are randomly generated straight-line
// dataflow kernels: read N input bytes, churn them through random ALU
// operations, store the register pool to an output buffer.
#include <gtest/gtest.h>

#include <string>

#include "solve_once.h"
#include "support/rng.h"
#include "taint/taint_engine.h"
#include "vm/asm.h"

namespace octopocs::taint {
namespace {

struct Kernel {
  vm::Program program;
  unsigned n_inputs;
  unsigned n_regs;
};

Kernel GenerateKernel(std::uint64_t seed) {
  Rng rng(seed);
  Kernel k;
  k.n_inputs = 2 + rng.Below(6);
  k.n_regs = 3 + rng.Below(4);
  const unsigned n_ops = 4 + rng.Below(12);

  std::string src = "  func main()\n";
  src += "    movi %n, " + std::to_string(k.n_inputs) + "\n";
  src += "    alloc %in, %n\n";
  src += "    read %got, %in, %n\n";
  src += "    movi %outn, " + std::to_string(k.n_regs * 8) + "\n";
  src += "    alloc %out, %outn\n";
  // Seed the register pool from input bytes (round-robin).
  for (unsigned r = 0; r < k.n_regs; ++r) {
    src += "    load.1 %v" + std::to_string(r) + ", %in, " +
           std::to_string(r % k.n_inputs) + "\n";
  }
  // Random ALU churn. Division is guarded by or-ing the divisor with 1.
  static const char* kOps[] = {"add", "sub", "mul", "and",
                               "or",  "xor", "shl", "shr"};
  for (unsigned i = 0; i < n_ops; ++i) {
    const std::string a = "%v" + std::to_string(rng.Below(k.n_regs));
    const std::string b = "%v" + std::to_string(rng.Below(k.n_regs));
    const std::string c = "%v" + std::to_string(rng.Below(k.n_regs));
    src += std::string("    ") + kOps[rng.Below(std::size(kOps))] + " " +
           a + ", " + b + ", " + c + "\n";
  }
  // Store the pool.
  for (unsigned r = 0; r < k.n_regs; ++r) {
    src += "    store.8 %v" + std::to_string(r) + ", %out, " +
           std::to_string(r * 8) + "\n";
  }
  src += "    ret %got\n";
  k.program = vm::Assemble(src);
  return k;
}

/// Concrete output snapshot: the n_regs * 8 bytes of the output buffer.
/// The output buffer is the second allocation; its base follows the
/// input buffer deterministically (AllocCursor).
Bytes RunKernel(const Kernel& k, const Bytes& input, std::uint64_t* out_base) {
  struct Snapshot : vm::ExecutionObserver {
    std::uint64_t out_base = 0;
    int allocs = 0;
    void OnInstr(vm::FuncId, vm::BlockId, std::size_t, const vm::Instr& ins,
                 std::uint64_t, std::uint64_t value) override {
      if (ins.op == vm::Op::kAlloc && ++allocs == 2) out_base = value;
    }
  } snap;
  struct MemDump : vm::ExecutionObserver {
    std::map<std::uint64_t, std::uint8_t> bytes;
    void OnInstr(vm::FuncId, vm::BlockId, std::size_t, const vm::Instr& ins,
                 std::uint64_t eff, std::uint64_t value) override {
      if (ins.op == vm::Op::kStore) {
        for (unsigned i = 0; i < ins.width; ++i) {
          bytes[eff + i] = static_cast<std::uint8_t>(value >> (8 * i));
        }
      }
    }
  } dump;
  vm::Interpreter interp(k.program, input);
  interp.AddObserver(&snap);
  interp.AddObserver(&dump);
  const auto r = interp.Run();
  EXPECT_EQ(r.trap, vm::TrapKind::kNone);
  *out_base = snap.out_base;
  Bytes out(k.n_regs * 8, 0);
  for (const auto& [addr, val] : dump.bytes) {
    if (addr >= snap.out_base && addr < snap.out_base + out.size()) {
      out[addr - snap.out_base] = val;
    }
  }
  return out;
}

class TaintSoundness : public ::testing::TestWithParam<int> {};

TEST_P(TaintSoundness, InfluenceIsSubsetOfTaint) {
  const Kernel k = GenerateKernel(31'000 + GetParam());
  Rng rng(99'000 + GetParam());
  const Bytes input = rng.RandomBytes(k.n_inputs);

  // Taint run.
  TaintEngine engine(k.program);
  vm::Interpreter interp(k.program, input);
  interp.AddObserver(&engine);
  ASSERT_EQ(interp.Run().trap, vm::TrapKind::kNone);

  // Baseline concrete output + output base address.
  std::uint64_t out_base = 0;
  const Bytes baseline = RunKernel(k, input, &out_base);
  ASSERT_NE(out_base, 0u);

  // Ground-truth influence: flip each input byte, diff the outputs.
  for (unsigned flip = 0; flip < k.n_inputs; ++flip) {
    Bytes mutated = input;
    mutated[flip] ^= 0xFF;
    std::uint64_t base2 = 0;
    const Bytes changed = RunKernel(k, mutated, &base2);
    ASSERT_EQ(base2, out_base);  // allocation layout is deterministic
    for (std::size_t byte = 0; byte < baseline.size(); ++byte) {
      if (baseline[byte] == changed[byte]) continue;
      // This output byte demonstrably depends on input `flip`: taint
      // soundness demands the label be present.
      const TaintSet t = engine.MemTaint(out_base + byte, 1);
      EXPECT_TRUE(t.Contains(flip))
          << "output byte " << byte << " changed when input " << flip
          << " flipped, but its taint is missing the label";
    }
  }
}

INSTANTIATE_TEST_SUITE_P(RandomKernels, TaintSoundness,
                         ::testing::Range(0, 25));

// Unsat completeness: directly contradictory byte equalities must be
// *proven* Unsat (never Unknown) regardless of surrounding noise.
class UnsatCompleteness : public ::testing::TestWithParam<int> {};

TEST_P(UnsatCompleteness, ContradictionIsProven) {
  Rng rng(55'000 + GetParam());
  namespace sx = octopocs::symex;
  std::vector<sx::ExprRef> constraints;
  // Noise: a random satisfiable spread of constraints.
  const unsigned n_vars = 3 + rng.Below(6);
  for (unsigned i = 0; i < n_vars; ++i) {
    constraints.push_back(sx::MakeBinOp(vm::Op::kCmpLtU, sx::MakeInput(i),
                                        sx::MakeConst(128 + rng.Below(128))));
  }
  // The contradiction.
  const std::uint32_t victim = static_cast<std::uint32_t>(rng.Below(n_vars));
  const std::uint8_t v = static_cast<std::uint8_t>(rng.Below(100));
  for (const unsigned pin : {unsigned{v}, v + 1u}) {
    constraints.push_back(sx::MakeBinOp(vm::Op::kCmpEq,
                                        sx::MakeInput(victim),
                                        sx::MakeConst(pin)));
  }
  EXPECT_EQ(sx::SolveOnce(constraints).status, sx::SolveStatus::kUnsat);
}

INSTANTIATE_TEST_SUITE_P(RandomSystems, UnsatCompleteness,
                         ::testing::Range(0, 20));

}  // namespace
}  // namespace octopocs::taint
