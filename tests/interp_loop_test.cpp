// Interpreter loop suite.
//
// vm::Interpreter::Run is one switch loop that runs in segments: fuel,
// the CancelToken poll and the cycle-skip probe are checked only at a
// segment's start, and a segment ends at the next kInterpCheckStride
// multiple or at the fuel limit. Between checks the loop caches the
// current frame and block and refreshes them only after a terminator or
// a call. The fuel-prefix sweep pins what that must preserve: a run cut
// at fuel F retires exactly F instructions, and its observer event
// stream is exactly the first F instructions' worth of the unbounded
// run's stream. Every unbounded stream is also replayed against the
// call/branch semantics, so a stale cached frame shows up as an
// instruction reported in the wrong function, block or position. The
// suite also holds the opcode exhaustiveness guards and the strided
// deadline bound.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <set>
#include <string>
#include <vector>

#include "support/rng.h"
#include "taint/taint_engine.h"
#include "vm/asm.h"
#include "vm/interp.h"
#include "vm/op_info.h"

namespace octopocs::vm {
namespace {

// -- Exhaustiveness: the per-opcode tables cover every Op ---------------------

TEST(Exhaustiveness, EveryOpHasAnOpInfoRow) {
  EXPECT_TRUE(OpInfoTableComplete());
}

TEST(Exhaustiveness, EveryOpHasAMnemonic) {
  for (std::size_t i = 0; i < kOpCount; ++i) {
    const std::string_view name = OpName(static_cast<Op>(i));
    EXPECT_FALSE(name.empty()) << "opcode " << i;
    EXPECT_NE(name, "?") << "opcode " << i;
  }
  // The fallback is reserved for genuinely out-of-range values.
  EXPECT_EQ(OpName(static_cast<Op>(kOpCount)), "?");
}

// -- Event recording ----------------------------------------------------------

/// One observer callback. `f` holds the callback's arguments in
/// declaration order; an enter event folds its argument values into f[3].
struct Event {
  enum Kind : std::uint8_t { kInstr, kEnter, kExit, kRead, kXfer, kICall };
  Kind kind;
  std::array<std::uint64_t, 6> f{};
  bool operator==(const Event&) const = default;
};

constexpr std::uint64_t kNoSite = ~0ULL;

/// True for the event that retires an instruction: every retired
/// instruction fires exactly one (OnInstr, a call's OnCallEnter, a
/// jump/branch's OnBlockTransfer, a return's OnCallExit). File reads and
/// indirect-call resolutions fire before their instruction's retire
/// event; the entry frame's OnCallEnter retires nothing.
bool Retires(const Event& e) {
  return e.kind == Event::kInstr || e.kind == Event::kExit ||
         e.kind == Event::kXfer ||
         (e.kind == Event::kEnter && e.f[1] != kNoSite);
}

class EventLog : public ExecutionObserver {
 public:
  explicit EventLog(std::vector<Event>* out) : out_(out) { out_->clear(); }

  void OnInstr(FuncId fn, BlockId block, std::size_t ip, const Instr& instr,
               std::uint64_t eff_addr, std::uint64_t value) override {
    Add(Event::kInstr, {fn, block, ip, static_cast<std::uint64_t>(instr.op),
                        eff_addr, value});
  }
  void OnCallEnter(FuncId callee, std::span<const std::uint64_t> args,
                   const Instr* call_site) override {
    std::uint64_t h = 1469598103934665603ULL;
    for (const std::uint64_t a : args) h = (h ^ a) * 1099511628211ULL;
    Add(Event::kEnter,
        {callee,
         call_site ? static_cast<std::uint64_t>(call_site->op) : kNoSite,
         args.size(), h});
  }
  void OnCallExit(FuncId callee, std::uint64_t ret, bool returns_value,
                  Reg value_reg, Reg dest_reg) override {
    Add(Event::kExit, {callee, ret, returns_value, value_reg, dest_reg});
  }
  void OnFileRead(std::uint64_t dst, std::uint64_t off,
                  std::uint64_t count) override {
    Add(Event::kRead, {dst, off, count});
  }
  void OnBlockTransfer(FuncId fn, BlockId from, BlockId to) override {
    Add(Event::kXfer, {fn, from, to});
  }
  void OnIndirectCall(FuncId caller, BlockId block, std::size_t ip,
                      FuncId resolved) override {
    Add(Event::kICall, {caller, block, ip, resolved});
  }

 private:
  void Add(Event::Kind kind, std::array<std::uint64_t, 6> f) {
    out_->push_back({kind, f});
  }
  std::vector<Event>* out_;
};

ExecResult RunLogged(const Program& program, const Bytes& input,
                     std::uint64_t fuel, std::vector<Event>* events) {
  ExecOptions exec;
  exec.fuel = fuel;
  EventLog log(events);
  Interpreter interp(program, ByteView(input), exec);
  interp.AddObserver(&log);
  return interp.Run();
}

struct ShadowFrame {
  std::uint64_t fn = 0;
  std::uint64_t block = 0;
  std::uint64_t ip = 0;  // next instruction the frame executes
};

/// Replays `events` against the call and branch semantics: every event
/// must name the innermost entered function, instructions must follow
/// each other one ip at a time within the current block, and a transfer
/// must leave the current block. Returns "" or the first inconsistency;
/// `stack` receives the call stack the stream ends in.
std::string Replay(const std::vector<Event>& events,
                   std::vector<ShadowFrame>* stack) {
  stack->clear();
  for (std::size_t i = 0; i < events.size(); ++i) {
    const Event& e = events[i];
    const std::string at = "event " + std::to_string(i) + ": ";
    if (e.kind == Event::kEnter) {
      if (e.f[1] != kNoSite) {
        if (stack->empty()) return at + "call with no caller";
        ++stack->back().ip;  // the call instruction retires in the caller
      }
      stack->push_back({e.f[0], 0, 0});
      continue;
    }
    if (stack->empty()) return at + "event outside any frame";
    ShadowFrame& top = stack->back();
    switch (e.kind) {
      case Event::kInstr:
        if (e.f[0] != top.fn || e.f[1] != top.block || e.f[2] != top.ip) {
          return at + "instr at fn=" + std::to_string(e.f[0]) +
                 " b=" + std::to_string(e.f[1]) +
                 " ip=" + std::to_string(e.f[2]) + ", expected fn=" +
                 std::to_string(top.fn) + " b=" + std::to_string(top.block) +
                 " ip=" + std::to_string(top.ip);
        }
        ++top.ip;
        break;
      case Event::kXfer:
        if (e.f[0] != top.fn || e.f[1] != top.block) {
          return at + "transfer from fn=" + std::to_string(e.f[0]) +
                 " b=" + std::to_string(e.f[1]) + ", expected fn=" +
                 std::to_string(top.fn) + " b=" + std::to_string(top.block);
        }
        top.block = e.f[2];
        top.ip = 0;
        break;
      case Event::kExit:
        if (e.f[0] != top.fn) return at + "exit from a function not on top";
        stack->pop_back();
        break;
      case Event::kICall:
        if (e.f[0] != top.fn || e.f[1] != top.block || e.f[2] != top.ip) {
          return at + "indirect call off the current position";
        }
        break;
      case Event::kRead:
      case Event::kEnter:
        break;
    }
  }
  return "";
}

void ExpectSameResult(const ExecResult& a, const ExecResult& b,
                      const std::string& what) {
  EXPECT_EQ(a.trap, b.trap) << what;
  EXPECT_EQ(a.return_value, b.return_value) << what;
  EXPECT_EQ(a.instructions, b.instructions) << what;
  EXPECT_EQ(a.fault_addr, b.fault_addr) << what;
  EXPECT_EQ(a.trap_message, b.trap_message) << what;
  ASSERT_EQ(a.backtrace.size(), b.backtrace.size()) << what;
  for (std::size_t i = 0; i < a.backtrace.size(); ++i) {
    EXPECT_EQ(a.backtrace[i].fn, b.backtrace[i].fn) << what << " frame " << i;
    EXPECT_EQ(a.backtrace[i].block, b.backtrace[i].block)
        << what << " frame " << i;
    EXPECT_EQ(a.backtrace[i].ip, b.backtrace[i].ip) << what << " frame " << i;
  }
}

struct Sweep {
  ExecResult full;           // the unbounded run
  std::vector<Event> events;  // its event stream
  /// owner[i]: the retired-instruction count event i belongs to (0 for
  /// the entry frame's enter).
  std::vector<std::uint64_t> owner;
};

/// The fuel-prefix sweep. Runs `program` unbounded (it must stop on its
/// own within `kFullFuel`), replays that stream, then runs it once per
/// fuel F in [0, max_fuel] (default: the unbounded length) and requires
/// that the cut run retired min(F, full) instructions, emitted exactly
/// the unbounded stream's events up to instruction F, and — when fuel
/// stopped it — holds a backtrace equal to the replayed call stack.
/// Fills `*out` with the unbounded run.
void SweepFuelPrefixes(const Program& program, const Bytes& input,
                       Sweep* out, std::uint64_t max_fuel = ~0ULL) {
  constexpr std::uint64_t kFullFuel = 1'000'000;
  Sweep& s = *out;
  s.full = RunLogged(program, input, kFullFuel, &s.events);
  ASSERT_NE(s.full.trap, TrapKind::kFuelExhausted)
      << "the unbounded run must stop on its own";
  std::vector<ShadowFrame> stack;
  ASSERT_EQ(Replay(s.events, &stack), "")
      << "unbounded stream breaks call/branch semantics";

  std::uint64_t retired = 0;
  for (const Event& e : s.events) {
    const bool entry = e.kind == Event::kEnter && e.f[1] == kNoSite;
    s.owner.push_back(entry ? 0 : retired + 1);
    if (Retires(e)) ++retired;
  }

  const std::uint64_t last =
      max_fuel < s.full.instructions ? max_fuel : s.full.instructions;
  std::vector<Event> cut_events;
  for (std::uint64_t fuel = 0; fuel <= last; ++fuel) {
    const ExecResult r = RunLogged(program, input, fuel, &cut_events);
    const std::string what = "fuel=" + std::to_string(fuel);
    if (fuel < s.full.instructions) {
      ASSERT_EQ(r.trap, TrapKind::kFuelExhausted) << what;
      ASSERT_EQ(r.instructions, fuel) << what;
    } else {
      ExpectSameResult(r, s.full, what);
    }
    std::size_t n = 0;
    while (n < s.owner.size() && s.owner[n] <= fuel) ++n;
    ASSERT_EQ(cut_events.size(), n) << what;
    for (std::size_t i = 0; i < n; ++i) {
      ASSERT_EQ(cut_events[i], s.events[i]) << what << " event " << i;
    }
    if (r.trap == TrapKind::kFuelExhausted) {
      ASSERT_EQ(Replay(cut_events, &stack), "") << what;
      ASSERT_EQ(r.backtrace.size(), stack.size()) << what;
      for (std::size_t i = 0; i < stack.size(); ++i) {
        ASSERT_EQ(r.backtrace[i].fn, stack[i].fn) << what << " frame " << i;
        ASSERT_EQ(r.backtrace[i].block, stack[i].block)
            << what << " frame " << i;
        ASSERT_EQ(r.backtrace[i].ip, stack[i].ip) << what << " frame " << i;
      }
    }
  }
}

Sweep ExpectFuelPrefixes(const Program& program, const Bytes& input,
                         std::uint64_t max_fuel = ~0ULL) {
  Sweep s;
  SweepFuelPrefixes(program, input, &s, max_fuel);
  return s;
}

// -- The sweep across stride boundaries ---------------------------------------

/// A loop whose 7-instruction period holds a call, a jump, a return and
/// a branch, after `pad` nops. Sweeping pad over one period puts every
/// instruction of the body on a kInterpCheckStride boundary.
Program StrideLoop(unsigned pad) {
  std::string src =
      "  func bump(x)\n"
      "  B0:\n"
      "    addi %r, %x, 3\n"
      "    jmp B1\n"
      "  B1:\n"
      "    ret %r\n"
      "  func main()\n"
      "  L0:\n";
  for (unsigned i = 0; i < pad; ++i) src += "    nop\n";
  src +=
      "    movi %i, 0\n"
      "    movi %n, 600\n"
      "    movi %acc, 0\n"
      "    jmp L1\n"
      "  L1:\n"
      "    call %acc, bump(%acc)\n"
      "    addi %i, %i, 1\n"
      "    cmpltu %c, %i, %n\n"
      "    br %c, L1, L2\n"
      "  L2:\n"
      "    ret %acc\n";
  return Assemble(src);
}

TEST(FuelPrefix, CallsReturnsAndBranchesOnStrideBoundaries) {
  constexpr unsigned kPeriod = 7;
  const std::uint64_t n = 3 * kInterpCheckStride + 2 * kPeriod;
  // Which retiring event kinds landed on the last instruction of a
  // segment and on the first of the next, over all pads and boundaries.
  std::set<std::pair<int, int>> on_boundary;
  for (unsigned pad = 0; pad < kPeriod; ++pad) {
    SCOPED_TRACE("pad=" + std::to_string(pad));
    const Program p = StrideLoop(pad);
    const Sweep s = ExpectFuelPrefixes(p, {}, n);
    if (HasFatalFailure()) return;
    EXPECT_EQ(s.full.trap, TrapKind::kNone);
    EXPECT_EQ(s.full.return_value, 600u * 3);
    for (std::size_t i = 0; i < s.events.size(); ++i) {
      if (!Retires(s.events[i])) continue;
      const std::uint64_t k = s.owner[i] % kInterpCheckStride;
      if (s.owner[i] > n || (k != 0 && k != 1)) continue;
      on_boundary.insert({static_cast<int>(k), s.events[i].kind});
    }
  }
  for (const int k : {0, 1}) {
    for (const Event::Kind kind :
         {Event::kEnter, Event::kExit, Event::kXfer, Event::kInstr}) {
      EXPECT_TRUE(on_boundary.count({k, kind}))
          << "no event of kind " << int{kind}
          << (k == 0 ? " ended" : " began") << " a segment";
    }
  }
}

// -- Hand-built programs under the sweep --------------------------------------

TEST(FuelPrefix, AluLoopRunsToCompletion) {
  const Program p = Assemble(
      "  func main()\n"
      "  L0:\n"
      "    movi %i, 0\n"
      "    movi %n, 120\n"
      "    movi %acc, 0\n"
      "    jmp L1\n"
      "  L1:\n"
      "    movi %k, 7\n"
      "    add %acc, %acc, %k\n"
      "    movi %m, 3\n"
      "    mul %acc, %acc, %m\n"
      "    movi %d, 5\n"
      "    divu %q, %acc, %d\n"
      "    remu %r, %acc, %d\n"
      "    sub %q, %q, %r\n"
      "    and %q, %q, %acc\n"
      "    or %q, %q, %k\n"
      "    xor %acc, %acc, %q\n"
      "    shl %t, %acc, %k\n"
      "    shr %t, %t, %m\n"
      "    not %t, %t\n"
      "    cmpeq %e, %t, %acc\n"
      "    cmpne %e, %t, %acc\n"
      "    cmpleu %e, %t, %acc\n"
      "    cmpgtu %e, %t, %acc\n"
      "    cmpgeu %e, %t, %acc\n"
      "    mov %u, %e\n"
      "    addi %i, %i, 1\n"
      "    cmpltu %c, %i, %n\n"
      "    br %c, L1, L2\n"
      "  L2:\n"
      "    ret %acc\n");
  const Sweep s = ExpectFuelPrefixes(p, {});
  EXPECT_EQ(s.full.trap, TrapKind::kNone);
  EXPECT_GT(s.full.instructions, 2 * kInterpCheckStride);
}

TEST(FuelPrefix, OutOfBoundsTrap) {
  const Program p = Assemble(
      "  func main()\n"
      "    movi %n, 16\n"
      "    alloc %buf, %n\n"
      "    addi %ptr, %buf, 12\n"
      "    load.8 %v, %ptr, 0\n"
      "    ret %v\n");
  const Sweep s = ExpectFuelPrefixes(p, {});
  EXPECT_EQ(s.full.trap, TrapKind::kOutOfBounds);
  ASSERT_EQ(s.full.backtrace.size(), 1u);
  EXPECT_EQ(s.full.backtrace[0].ip, 4u);  // one past the trapping load
}

TEST(FuelPrefix, DivByZero) {
  const Program p = Assemble(
      "  func main()\n"
      "    movi %a, 100\n"
      "    movi %z, 0\n"
      "    divu %q, %a, %z\n"
      "    ret %q\n");
  EXPECT_EQ(ExpectFuelPrefixes(p, {}).full.trap, TrapKind::kDivByZero);
}

TEST(FuelPrefix, AssertFailureAndNullDeref) {
  const Program assert_p = Assemble(
      "  func main()\n"
      "    movi %x, 0\n"
      "    assert %x\n"
      "    ret %x\n");
  EXPECT_EQ(ExpectFuelPrefixes(assert_p, {}).full.trap, TrapKind::kAbort);

  const Program null_p = Assemble(
      "  func main()\n"
      "    movi %p, 8\n"
      "    load.4 %v, %p, 0\n"
      "    ret %v\n");
  EXPECT_EQ(ExpectFuelPrefixes(null_p, {}).full.trap, TrapKind::kNullDeref);
}

TEST(FuelPrefix, StackOverflowBacktraceMatches) {
  // Each level pushes a frame, so frames_ reallocates under the cached
  // frame pointer many times on the way down.
  const Program p = Assemble(
      "  func rec(d)\n"
      "    addi %d, %d, 1\n"
      "    call %r, rec(%d)\n"
      "    ret %r\n"
      "  func main()\n"
      "    movi %d, 0\n"
      "    call %r, rec(%d)\n"
      "    ret %r\n");
  const Sweep s = ExpectFuelPrefixes(p, {});
  EXPECT_EQ(s.full.trap, TrapKind::kStackOverflow);
  EXPECT_EQ(s.full.backtrace.size(), ExecOptions{}.max_call_depth);
}

TEST(FuelPrefix, CallResumesAtTheNextInstruction) {
  const Program p = Assemble(
      "  func half(x)\n"
      "    movi %two, 2\n"
      "    divu %r, %x, %two\n"
      "    ret %r\n"
      "  func main()\n"
      "    movi %a, 40\n"
      "    add %s, %a, %a\n"
      "    call %h, half(%s)\n"
      "    movi %b, 5\n"
      "    add %out, %h, %b\n"
      "    ret %out\n");
  const Sweep s = ExpectFuelPrefixes(p, {});
  EXPECT_EQ(s.full.trap, TrapKind::kNone);
  EXPECT_EQ(s.full.return_value, 45u);
  // OnCallEnter's args are the callee's parameter registers: one, 80.
  std::vector<Event> expected;
  EventLog probe(&expected);
  const std::uint64_t args[] = {80};
  Instr call;
  call.op = Op::kCall;
  probe.OnCallEnter(p.FindFunction("half"), args, &call);
  EXPECT_NE(std::find(s.events.begin(), s.events.end(), expected[0]),
            s.events.end())
      << "no enter event for half(80)";
}

TEST(FuelPrefix, IndirectCallsAndFileReads) {
  const Program p = Assemble(
      "  func twice(x)\n"
      "    add %r, %x, %x\n"
      "    ret %r\n"
      "  func main()\n"
      "  L0:\n"
      "    movi %n, 4\n"
      "    alloc %buf, %n\n"
      "    read %got, %buf, %n\n"
      "    fnaddr %f, twice\n"
      "    movi %i, 0\n"
      "    movi %acc, 0\n"
      "    jmp L1\n"
      "  L1:\n"
      "    load.1 %v, %buf, 0\n"
      "    icall %v, %f(%v)\n"
      "    store.1 %v, %buf, 1\n"
      "    add %acc, %acc, %v\n"
      "    addi %i, %i, 1\n"
      "    cmpltu %c, %i, %n\n"
      "    br %c, L1, L2\n"
      "  L2:\n"
      "    ret %acc\n");
  const Sweep s = ExpectFuelPrefixes(p, {0x11, 0x22, 0x33, 0x44});
  EXPECT_EQ(s.full.trap, TrapKind::kNone);
  EXPECT_EQ(s.full.return_value, 4u * 0x22);
}

// -- Randomized program family ------------------------------------------------

/// Generates a bounded loop over a small buffer: ALU churn, load/store
/// traffic with occasionally out-of-range offsets (so some seeds trap
/// mid-loop), input reads, and a helper call.
Program RandomProgram(std::uint64_t seed) {
  Rng rng(seed);
  const unsigned iters = 1 + rng.Below(40);
  const unsigned body_ops = 3 + rng.Below(10);
  static const char* kAlu[] = {"add", "sub", "mul", "and",
                               "or",  "xor", "shl", "shr"};
  std::string src =
      "  func helper(x)\n"
      "    movi %k, 3\n"
      "    mul %r, %x, %k\n"
      "    ret %r\n"
      "  func main()\n"
      "  L0:\n"
      "    movi %n, 32\n"
      "    alloc %buf, %n\n"
      "    movi %want, 8\n"
      "    read %got, %buf, %want\n"
      "    movi %i, 0\n"
      "    movi %lim, " + std::to_string(iters) + "\n"
      "    movi %v0, 1\n"
      "    movi %v1, 2\n"
      "    movi %v2, 3\n"
      "    jmp L1\n"
      "  L1:\n";
  for (unsigned i = 0; i < body_ops; ++i) {
    const unsigned kind = rng.Below(8);
    const std::string a = "%v" + std::to_string(rng.Below(3));
    const std::string b = "%v" + std::to_string(rng.Below(3));
    if (kind < 4) {
      src += "    movi %t, " + std::to_string(rng.Below(64)) + "\n";
      src += std::string("    ") + kAlu[rng.Below(std::size(kAlu))] + " " +
             a + ", " + b + ", %t\n";
    } else if (kind < 6) {
      // Rarely past the end of the 32-byte buffer.
      const unsigned off = rng.Chance(1, 12) ? 30 : rng.Below(16);
      src += "    addi %p, %buf, " + std::to_string(off) + "\n";
      src += "    load.4 " + a + ", %p, 0\n";
    } else if (kind < 7) {
      src += "    store.2 " + a + ", %buf, " +
             std::to_string(rng.Below(12)) + "\n";
    } else {
      src += "    call " + a + ", helper(" + b + ")\n";
    }
  }
  src +=
      "    addi %i, %i, 1\n"
      "    cmpltu %c, %i, %lim\n"
      "    br %c, L1, L2\n"
      "  L2:\n"
      "    ret %v0\n";
  return Assemble(src);
}

ExecResult RunTainted(const Program& program, const Bytes& input,
                      bool cycle_skip, std::vector<std::uint8_t>* taint) {
  ExecOptions exec;
  exec.fuel = 200'000;
  exec.cycle_skip = cycle_skip;
  taint::TaintEngine engine(program);
  Interpreter interp(program, ByteView(input), exec);
  interp.AddObserver(&engine);
  const ExecResult r = interp.Run();
  taint->clear();
  EXPECT_TRUE(engine.SnapshotState(taint));
  return r;
}

class RandomizedIdentity : public ::testing::TestWithParam<int> {};

// Each program runs under the fuel-prefix sweep, and with cycle skip on
// and off under a taint engine (results and final taint state equal).
TEST_P(RandomizedIdentity, AllBackendsObserveTheSameExecution) {
  const std::uint64_t seed = 7'000 + GetParam();
  const Program p = RandomProgram(seed);
  Rng rng(seed * 31);
  const Bytes input = rng.RandomBytes(8);
  ExpectFuelPrefixes(p, input);

  std::vector<std::uint8_t> off_taint, on_taint;
  const ExecResult off = RunTainted(p, input, false, &off_taint);
  const ExecResult on = RunTainted(p, input, true, &on_taint);
  ExpectSameResult(off, on, "cycle skip off vs on");
  EXPECT_EQ(off_taint, on_taint) << "taint state: cycle skip off vs on";
}

INSTANTIATE_TEST_SUITE_P(RandomPrograms, RandomizedIdentity,
                         ::testing::Range(0, 40));

// -- Strided deadline bound ---------------------------------------------------

class FlagRaiser : public ExecutionObserver {
 public:
  FlagRaiser(std::atomic<int>* flag, std::uint64_t at) : flag_(flag),
                                                         at_(at) {}
  void OnInstr(FuncId, BlockId, std::size_t, const Instr&, std::uint64_t,
               std::uint64_t) override {
    if (++seen_ == at_) flag_->store(1, std::memory_order_relaxed);
  }

 private:
  std::atomic<int>* flag_;
  std::uint64_t at_;
  std::uint64_t seen_ = 0;
};

TEST(DeadlineStride, SwitchBackendStopsWithinStride) {
  const Program p = Assemble(
      "  func main()\n"
      "  L0:\n"
      "    movi %i, 0\n"
      "    jmp L1\n"
      "  L1:\n"
      "    addi %i, %i, 1\n"
      "    movi %k, 1\n"
      "    add %j, %i, %k\n"
      "    jmp L1\n");
  // Raise the kill flag at a retired-instruction count that is NOT a
  // checkpoint; the loop must still observe it within one stride.
  const std::uint64_t raise_at = kInterpCheckStride + 37;
  std::atomic<int> flag{0};
  FlagRaiser raiser(&flag, raise_at);
  ExecOptions exec;
  exec.fuel = 1'000'000;  // far beyond the expected stop point
  exec.cancel = support::CancelToken(support::Deadline::Never(), &flag);
  Interpreter interp(p, {}, exec);
  interp.AddObserver(&raiser);
  const ExecResult r = interp.Run();
  EXPECT_EQ(r.trap, TrapKind::kDeadline);
  EXPECT_GE(r.instructions, raise_at);
  EXPECT_LE(r.instructions, raise_at + kInterpCheckStride)
      << "kDeadline must fire within one check stride of the flag";
  EXPECT_EQ(r.instructions % kInterpCheckStride, 0u)
      << "the poll runs only at stride multiples";
}

TEST(DeadlineStride, PreTrippedTokenStopsBeforeTheFirstInstruction) {
  const Program p = Assemble(
      "  func main()\n"
      "  L0:\n"
      "    jmp L0\n");
  std::atomic<int> flag{1};
  ExecOptions exec;
  exec.cancel = support::CancelToken(support::Deadline::Never(), &flag);
  const ExecResult r = Interpreter(p, {}, exec).Run();
  EXPECT_EQ(r.trap, TrapKind::kDeadline);
  EXPECT_EQ(r.instructions, 0u);
}

}  // namespace
}  // namespace octopocs::vm
