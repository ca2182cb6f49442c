// MiniVM concrete interpreter with instrumentation hooks.
//
// The hook interface (ExecutionObserver) plays the role Intel PIN plays in
// the paper's implementation: a dynamic-binary-instrumentation event
// source. The taint engine (P1), the dynamic CFG builder, the fuzzing
// harness's coverage map, and the crash verifier (P4) are all observers.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "support/bytes.h"
#include "support/deadline.h"
#include "vm/ir.h"
#include "vm/memory.h"

namespace octopocs::vm {

enum class TrapKind : std::uint8_t {
  kNone,           // normal termination
  kOutOfBounds,    // access outside any live region (CWE-119 class)
  kNullDeref,      // access below kNullGuard
  kUseAfterFree,   // access to a freed allocation
  kDoubleFree,     // kFree on a non-live allocation
  kDivByZero,
  kAbort,          // kAssert failure or kTrap
  kFuelExhausted,  // instruction budget hit (how CWE-835 hangs surface)
  kStackOverflow,  // call depth limit
  kOutOfMemory,    // heap limit
  kBadIndirectCall,// kICall to an out-of-range function id
  kDeadline,       // the run's CancelToken tripped (wall-clock budget)
};

std::string_view TrapName(TrapKind kind);

/// True for any abnormal termination *of the program*. kDeadline is
/// excluded: it reports the harness cancelling the run, not a behaviour
/// of the program under test, so nothing downstream may read it as a
/// crash.
inline bool IsCrash(TrapKind kind) {
  return kind != TrapKind::kNone && kind != TrapKind::kDeadline;
}

/// True for trap kinds that demonstrate a *vulnerability* (memory
/// corruption, hangs, ...). kAbort is excluded: assert-failures model a
/// program cleanly rejecting its input (exit(1)), which P4 must not
/// count as verification. Fuel exhaustion counts as a hang-crash for
/// infinite-loop (CWE-835) vulnerabilities. kDeadline is a harness
/// cancellation, never a verdict about the program.
inline bool IsVulnerabilityCrash(TrapKind kind) {
  return kind != TrapKind::kNone && kind != TrapKind::kAbort &&
         kind != TrapKind::kDeadline;
}

/// The interpreter polls the CancelToken when the retired-instruction
/// count is a multiple of this stride (and always at instruction 0), so
/// a tripped token surfaces as TrapKind::kDeadline within at most this
/// many further instructions. Fuel accounting stays exact: the stride
/// applies only to the wall-clock poll and to the cycle detector's
/// choice of probe point, whose comparisons run at block entries.
inline constexpr std::uint64_t kInterpCheckStride = 1024;

struct ExecOptions {
  std::uint64_t fuel = 10'000'000;      // max instructions
  std::uint32_t max_call_depth = 200;
  std::uint64_t heap_limit = 1ULL << 26;  // bytes of live allocations
  /// Cooperative wall-clock bound: polled every kInterpCheckStride
  /// interpreted instructions (~free). Tripping records
  /// TrapKind::kDeadline.
  support::CancelToken cancel;
  /// Exact-cycle fast-forward for hung programs (CWE-835 loops burn the
  /// whole fuel budget otherwise). A stride poll picks a block (at the
  /// top frame's depth); its next entry arms a deep snapshot of the
  /// complete machine state (frames, heap, allocator cursor, file
  /// position) plus every observer's serialized state, and when a later
  /// entry matches the snapshot *exactly*, execution is deterministic
  /// and must repeat, so the instruction counter jumps forward a whole
  /// number of periods and the residual runs normally to the fuel trap.
  /// The period need not be a multiple of kInterpCheckStride. The final
  /// ExecResult — trap, backtrace, instruction count, observer state — is
  /// byte-identical to the unskipped run; only wall-clock changes. The
  /// skip disables itself when any attached observer does not implement
  /// SnapshotState, or while fault injection is armed (skipping would
  /// move the injection point). Off is the A/B baseline for benches.
  bool cycle_skip = true;
};

/// One entry of the crash callstack (the backtrace(3) substitute used by
/// OCTOPOCS preprocessing to locate ep).
struct BacktraceEntry {
  FuncId fn = kInvalidFunc;
  BlockId block = 0;
  std::size_t ip = 0;
};

struct ExecResult {
  TrapKind trap = TrapKind::kNone;
  std::uint64_t return_value = 0;
  std::uint64_t instructions = 0;
  std::uint64_t fault_addr = 0;      // faulting address for memory traps
  std::string trap_message;
  /// Callstack at the trap site, outermost frame first (empty when the
  /// program terminated normally).
  std::vector<BacktraceEntry> backtrace;
};

/// Fired around interpretation. All addresses are MiniVM virtual
/// addresses; `file_off` values are offsets into the input (the PoC).
class ExecutionObserver {
 public:
  virtual ~ExecutionObserver() = default;

  /// After each non-call instruction retires. `eff_addr` is the resolved
  /// effective address for kLoad/kStore (0 otherwise); `value` is the
  /// value produced (loads, ALU) or stored.
  virtual void OnInstr(FuncId fn, BlockId block, std::size_t ip,
                       const Instr& instr, std::uint64_t eff_addr,
                       std::uint64_t value) {
    (void)fn; (void)block; (void)ip; (void)instr; (void)eff_addr; (void)value;
  }
  /// After the callee frame is set up, before its first instruction.
  /// `args` views the callee's parameter registers and is valid only
  /// during the callback. `call_site` is the kCall/kICall instruction
  /// (nullptr for the entry frame) — taint engines read the caller
  /// argument registers off it.
  virtual void OnCallEnter(FuncId callee, std::span<const std::uint64_t> args,
                           const Instr* call_site) {
    (void)callee; (void)args; (void)call_site;
  }
  /// After the callee frame is popped. `returns_value`/`callee_value_reg`
  /// describe the callee-side return register; `caller_dest_reg` is where
  /// the value landed in the caller (meaningless when the program exits).
  virtual void OnCallExit(FuncId callee, std::uint64_t ret,
                          bool returns_value, Reg callee_value_reg,
                          Reg caller_dest_reg) {
    (void)callee; (void)ret; (void)returns_value; (void)callee_value_reg;
    (void)caller_dest_reg;
  }
  /// After a kRead copied `count` bytes of the input starting at
  /// `file_off` to memory at `dst_addr`.
  virtual void OnFileRead(std::uint64_t dst_addr, std::uint64_t file_off,
                          std::uint64_t count) {
    (void)dst_addr; (void)file_off; (void)count;
  }
  /// On every control transfer between blocks of the same function.
  virtual void OnBlockTransfer(FuncId fn, BlockId from, BlockId to) {
    (void)fn; (void)from; (void)to;
  }
  /// When an indirect call resolved its target (dynamic CFG edge source).
  virtual void OnIndirectCall(FuncId caller, BlockId block, std::size_t ip,
                              FuncId resolved_target) {
    (void)caller; (void)block; (void)ip; (void)resolved_target;
  }
  /// Cycle-skip support (ExecOptions::cycle_skip): append a
  /// deterministic, *complete* serialization of the observer's mutable
  /// state to `out` and return true. Two equal serializations must imply
  /// the observer would emit identical behaviour for identical future
  /// event streams — that is what licenses the interpreter to skip
  /// repeated loop periods underneath it. Returning false (the default)
  /// marks the observer as opaque and disables cycle skip for the run;
  /// an observer that accumulates an unbounded event log should keep the
  /// default, which is automatically safe.
  virtual bool SnapshotState(std::vector<std::uint8_t>* out) const {
    (void)out;
    return false;
  }
};

/// Executes `program` against the byte input `input` (the PoC file).
/// Instances are single-shot: construct, attach observers, Run().
class Interpreter {
 public:
  /// `input` is copied: the interpreter owns its input so callers may
  /// pass temporaries (PoC files are small; dangling views are not).
  Interpreter(const Program& program, ByteView input, ExecOptions opts = {});
  ~Interpreter();  // out-of-line: CycleDetector is incomplete here

  /// Observers are not owned and must outlive Run().
  void AddObserver(ExecutionObserver* observer);

  ExecResult Run();

  /// Current file-position indicator. Observers may sample this during
  /// callbacks — P1 records it at each ep entry so P3 can key bunch
  /// placements on T's file position.
  std::uint64_t file_pos() const { return file_pos_; }

 private:
  struct Allocation {
    std::vector<std::uint8_t> data;
    bool alive = true;
  };

  struct Frame {
    FuncId fn = 0;
    BlockId block = 0;
    std::size_t ip = 0;
    Reg ret_reg = 0;  // caller register receiving the return value
    std::vector<std::uint64_t> regs;
  };

  // Memory access resolution. Returns false after recording a trap.
  bool ResolveAccess(std::uint64_t addr, std::uint64_t width);
  std::uint64_t LoadMem(std::uint64_t addr, std::uint64_t width);
  void StoreMem(std::uint64_t addr, std::uint64_t width, std::uint64_t value);
  std::uint8_t* BytePtr(std::uint64_t addr, bool for_write);

  void SetTrap(TrapKind kind, std::uint64_t fault_addr, std::string message);
  void CaptureBacktrace();

  /// Fuel check plus the strided CancelToken poll and the cycle
  /// detector's probe-point choice. Called at the start of each segment
  /// (see Run). Returns false after recording kFuelExhausted/kDeadline.
  bool CheckInterrupts();
  /// Cycle skip, at kInterpCheckStride-aligned counts: picks the probe
  /// point (cycle_block_) on a Brent doubling schedule.
  void CyclePoll();
  /// Cycle skip, at each transfer into cycle_block_: arms the snapshot
  /// at the probe point's first entry and fast-forwards on an exact
  /// state match at a later one.
  void CycleEntry();
  bool CycleStateEquals();
  void CycleArm();
  /// Executes one non-terminator instruction. The caller has counted it
  /// and advanced frame.ip past it (trap backtraces record ip+1).
  /// Returns false after recording a trap. A kCall/kICall pushes a frame,
  /// which invalidates `frame`.
  bool ExecInstr(Frame& frame, const Instr& ins, std::size_t ip);
  /// Returns false when the entry frame returned (the run is over). A
  /// return pops `frame`.
  bool ExecTerminator(Frame& frame, const Terminator& term);

  const Program& program_;
  Bytes input_;  // owned copy of the PoC file
  ExecOptions opts_;
  std::vector<ExecutionObserver*> observers_;

  std::vector<Frame> frames_;
  std::map<std::uint64_t, Allocation> heap_;  // keyed by base address
  AllocCursor cursor_;
  std::uint64_t live_heap_bytes_ = 0;
  std::uint64_t file_pos_ = 0;

  /// Deep machine+observer snapshot for cycle detection; null once the
  /// detector is disabled (skip taken, unsupported observer, or
  /// cycle_skip off).
  struct CycleDetector;
  std::unique_ptr<CycleDetector> cycle_;
  /// The block whose entries the detector probes; null while there is
  /// none, so Run's per-transfer test is one pointer compare.
  const Block* cycle_block_ = nullptr;
  /// What broke the last compare, with the snapshot's value of it: a
  /// top-frame register (kNoCycleReg: none) and a heap byte (null:
  /// none). An entry that differs there is rejected in Run without a
  /// call, so a loop that never repeats pays O(1) per entry.
  static constexpr std::size_t kNoCycleReg = ~std::size_t{0};
  std::size_t cycle_reg_ = kNoCycleReg;
  std::uint64_t cycle_reg_value_ = 0;
  const std::uint8_t* cycle_byte_ = nullptr;
  std::uint8_t cycle_byte_value_ = 0;

  ExecResult result_;
};

/// Convenience wrapper: validate (throws std::invalid_argument on a
/// malformed program), run, return the result.
ExecResult RunProgram(const Program& program, ByteView input,
                      ExecOptions opts = {});

}  // namespace octopocs::vm
