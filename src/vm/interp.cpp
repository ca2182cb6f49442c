#include "vm/interp.h"

#include <stdexcept>

#include "support/fault.h"
#include "vm/op_info.h"

namespace octopocs::vm {

std::string_view TrapName(TrapKind kind) {
  switch (kind) {
    case TrapKind::kNone: return "none";
    case TrapKind::kOutOfBounds: return "out-of-bounds";
    case TrapKind::kNullDeref: return "null-deref";
    case TrapKind::kUseAfterFree: return "use-after-free";
    case TrapKind::kDoubleFree: return "double-free";
    case TrapKind::kDivByZero: return "div-by-zero";
    case TrapKind::kAbort: return "abort";
    case TrapKind::kFuelExhausted: return "fuel-exhausted";
    case TrapKind::kStackOverflow: return "stack-overflow";
    case TrapKind::kOutOfMemory: return "out-of-memory";
    case TrapKind::kBadIndirectCall: return "bad-indirect-call";
    case TrapKind::kDeadline: return "deadline-expired";
  }
  return "?";
}

/// Exact-cycle detection (ExecOptions::cycle_skip). The 1024-instruction
/// poll picks a probe point on Brent's doubling schedule: the block the
/// top frame is in, at its depth. The next entry to that block arms a
/// deep snapshot of the machine plus every observer's serialized state,
/// and each later entry compares against it, until the window has run
/// and the next poll picks a new point with twice the window. The first
/// entry that differs re-arms the snapshot, once per window. A hung
/// loop of period P is found P instructions after an arm that follows
/// its warm-up in a window of at least P, whatever P is modulo the
/// stride.
struct Interpreter::CycleDetector {
  std::size_t depth = 0;  // frames_.size() at the probe point
  std::uint64_t window = kInterpCheckStride;
  std::uint64_t limit = 0;      // re-target at the first poll at or past
  std::uint64_t arm_instr = 0;  // instruction count of the snapshot
  bool armed = false;
  bool rearmed = false;  // this window's one re-arm is spent

  std::vector<Frame> frames;
  std::map<std::uint64_t, Allocation> heap;
  AllocCursor cursor{};
  std::uint64_t live_heap_bytes = 0;
  std::uint64_t file_pos = 0;
  std::vector<std::vector<std::uint8_t>> observers;
};

void Interpreter::CycleArm() {
  CycleDetector& d = *cycle_;
  d.observers.clear();
  d.observers.reserve(observers_.size());
  for (const ExecutionObserver* o : observers_) {
    std::vector<std::uint8_t> blob;
    if (!o->SnapshotState(&blob)) {
      // Opaque observer: cycle skip is off for this run.
      cycle_.reset();
      cycle_block_ = nullptr;
      return;
    }
    d.observers.push_back(std::move(blob));
  }
  d.frames = frames_;
  d.heap = heap_;
  d.cursor = cursor_;
  d.live_heap_bytes = live_heap_bytes_;
  d.file_pos = file_pos_;
  d.arm_instr = result_.instructions;
  d.limit = result_.instructions + d.window;
  d.armed = true;
  cycle_reg_ = kNoCycleReg;
  cycle_byte_ = nullptr;
}

bool Interpreter::CycleStateEquals() {
  CycleDetector& d = *cycle_;
  if (cursor_.next != d.cursor.next ||
      live_heap_bytes_ != d.live_heap_bytes || file_pos_ != d.file_pos) {
    return false;
  }
  // Frames innermost-first: a progressing loop differs in its top regs,
  // and the first top register that differs becomes Run's inline reject.
  for (std::size_t i = frames_.size(); i-- > 0;) {
    const Frame& a = frames_[i];
    const Frame& b = d.frames[i];
    if (a.fn != b.fn || a.block != b.block || a.ip != b.ip ||
        a.ret_reg != b.ret_reg) {
      return false;
    }
    if (a.regs != b.regs) {
      if (i + 1 == frames_.size()) {
        std::size_t r = 0;
        while (a.regs[r] == b.regs[r]) ++r;
        cycle_reg_ = r;
        cycle_reg_value_ = b.regs[r];
      }
      return false;
    }
  }
  if (heap_.size() != d.heap.size()) return false;
  for (auto it = heap_.begin(), jt = d.heap.begin(); it != heap_.end();
       ++it, ++jt) {
    if (it->first != jt->first || it->second.alive != jt->second.alive) {
      return false;
    }
    const std::vector<std::uint8_t>& a = it->second.data;
    const std::vector<std::uint8_t>& b = jt->second.data;
    if (a.size() != b.size()) return false;
    for (std::size_t off = 0; off < a.size(); ++off) {
      if (a[off] != b[off]) {
        // Allocations never move or resize, so the pointer stays valid.
        cycle_byte_ = &a[off];
        cycle_byte_value_ = b[off];
        return false;
      }
    }
  }
  std::vector<std::uint8_t> blob;
  for (std::size_t i = 0; i < observers_.size(); ++i) {
    blob.clear();
    if (!observers_[i]->SnapshotState(&blob)) return false;
    if (blob != d.observers[i]) return false;
  }
  return true;
}

void Interpreter::CyclePoll() {
  CycleDetector& d = *cycle_;
  // Fault injection counts observer/tool polls; skipping periods would
  // move the armed injection point, so the detector stands down.
  if (support::fault::armed()) {
    cycle_block_ = nullptr;
    return;
  }
  const std::uint64_t now = result_.instructions;
  if (cycle_block_ != nullptr) {
    if (now < d.limit) return;
    d.window *= 2;
  }
  const Frame& top = frames_.back();
  cycle_block_ = &program_.Fn(top.fn).blocks[top.block];
  cycle_reg_ = kNoCycleReg;
  cycle_byte_ = nullptr;
  d.depth = frames_.size();
  d.limit = now + d.window;
  d.armed = false;
  d.rearmed = false;
}

void Interpreter::CycleEntry() {
  // A return lands mid-block in its caller, and recursion enters the
  // block at other depths: neither is the probe point.
  if (frames_.back().ip != 0 || frames_.size() != cycle_->depth) return;
  if (!cycle_->armed) {
    CycleArm();
    return;
  }
  if (!CycleStateEquals()) {
    // A state that settles one iteration after the arm (a register that
    // changes once) never matches that snapshot: re-arm once per window,
    // at the first entry that differs.
    if (!cycle_->rearmed) {
      cycle_->rearmed = true;
      CycleArm();
    }
    return;
  }
  if (support::fault::armed()) return;
  // Exact repeat: execution is deterministic from a complete state, so
  // the machine must retrace this period until fuel runs out. Jump the
  // counter a whole number of periods; the residual executes normally
  // and lands on the same final state, backtrace, and trap the full run
  // would have produced.
  const std::uint64_t period = result_.instructions - cycle_->arm_instr;
  const std::uint64_t remaining = opts_.fuel - result_.instructions;
  result_.instructions += remaining / period * period;
  cycle_.reset();  // one skip per run; the residual is under one period
  cycle_block_ = nullptr;
}

Interpreter::Interpreter(const Program& program, ByteView input,
                         ExecOptions opts)
    : program_(program), input_(input.begin(), input.end()), opts_(opts) {
  Frame entry;
  entry.fn = program_.entry;
  entry.regs.assign(program_.Fn(program_.entry).num_regs, 0);
  frames_.push_back(std::move(entry));
  if (opts_.cycle_skip) cycle_ = std::make_unique<CycleDetector>();
}

Interpreter::~Interpreter() = default;

void Interpreter::AddObserver(ExecutionObserver* observer) {
  observers_.push_back(observer);
}

void Interpreter::SetTrap(TrapKind kind, std::uint64_t fault_addr,
                          std::string message) {
  result_.trap = kind;
  result_.fault_addr = fault_addr;
  result_.trap_message = std::move(message);
  CaptureBacktrace();
}

void Interpreter::CaptureBacktrace() {
  result_.backtrace.clear();
  result_.backtrace.reserve(frames_.size());
  for (const Frame& f : frames_) {
    result_.backtrace.push_back({f.fn, f.block, f.ip});
  }
}

std::uint8_t* Interpreter::BytePtr(std::uint64_t addr, bool for_write) {
  // Input-file mapping (read-only).
  if (addr >= kMmapBase && addr < kMmapBase + input_.size()) {
    if (for_write) return nullptr;
    return &input_[addr - kMmapBase];
  }
  // Rodata segment.
  if (addr >= kRodataBase && addr < kRodataBase + program_.rodata.size()) {
    if (for_write) return nullptr;
    // const_cast is safe: callers never write through a read resolution.
    return const_cast<std::uint8_t*>(&program_.rodata[addr - kRodataBase]);
  }
  // Heap: find the allocation whose base is the greatest <= addr.
  auto it = heap_.upper_bound(addr);
  if (it == heap_.begin()) return nullptr;
  --it;
  Allocation& alloc = it->second;
  const std::uint64_t off = addr - it->first;
  if (off >= alloc.data.size()) return nullptr;
  if (!alloc.alive) return nullptr;
  return &alloc.data[off];
}

// Checks that [addr, addr+width) lies in one live region (rodata allowed;
// store paths reject rodata before calling this). Records a trap otherwise.
bool Interpreter::ResolveAccess(std::uint64_t addr, std::uint64_t width) {
  if (width == 0) return true;
  if (addr < kNullGuard || addr + width < addr) {
    SetTrap(TrapKind::kNullDeref, addr, "access inside null guard page");
    return false;
  }
  if (addr >= kRodataBase && addr < kHeapBase) {
    if (addr + width <= kRodataBase + program_.rodata.size()) return true;
    SetTrap(TrapKind::kOutOfBounds, addr, "access beyond rodata segment");
    return false;
  }
  if (addr >= kMmapBase) {
    if (addr + width <= kMmapBase + input_.size()) return true;
    SetTrap(TrapKind::kOutOfBounds, addr, "access beyond the file mapping");
    return false;
  }
  auto it = heap_.upper_bound(addr);
  if (it != heap_.begin()) {
    --it;
    const Allocation& alloc = it->second;
    const std::uint64_t off = addr - it->first;
    if (off < alloc.data.size() && off + width <= alloc.data.size()) {
      if (!alloc.alive) {
        SetTrap(TrapKind::kUseAfterFree, addr, "access to freed allocation");
        return false;
      }
      return true;
    }
  }
  SetTrap(TrapKind::kOutOfBounds, addr, "access to unmapped address");
  return false;
}

std::uint64_t Interpreter::LoadMem(std::uint64_t addr, std::uint64_t width) {
  std::uint64_t v = 0;
  for (std::uint64_t i = 0; i < width; ++i) {
    v |= static_cast<std::uint64_t>(*BytePtr(addr + i, false)) << (8 * i);
  }
  return v;
}

void Interpreter::StoreMem(std::uint64_t addr, std::uint64_t width,
                           std::uint64_t value) {
  for (std::uint64_t i = 0; i < width; ++i) {
    *BytePtr(addr + i, true) = static_cast<std::uint8_t>(value >> (8 * i));
  }
}

bool Interpreter::CheckInterrupts() {
  if (result_.instructions >= opts_.fuel) {
    SetTrap(TrapKind::kFuelExhausted, 0, "instruction budget exhausted");
    return false;
  }
  if ((result_.instructions & (kInterpCheckStride - 1)) == 0) {
    if (opts_.cancel.CanExpire() && opts_.cancel.Check()) {
      SetTrap(TrapKind::kDeadline, 0, "wall-clock deadline expired");
      return false;
    }
    if (cycle_ != nullptr) CyclePoll();
  }
  return true;
}

// ExecTerminator and ExecInstr are inlined into Run, their one caller: an
// out-of-line call per instruction halved the ALU loop's throughput.
[[gnu::always_inline]] inline bool Interpreter::ExecTerminator(
    Frame& frame, const Terminator& t) {
  switch (t.kind) {
    case TermKind::kJump: {
      const BlockId from = frame.block;
      frame.block = t.target;
      frame.ip = 0;
      for (auto* o : observers_) o->OnBlockTransfer(frame.fn, from, t.target);
      return true;
    }
    case TermKind::kBranch: {
      const BlockId from = frame.block;
      const BlockId to = frame.regs[t.cond] != 0 ? t.target : t.fallthrough;
      frame.block = to;
      frame.ip = 0;
      for (auto* o : observers_) o->OnBlockTransfer(frame.fn, from, to);
      return true;
    }
    case TermKind::kReturn: {
      const std::uint64_t ret = t.returns_value ? frame.regs[t.cond] : 0;
      const FuncId callee = frame.fn;
      const Reg ret_reg = frame.ret_reg;
      frames_.pop_back();
      for (auto* o : observers_) {
        o->OnCallExit(callee, ret, t.returns_value, t.cond, ret_reg);
      }
      if (frames_.empty()) {
        result_.return_value = ret;
        return false;
      }
      frames_.back().regs[ret_reg] = ret;
      return true;
    }
  }
  return true;
}

[[gnu::always_inline]] inline bool Interpreter::ExecInstr(
    Frame& frame, const Instr& ins, std::size_t ip) {
  auto& regs = frame.regs;
  std::uint64_t eff_addr = 0;
  std::uint64_t value = 0;
  // Each binary-ALU case passes its own constant op, so the shared
  // evaluator (vm/op_info.h) folds to the one operation.
  const auto alu = [&](Op op) {
    value = regs[ins.a] = EvalAlu(op, regs[ins.b], regs[ins.c]);
  };

  // No default: -Werror=switch makes an Op without a case a build error.
  switch (ins.op) {
    case Op::kMovImm:
      value = regs[ins.a] = ins.imm;
      break;
    case Op::kMov:
      value = regs[ins.a] = regs[ins.b];
      break;
    case Op::kAdd: alu(Op::kAdd); break;
    case Op::kSub: alu(Op::kSub); break;
    case Op::kMul: alu(Op::kMul); break;
    // The zero-divisor traps fire before EvalAlu's total-function
    // fallback (0) could mask them.
    case Op::kDivU:
      if (regs[ins.c] == 0) {
        SetTrap(TrapKind::kDivByZero, 0, "division by zero");
        return false;
      }
      alu(Op::kDivU);
      break;
    case Op::kRemU:
      if (regs[ins.c] == 0) {
        SetTrap(TrapKind::kDivByZero, 0, "remainder by zero");
        return false;
      }
      alu(Op::kRemU);
      break;
    case Op::kAnd: alu(Op::kAnd); break;
    case Op::kOr: alu(Op::kOr); break;
    case Op::kXor: alu(Op::kXor); break;
    case Op::kShl: alu(Op::kShl); break;
    case Op::kShr: alu(Op::kShr); break;
    case Op::kNot:
      value = regs[ins.a] = ~regs[ins.b];
      break;
    case Op::kAddImm:
      value = regs[ins.a] = regs[ins.b] + ins.imm;
      break;
    case Op::kCmpEq: alu(Op::kCmpEq); break;
    case Op::kCmpNe: alu(Op::kCmpNe); break;
    case Op::kCmpLtU: alu(Op::kCmpLtU); break;
    case Op::kCmpLeU: alu(Op::kCmpLeU); break;
    case Op::kCmpGtU: alu(Op::kCmpGtU); break;
    case Op::kCmpGeU: alu(Op::kCmpGeU); break;
    case Op::kLoad: {
      eff_addr = regs[ins.b] + ins.imm;
      if (!ResolveAccess(eff_addr, ins.width)) return false;
      value = regs[ins.a] = LoadMem(eff_addr, ins.width);
      break;
    }
    case Op::kStore: {
      eff_addr = regs[ins.b] + ins.imm;
      // A store must hit writable memory: reject the read-only segments.
      if (eff_addr >= kRodataBase && eff_addr < kHeapBase) {
        SetTrap(TrapKind::kOutOfBounds, eff_addr, "write to rodata");
        return false;
      }
      if (eff_addr >= kMmapBase) {
        SetTrap(TrapKind::kOutOfBounds, eff_addr,
                "write to the read-only file mapping");
        return false;
      }
      if (!ResolveAccess(eff_addr, ins.width)) return false;
      value = regs[ins.a];
      StoreMem(eff_addr, ins.width, value);
      break;
    }
    case Op::kAlloc: {
      support::fault::MaybeThrow(support::FaultSite::kAllocation);
      const std::uint64_t size = regs[ins.b];
      if (live_heap_bytes_ + size > opts_.heap_limit) {
        SetTrap(TrapKind::kOutOfMemory, 0, "heap limit exceeded");
        return false;
      }
      const std::uint64_t base = cursor_.Take(size);
      heap_[base] = Allocation{std::vector<std::uint8_t>(size), true};
      live_heap_bytes_ += size;
      value = regs[ins.a] = base;
      break;
    }
    case Op::kFree: {
      auto it = heap_.find(regs[ins.a]);
      if (it == heap_.end() || !it->second.alive) {
        SetTrap(TrapKind::kDoubleFree, regs[ins.a],
                "free of invalid or already-freed pointer");
        return false;
      }
      it->second.alive = false;
      live_heap_bytes_ -= it->second.data.size();
      break;
    }
    case Op::kRead: {
      const std::uint64_t dst = regs[ins.b];
      const std::uint64_t want = regs[ins.c];
      const std::uint64_t avail =
          file_pos_ < input_.size() ? input_.size() - file_pos_ : 0;
      const std::uint64_t n = want < avail ? want : avail;
      if (n > 0) {
        if (!ResolveAccess(dst, n)) return false;
        if (dst >= kRodataBase && dst < kHeapBase) {
          SetTrap(TrapKind::kOutOfBounds, dst, "read(2) into rodata");
          return false;
        }
        for (std::uint64_t i = 0; i < n; ++i) {
          *BytePtr(dst + i, true) = input_[file_pos_ + i];
        }
        const std::uint64_t off = file_pos_;
        file_pos_ += n;
        for (auto* o : observers_) o->OnFileRead(dst, off, n);
      }
      value = regs[ins.a] = n;
      break;
    }
    case Op::kMMap:
      value = regs[ins.a] = kMmapBase;
      break;
    case Op::kSeek:
      file_pos_ = regs[ins.b];
      break;
    case Op::kTell:
      value = regs[ins.a] = file_pos_;
      break;
    case Op::kFileSize:
      value = regs[ins.a] = input_.size();
      break;
    case Op::kCall:
    case Op::kICall: {
      FuncId callee;
      if (ins.op == Op::kCall) {
        callee = static_cast<FuncId>(ins.imm);
      } else {
        const std::uint64_t target = regs[ins.b];
        if (target >= program_.functions.size()) {
          SetTrap(TrapKind::kBadIndirectCall, target,
                  "indirect call to invalid function id");
          return false;
        }
        callee = static_cast<FuncId>(target);
        for (auto* o : observers_) {
          o->OnIndirectCall(frame.fn, frame.block, ip, callee);
        }
      }
      const Function& callee_fn = program_.Fn(callee);
      const std::size_t nargs = ins.args.size();
      if (nargs != callee_fn.num_params) {
        SetTrap(TrapKind::kBadIndirectCall, callee,
                "argument count mismatch calling " + callee_fn.name);
        return false;
      }
      if (frames_.size() >= opts_.max_call_depth) {
        SetTrap(TrapKind::kStackOverflow, 0, "call depth limit");
        return false;
      }
      Frame next;
      next.fn = callee;
      next.ret_reg = ins.a;
      next.regs.assign(callee_fn.num_regs, 0);
      for (std::size_t i = 0; i < nargs; ++i) next.regs[i] = regs[ins.args[i]];
      // Invalidates `frame` and `regs`; Run refreshes its cached frame.
      frames_.push_back(std::move(next));
      // The callee's first nargs registers hold the argument values.
      const std::span<const std::uint64_t> args(frames_.back().regs.data(),
                                                nargs);
      for (auto* o : observers_) o->OnCallEnter(callee, args, &ins);
      return true;  // no OnInstr for calls; enter/exit events cover them
    }
    case Op::kFnAddr:
      value = regs[ins.a] = ins.imm;
      break;
    case Op::kAssert:
      if (regs[ins.a] == 0) {
        SetTrap(TrapKind::kAbort, 0, "assertion failed");
        return false;
      }
      break;
    case Op::kTrap:
      SetTrap(TrapKind::kAbort, 0, "explicit trap");
      return false;
    case Op::kNop:
      break;
  }

  for (auto* o : observers_) {
    o->OnInstr(frame.fn, frame.block, ip, ins, eff_addr, value);
  }
  return true;
}

// The one dispatch loop.
//
// Execution runs in segments. A segment starts with CheckInterrupts and
// ends at the next kInterpCheckStride multiple or at the fuel limit,
// whichever is first, so the per-instruction path carries no fuel or
// deadline test, yet each fires at exactly the instruction count an
// every-instruction check would. The frame and block pointers are cached
// across instructions and refreshed only when they can change: after a
// terminator and after a kCall/kICall (a push can reallocate frames_).
// Each refresh compares the block against the cycle probe point; a skip
// there can carry the count past the segment's end, which ends it.
ExecResult Interpreter::Run() {
  for (auto* o : observers_) {
    // The entry frame behaves like a call with no arguments.
    o->OnCallEnter(program_.entry, {}, nullptr);
  }
  Frame* frame = &frames_.back();
  const Block* block = &program_.Fn(frame->fn).blocks[frame->block];
  while (CheckInterrupts()) {
    // Only the poll and CycleEntry move the probe point.
    const Block* probe = cycle_block_;
    const std::uint64_t next_stride =
        (result_.instructions | (kInterpCheckStride - 1)) + 1;
    const std::uint64_t end =
        next_stride < opts_.fuel ? next_stride : opts_.fuel;
    while (result_.instructions < end) {
      ++result_.instructions;
      if (frame->ip >= block->instrs.size()) {
        if (!ExecTerminator(*frame, block->term)) return result_;
      } else {
        const Instr& ins = block->instrs[frame->ip];
        const std::size_t ip = frame->ip++;
        if (!ExecInstr(*frame, ins, ip)) return result_;
        if (ins.op != Op::kCall && ins.op != Op::kICall) continue;
      }
      frame = &frames_.back();
      block = &program_.Fn(frame->fn).blocks[frame->block];
      // An entry that differs where the last compare found a difference
      // cannot match: rejected without a call.
      if (block == probe &&
          (cycle_reg_ >= frame->regs.size() ||
           frame->regs[cycle_reg_] == cycle_reg_value_) &&
          (cycle_byte_ == nullptr || *cycle_byte_ == cycle_byte_value_))
          [[unlikely]] {
        CycleEntry();
        probe = cycle_block_;
      }
    }
  }
  return result_;
}

ExecResult RunProgram(const Program& program, ByteView input,
                      ExecOptions opts) {
  if (auto err = Validate(program)) {
    throw std::invalid_argument("invalid program: " + *err);
  }
  Interpreter interp(program, input, opts);
  return interp.Run();
}

}  // namespace octopocs::vm
