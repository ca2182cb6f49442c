#include "symex/executor.h"

#include <algorithm>
#include <chrono>
#include <limits>
#include <map>
#include <numeric>
#include <optional>
#include <utility>
#include <vector>

#include "support/fault.h"
#include "support/trace.h"
#include "vm/op_info.h"

namespace octopocs::symex {

std::string_view SymexStatusName(SymexStatus status) {
  switch (status) {
    case SymexStatus::kPocGenerated: return "poc-generated";
    case SymexStatus::kReachedEp: return "reached-ep";
    case SymexStatus::kCfgUnreachable: return "cfg-unreachable";
    case SymexStatus::kProgramDead: return "program-dead";
    case SymexStatus::kUnsat: return "unsat";
    case SymexStatus::kBudget: return "budget-exhausted";
    case SymexStatus::kSolverFailure: return "solver-failure";
    case SymexStatus::kDeadline: return "deadline-expired";
  }
  return "?";
}

namespace {

/// If `constraint` is a top-level equality between a single input byte
/// and a constant, expose it as a pin so EvalPartial can fold it later
/// without a solver round trip.
std::optional<std::pair<std::uint32_t, std::uint8_t>> AsBytePin(
    const ExprRef& constraint) {
  if (constraint->kind != ExprKind::kBinOp ||
      constraint->op != vm::Op::kCmpEq) {
    return std::nullopt;
  }
  const Expr* input = nullptr;
  const Expr* konst = nullptr;
  if (constraint->lhs->kind == ExprKind::kInput &&
      constraint->rhs->IsConst()) {
    input = constraint->lhs.get();
    konst = constraint->rhs.get();
  } else if (constraint->rhs->kind == ExprKind::kInput &&
             constraint->lhs->IsConst()) {
    input = constraint->rhs.get();
    konst = constraint->lhs.get();
  }
  if (input == nullptr || konst->value > 0xFF) return std::nullopt;
  return std::make_pair(input->offset,
                        static_cast<std::uint8_t>(konst->value));
}

}  // namespace

struct SymExecutor::Run {
  enum class Goal { kReachEp, kGeneratePoc };

  Run(const vm::Program& t_in, const cfg::Cfg& cfg_in, vm::FuncId ep_in,
      const ExecutorOptions& opts_in, Goal goal_in, bool directed_in,
      const std::vector<taint::Bunch>* bunches_in = nullptr)
      : t(t_in),
        cfg(cfg_in),
        ep(ep_in),
        opts(opts_in),
        goal(goal_in),
        directed(directed_in),
        bunches(bunches_in),
        cancel(opts_in.cancel) {}

  const vm::Program& t;
  const cfg::Cfg& cfg;
  vm::FuncId ep;
  const ExecutorOptions& opts;
  Goal goal;
  bool directed;
  const std::vector<taint::Bunch>* bunches = nullptr;

  cfg::DistanceMap dmap;

  /// The run's solver front door and its hit/miss counters. Both of
  /// its shortcuts are pure functions of the query and the state's own
  /// context (see solver.h), so they only ever save work.
  SolverCache cache;
  /// The wall-clock bound, polled between states and inside RunState.
  support::CancelToken cancel;

  std::deque<SymState> worklist;
  /// Naive-BFS bookkeeping: after a two-way fork the continuing state
  /// goes back to the queue (breadth-first interleaving).
  bool requeue_current = false;

  std::uint64_t queued_footprint = 0;
  std::uint64_t instructions_total = 0;
  std::uint64_t instructions_skipped = 0;
  std::uint64_t calls_total = 0;
  std::uint64_t solver_steps_total = 0;
  std::uint64_t states_created_total = 0;
  std::uint64_t live_states = 0;  // queued + in flight
  std::uint64_t peak_live_states = 0;
  std::uint64_t peak_memory_bytes = 0;

  /// What exploration saw, in execution order; the worklist-drain
  /// classification in Execute reads it.
  struct ObservationLog {
    bool reached_ep = false;
    bool solver_budget = false;
    bool deadline = false;
    bool unsat = false;
    std::string unsat_detail;  // the latest unsat observation
    bool loop_dead = false;
  };
  ObservationLog log;

  // ---------------------------------------------------------------------
  // State helpers.
  // ---------------------------------------------------------------------

  SymFrame& Top(SymState& s) { return s.frames.back(); }

  void Die(SymState& s, StateDeath why) { s.death = why; }

  /// Records an unsat observation for final-status classification
  /// without killing the state. A pruned branch direction is exactly
  /// the same evidence the dropped fork would have produced at its
  /// first solving site, so it feeds the same log.
  void RecordUnsat(std::string detail) {
    log.unsat = true;
    log.unsat_detail = std::move(detail);
  }

  static std::string InfeasibleDirection(vm::BlockId to) {
    return "branch direction to block " + std::to_string(to) +
           " is infeasible";
  }

  void NoteUnsat(SymState& s, std::string detail) {
    RecordUnsat(std::move(detail));
    Die(s, StateDeath::kUnsat);
  }

  /// Adds a path constraint, harvesting byte pins where possible. The
  /// state's solve context appends it to the path layer and folds it
  /// into its variable's domain when it is unary (one 256-lane pass
  /// here instead of one per downstream query).
  void AddConstraint(SymState& s, ExprRef expr) {
    if (expr->IsConst()) {
      if (expr->value == 0) NoteUnsat(s, "constant-false path constraint");
      return;
    }
    if (const auto pin = AsBytePin(expr)) {
      const auto [off, val] = *pin;
      auto it = s.pinned.find(off);
      if (it != s.pinned.end() && it->second != val) {
        NoteUnsat(s, "conflicting byte pins at offset " +
                         std::to_string(off));
        return;
      }
      s.pinned[off] = val;
    }
    s.solve_ctx.Append(expr);
  }

  /// Pins input byte `off` to `val`; conflict kills the state.
  void PinByte(SymState& s, std::uint64_t off, std::uint8_t val) {
    if (off >= opts.max_input_size) {
      NoteUnsat(s, "bunch byte beyond the symbolic file bound");
      return;
    }
    AddConstraint(s, MakeBinOp(vm::Op::kCmpEq,
                               MakeInput(static_cast<std::uint32_t>(off)),
                               MakeConst(val)));
  }

  /// Satisfiability of `s`'s path constraints through the run's
  /// front door: branch wipeout → certified model reuse → fresh search,
  /// seeded with the state's own solve context (see SolverCache::Solve).
  SolveResult SolveConstraints(SymState& s) {
    SolveResult r = cache.Solve(s.solve_ctx, nullptr, s.pinned, opts.solver);
    // Cache hits report zero steps, so each real search is counted once.
    solver_steps_total += r.steps;
    return r;
  }

  /// Satisfiability of the state's path condition extended with one
  /// speculative branch constraint. The query is the path layer plus
  /// that constraint; the path itself is untouched (Solve never writes
  /// UNSAT facts back into the context, and a SAT model it notes is a
  /// valid certificate for any later query). When the
  /// surviving direction is then committed via AddConstraint, the next
  /// query over this state repeats this exact query, whose model is in
  /// the state's pool — so the check both prunes infeasible forks
  /// before they execute and turns downstream concretization and
  /// finalization queries into model-reuse hits.
  SolveStatus BranchFeasible(SymState& s, const ExprRef& constraint) {
    s.solve_ctx.ChargeBranch();
    const SolveResult r =
        cache.Solve(s.solve_ctx, constraint, s.pinned, opts.solver);
    solver_steps_total += r.steps;
    return r.status;
  }

  /// Shared handling for a non-SAT/UNSAT solver verdict: records which
  /// kind of giving-up happened and kills the state. Returns true when
  /// it consumed the verdict (i.e. status was kUnknown or kCancelled).
  bool HandleSolverGiveUp(SymState& s, SolveStatus status) {
    if (status == SolveStatus::kUnknown) {
      log.solver_budget = true;
      Die(s, StateDeath::kSolverBudget);
      return true;
    }
    if (status == SolveStatus::kCancelled) {
      log.deadline = true;
      Die(s, StateDeath::kSolverBudget);
      return true;
    }
    return false;
  }

  /// Concrete value of `expr` in this state: fold under pins, otherwise
  /// ask the solver for a model and pin the participating bytes to it
  /// (angr-style concretization). Kills the state on unsat/budget.
  std::optional<std::uint64_t> Concretize(SymState& s, const ExprRef& expr) {
    if (const auto v = EvalPartial(expr, s.pinned)) return v;
    const SolveResult r = SolveConstraints(s);
    if (r.status == SolveStatus::kUnsat) {
      NoteUnsat(s, "path constraints unsatisfiable at concretization");
      return std::nullopt;
    }
    if (HandleSolverGiveUp(s, r.status)) return std::nullopt;
    SortedSmallSet<std::uint32_t> vars;
    CollectInputs(expr, vars);
    for (const std::uint32_t var : vars) {
      const auto it = r.model.find(var);
      const std::uint8_t val = it == r.model.end() ? 0 : it->second;
      PinByte(s, var, val);
      if (s.death != StateDeath::kAlive) return std::nullopt;
    }
    return EvalPartial(expr, s.pinned);
  }

  // -- Memory ---------------------------------------------------------------

  bool InRodata(std::uint64_t addr, std::uint64_t width) const {
    return addr >= vm::kRodataBase &&
           addr + width <= vm::kRodataBase + t.rodata.size();
  }

  /// Interpreter-equivalent access check; kills the state on faults.
  bool ResolveAccess(SymState& s, std::uint64_t addr, std::uint64_t width,
                     bool for_write) {
    if (width == 0) return true;
    if (addr < vm::kNullGuard || addr + width < addr) {
      Die(s, StateDeath::kTrapped);
      return false;
    }
    if (addr >= vm::kRodataBase && addr < vm::kHeapBase) {
      if (!for_write && InRodata(addr, width)) return true;
      Die(s, StateDeath::kTrapped);
      return false;
    }
    if (addr >= vm::kMmapBase) {
      // The file mapping: readable up to the symbolic file size.
      if (!for_write &&
          addr + width <= vm::kMmapBase + opts.max_input_size) {
        return true;
      }
      Die(s, StateDeath::kTrapped);
      return false;
    }
    const SymState::HeapMap& heap = s.heap.get();
    auto it = heap.upper_bound(addr);
    if (it != heap.begin()) {
      --it;
      const SymAlloc& alloc = it->second;
      const std::uint64_t off = addr - it->first;
      if (off < alloc.size && off + width <= alloc.size && alloc.alive) {
        return true;
      }
    }
    Die(s, StateDeath::kTrapped);
    return false;
  }

  ExprRef LoadByte(SymState& s, std::uint64_t addr) {
    if (InRodata(addr, 1)) {
      return MakeConst(t.rodata[addr - vm::kRodataBase]);
    }
    if (addr >= vm::kMmapBase) {
      // A mapped file byte is the corresponding symbolic PoC byte.
      const auto off = static_cast<std::uint32_t>(addr - vm::kMmapBase);
      s.read_offsets.Insert(off);
      s.required_size = std::max<std::uint64_t>(s.required_size, off + 1);
      const auto pin = s.pinned.find(off);
      return pin != s.pinned.end() ? MakeConst(pin->second)
                                   : MakeInput(off);
    }
    if (const ExprRef* v = s.mem.Find(addr)) return *v;
    return MakeConst(0);  // allocations are zero-initialized
  }

  ExprRef LoadWide(SymState& s, std::uint64_t addr, unsigned width) {
    ExprRef out = LoadByte(s, addr);
    for (unsigned i = 1; i < width; ++i) {
      out = MakeBinOp(
          vm::Op::kOr, std::move(out),
          MakeBinOp(vm::Op::kShl, LoadByte(s, addr + i), MakeConst(8 * i)));
    }
    return out;
  }

  void StoreWide(SymState& s, std::uint64_t addr, unsigned width,
                 const ExprRef& value) {
    for (unsigned i = 0; i < width; ++i) {
      s.mem.Set(addr + i, MakeExtract(value, static_cast<std::uint8_t>(i)));
    }
  }

  // -- Reachability with call-stack continuations ---------------------------

  /// True when ep remains reachable if execution moves to `target` in the
  /// innermost frame: either the target block reaches ep directly, or
  /// some outer frame's resume block does after a return.
  bool StateCanReach(const SymState& s, vm::BlockId target) const {
    const SymFrame& top = s.frames.back();
    if (dmap.Reaches(top.fn, target)) return true;
    for (std::size_t i = s.frames.size() - 1; i-- > 0;) {
      if (dmap.Reaches(s.frames[i].fn, s.frames[i].block)) return true;
    }
    return false;
  }

  std::uint64_t DirectionCost(const SymState& s, vm::BlockId target) const {
    const auto d = dmap.Distance(s.frames.back().fn, target);
    return d ? *d : 0xFFFFFFFFull;
  }

  // -- State compare ---------------------------------------------------------

  /// The scalar part of a state, and the run counters, that neither a
  /// repeating period nor a decided loop iteration may move. Both
  /// detectors compare it as one value before anything deeper.
  struct Scalars {
    std::size_t frames = 0;
    std::size_t mem = 0;  // memory cells
    std::size_t heap = 0;
    std::uint64_t cursor = 0;
    std::uint64_t file_pos = 0;
    std::uint64_t required_size = 0;
    std::uint32_t depth_inside = 0;
    std::uint32_t ep_count = 0;
    bool fsize_observed = false;
    // These containers only grow, so equal sizes mean nothing was added
    // and FinalizeState would see exactly the same inputs.
    std::size_t pinned = 0;
    std::size_t read_offsets = 0;
    std::size_t bunch_targets = 0;
    std::uint64_t solver_steps = 0;
    std::uint64_t states_created = 0;

    friend bool operator==(const Scalars&, const Scalars&) = default;
  };

  Scalars ScalarsOf(const SymState& s) const {
    return {.frames = s.frames.size(),
            .mem = s.mem.size(),
            .heap = s.heap.get().size(),
            .cursor = s.cursor.next,
            .file_pos = s.file_pos,
            .required_size = s.required_size,
            .depth_inside = s.depth_inside,
            .ep_count = s.ep_count,
            .fsize_observed = s.fsize_observed,
            .pinned = s.pinned.size(),
            .read_offsets = s.read_offsets.size(),
            .bunch_targets = s.bunch_targets.size(),
            .solver_steps = solver_steps_total,
            .states_created = states_created_total};
  }

  // -- Loop accounting -------------------------------------------------------

  /// Returns false (and kills the state) when traversing `from → to`
  /// would exceed θ for a constraint-accumulating (symbolic) loop.
  bool NoteEdge(SymState& s, vm::FuncId fn, vm::BlockId from,
                vm::BlockId to) {
    if (!cfg.IsBackEdge(fn, from, to)) return true;
    // Only loops that keep adding path constraints count toward θ —
    // those are the paper's symbolic "loop states". A concrete loop
    // re-traverses the edge with an unchanged constraint store.
    auto& entry = s.loop_counts.mut()[{fn, from, to}];
    if (entry.last_constraint_count != s.solve_ctx.appended() ||
        entry.count == 0) {
      entry.last_constraint_count = s.solve_ctx.appended();
      ++entry.count;
      if (entry.count > opts.theta) {
        log.loop_dead = true;
        Die(s, StateDeath::kLoopDead);
        return false;
      }
      if (&s == walk.state && LoopJump(s, {fn, from, to}, entry)) {
        return false;
      }
    }
    return true;
  }

  // ---------------------------------------------------------------------
  // Decided counting loops jump to the θ cut (ExecutorOptions::cycle_skip,
  // DESIGN §13.6).
  // ---------------------------------------------------------------------

  using EdgeKey = SymState::LoopMap::key_type;

  /// A back edge whose loop the jump may summarise, derived once per edge
  /// from T's IR: one cycle from the edge's target (the header) back to
  /// it through the edge, of register ALU instructions and jumps plus one
  /// conditional branch whose other side leaves the cycle. The branch
  /// tests an ordering compare of an induction register against a
  /// register the loop never writes.
  struct LoopShape {
    enum class Reg : std::uint8_t {
      kInvariant,  // never written in the loop
      kInduction,  // written once per iteration, by addi r, r, imm
      kScratch,    // written before it is read: dead at the header
    };
    std::vector<Reg> regs;
    std::vector<std::pair<vm::Reg, std::uint64_t>> induction;  // reg, imm
    /// The cycle's instructions from the header to the branch, in order.
    std::vector<const vm::Instr*> to_branch;
    const vm::Terminator* branch = nullptr;
    vm::BlockId exit = 0;     // the side that leaves the cycle
    bool exit_taken = false;  // ... is the branch's taken side
    std::uint64_t steps = 0;  // instructions and terminators per iteration
    std::uint64_t branch_step = 0;  // the branch's step, from 1
    vm::Op compare = vm::Op::kNop;
    vm::Reg counter = 0;  // the compared induction register
    vm::Reg bound = 0;    // the invariant it is compared with
    std::uint64_t step = 0;  // the counter's imm
    bool counter_lhs = true;
    bool counted = false;  // the compare runs after the counter's addi
  };

  /// Derived loop shapes by back edge; nullopt where the jump never fires.
  std::map<EdgeKey, std::optional<LoopShape>> shapes;

  static bool IsOrderingCompare(vm::Op op) {
    return op == vm::Op::kCmpLtU || op == vm::Op::kCmpLeU ||
           op == vm::Op::kCmpGtU || op == vm::Op::kCmpGeU;
  }

  std::optional<LoopShape> DeriveShape(const EdgeKey& edge) const {
    using vm::Op;
    const auto [fn, from, header] = edge;
    const vm::Function& f = t.Fn(fn);
    // Whether jumps alone lead from `b` to the header.
    const auto rejoins = [&](vm::BlockId b) {
      for (std::size_t n = 0; n <= f.blocks.size(); ++n) {
        if (b == header) return true;
        if (f.blocks[b].term.kind != vm::TermKind::kJump) return false;
        b = f.blocks[b].term.target;
      }
      return false;
    };
    LoopShape sh;
    std::vector<vm::BlockId> cycle;
    for (vm::BlockId b = header;;) {
      if (std::find(cycle.begin(), cycle.end(), b) != cycle.end()) {
        return std::nullopt;
      }
      cycle.push_back(b);
      const vm::Terminator& term = f.blocks[b].term;
      vm::BlockId next = term.target;
      if (term.kind == vm::TermKind::kBranch && sh.branch == nullptr) {
        const bool taken_in = rejoins(term.target);
        if (taken_in == rejoins(term.fallthrough)) return std::nullopt;
        sh.branch = &term;
        sh.exit_taken = !taken_in;
        sh.exit = taken_in ? term.fallthrough : term.target;
        next = taken_in ? term.target : term.fallthrough;
      } else if (term.kind != vm::TermKind::kJump) {
        return std::nullopt;
      }
      if (next == header) {
        if (b != from) return std::nullopt;
        break;
      }
      b = next;
    }
    if (sh.branch == nullptr ||
        std::find(cycle.begin(), cycle.end(), sh.exit) != cycle.end()) {
      return std::nullopt;
    }
    // The edge is the cycle's only back edge, so no other θ count moves.
    for (std::size_t i = 0; i + 1 < cycle.size(); ++i) {
      if (cfg.IsBackEdge(fn, cycle[i], cycle[i + 1])) return std::nullopt;
    }

    // One pass over the iteration's steps: which register each step
    // reads first, and where each is written.
    enum : std::uint8_t { kUntouched, kReadFirst, kWrittenFirst };
    std::vector<std::uint8_t> first(f.num_regs, kUntouched);
    std::vector<std::uint32_t> writes(f.num_regs, 0);
    std::vector<const vm::Instr*> writer(f.num_regs, nullptr);
    std::vector<std::uint64_t> written_at(f.num_regs, 0);  // last, from 1
    std::vector<std::uint64_t> at_branch;  // written_at when the branch ran
    const auto read = [&](vm::Reg r) {
      if (first[r] == kUntouched) first[r] = kReadFirst;
    };
    std::vector<ExprRef> probe(f.num_regs, MakeConst(0));
    for (const vm::BlockId id : cycle) {
      const vm::Block& block = f.blocks[id];
      for (const vm::Instr& ins : block.instrs) {
        ++sh.steps;
        // StepAlu on scratch registers accepts exactly the ops that
        // neither trap nor constrain.
        if (!StepAlu(probe, ins)) return std::nullopt;
        if (ins.op == Op::kNop) continue;
        if (ins.op != Op::kMovImm) read(ins.b);
        if (vm::GetOpInfo(ins.op).is_binary_alu) read(ins.c);
        if (first[ins.a] == kUntouched) first[ins.a] = kWrittenFirst;
        ++writes[ins.a];
        writer[ins.a] = &ins;
        written_at[ins.a] = sh.steps;
        if (at_branch.empty()) sh.to_branch.push_back(&ins);
      }
      ++sh.steps;
      if (&block.term == sh.branch) {
        read(block.term.cond);
        sh.branch_step = sh.steps;
        at_branch = written_at;
      }
    }

    sh.regs.assign(f.num_regs, LoopShape::Reg::kInvariant);
    for (vm::Reg r = 0; r < f.num_regs; ++r) {
      if (writes[r] == 0) continue;
      if (first[r] == kWrittenFirst) {
        sh.regs[r] = LoopShape::Reg::kScratch;
      } else if (writes[r] == 1 && writer[r]->op == Op::kAddImm &&
                 writer[r]->b == r) {
        sh.regs[r] = LoopShape::Reg::kInduction;
        sh.induction.emplace_back(r, writer[r]->imm);
      } else {
        return std::nullopt;  // carries a value across iterations
      }
    }

    // The condition's last write before the branch is the compare.
    const vm::Reg cond = sh.branch->cond;
    if (at_branch[cond] == 0) return std::nullopt;
    const vm::Instr* cmp = nullptr;
    for (const vm::Instr* ins : sh.to_branch) {
      if (ins->a == cond) cmp = ins;
    }
    if (!IsOrderingCompare(cmp->op)) return std::nullopt;
    const auto is = [&](vm::Reg r, LoopShape::Reg kind) {
      return sh.regs[r] == kind;
    };
    if (is(cmp->b, LoopShape::Reg::kInduction) &&
        is(cmp->c, LoopShape::Reg::kInvariant)) {
      sh.counter = cmp->b;
      sh.bound = cmp->c;
    } else if (is(cmp->c, LoopShape::Reg::kInduction) &&
               is(cmp->b, LoopShape::Reg::kInvariant)) {
      sh.counter = cmp->c;
      sh.bound = cmp->b;
      sh.counter_lhs = false;
    } else {
      return std::nullopt;
    }
    sh.compare = cmp->op;
    sh.step = writer[sh.counter]->imm;
    sh.counted = at_branch[sh.counter] != 0 &&
                 at_branch[sh.counter] < at_branch[cond];
    return sh;
  }

  /// The counter value `node` compares when it is what the loop's
  /// continue side appends: the shape's compare of a constant with
  /// `bound`, under `== 0` when the continue side is the fallthrough.
  static std::optional<std::uint64_t> ContinueCounter(const Expr* node,
                                                      const LoopShape& sh,
                                                      const Expr* bound) {
    if (sh.exit_taken) {
      if (node->kind != ExprKind::kBinOp || node->op != vm::Op::kCmpEq ||
          !node->rhs->IsConst() || node->rhs->value != 0) {
        return std::nullopt;
      }
      node = node->lhs.get();
    }
    if (node->kind != ExprKind::kBinOp || node->op != sh.compare) {
      return std::nullopt;
    }
    const Expr* counter = sh.counter_lhs ? node->lhs.get() : node->rhs.get();
    const Expr* other = sh.counter_lhs ? node->rhs.get() : node->lhs.get();
    if (other != bound || !counter->IsConst()) return std::nullopt;
    return counter->value;
  }

  /// The exit side's constraint in iteration `n` from now (n >= 1): the
  /// cycle's instructions up to the branch, run on the state's registers
  /// with each induction n - 1 steps on.
  static ExprRef ExitConstraint(const std::vector<ExprRef>& now,
                                const LoopShape& sh, std::uint64_t n) {
    std::vector<ExprRef> regs = now;
    for (const auto& [r, imm] : sh.induction) {
      regs[r] = MakeConst(now[r]->value + (n - 1) * imm);
    }
    for (const vm::Instr* ins : sh.to_branch) StepAlu(regs, *ins);
    const ExprRef& cond = regs[sh.branch->cond];
    return sh.exit_taken ? cond
                         : MakeBinOp(vm::Op::kCmpEq, cond, MakeConst(0));
  }

  /// True when v + k·imm (imm in two's complement) leaves the 64-bit
  /// range, unsigned or signed, for some k in [0, n].
  static bool Wraps(std::uint64_t v, std::uint64_t imm, std::uint64_t n) {
    const bool down = static_cast<std::int64_t>(imm) < 0;
    const std::uint64_t mag = down ? 0 - imm : imm;
    if (mag > std::numeric_limits<std::uint64_t>::max() / n) return true;
    const std::uint64_t span = mag * n;
    constexpr std::uint64_t kSignedMin = std::uint64_t{1} << 63;
    constexpr std::uint64_t kSignedMax = kSignedMin - 1;
    // Modulo 2^64 these are the true distances to each range's ends.
    const std::uint64_t unsigned_room =
        down ? v : std::numeric_limits<std::uint64_t>::max() - v;
    const std::uint64_t signed_room = down ? v - kSignedMin : kSignedMax - v;
    return span > unsigned_room || span > signed_room;
  }

  /// A vector's capacity after `pushes` more push_backs onto `size`
  /// elements: doubling when full, as SolveContext::Grow charges and as
  /// libstdc++'s std::vector grows (an insert into a full vector of n
  /// allocates 2n).
  static std::size_t GrownCapacity(std::size_t capacity, std::size_t size,
                                   std::uint64_t pushes) {
    if (pushes == 0) return capacity;
    if (capacity == 0) capacity = 1;
    while (capacity < size + pushes) capacity *= 2;
    return capacity;
  }

  /// The state RunState is stepping and the snapshot its last θ bump
  /// left, O(registers) to take and to compare.
  struct LoopWalk {
    const SymState* state = nullptr;  // null: the jump is off this run
    bool held = false;
    /// The iterations since the snapshot were decided but the cut was
    /// not: a fold that refutes the exit leaves the domain as it was, so
    /// the range check would fail again until an iteration is not.
    bool undecided = false;
    EdgeKey edge;
    std::uint32_t count = 0;
    std::uint64_t instructions = 0;
    Scalars scalars;
    std::size_t appended = 0;
    std::size_t distinct = 0;
    std::uint64_t pooled = 0;
    SolverCache::Stats queries;
    std::vector<ExprRef> regs;
  };
  LoopWalk walk;

  /// Runs when `edge`'s θ count has moved to entry.count <= θ in the
  /// state RunState steps. Returns true when it killed the state at the
  /// θ cut.
  bool LoopJump(SymState& s, const EdgeKey& edge, SymState::LoopEntry& entry) {
    LoopWalk& w = walk;
    // After combining a loop-dead state is finalized; an armed fault
    // counts solver steps the jump would skip.
    if (s.combining_done || support::fault::armed()) {
      w.held = false;
      return false;
    }
    auto it = shapes.find(edge);
    if (it == shapes.end()) it = shapes.emplace(edge, DeriveShape(edge)).first;
    if (!it->second) return false;
    const LoopShape& sh = *it->second;
    const bool decided = w.held && w.edge == edge &&
                         w.count + 1 == entry.count &&
                         IterationDecided(s, sh);
    if (!decided) {
      w.undecided = false;
    } else if (!w.undecided) {
      if (JumpToCut(s, sh, entry)) return true;
      w.undecided = true;
    }
    w.held = true;
    w.edge = edge;
    w.count = entry.count;
    w.instructions = s.instructions;
    w.scalars = ScalarsOf(s);
    w.appended = s.solve_ctx.appended();
    w.distinct = s.solve_ctx.size();
    w.pooled = s.solve_ctx.pooled();
    w.queries = cache.stats();
    w.regs = s.frames.back().regs;
    return false;
  }

  /// Whether the iteration since the snapshot is decided: exactly one
  /// pass round the cycle that moved only the inductions, appended one
  /// new unary constraint (the continue side's), created no state, left
  /// the model pool as it was and asked two queries, one model-reuse
  /// hit and one zero-step miss.
  bool IterationDecided(const SymState& s, const LoopShape& sh) const {
    const LoopWalk& w = walk;
    const SolverCache::Stats& q = cache.stats();
    if (s.instructions != w.instructions + sh.steps ||
        ScalarsOf(s) != w.scalars ||
        s.solve_ctx.appended() != w.appended + 1 ||
        s.solve_ctx.size() != w.distinct + 1 ||
        s.solve_ctx.pooled() != w.pooled || q.hits != w.queries.hits + 1 ||
        q.misses != w.queries.misses + 1) {
      return false;
    }
    const std::vector<ExprRef>& regs = s.frames.back().regs;
    for (std::size_t r = 0; r < regs.size(); ++r) {
      if (sh.regs[r] == LoopShape::Reg::kInvariant && regs[r] != w.regs[r]) {
        return false;
      }
    }
    for (const auto& [r, imm] : sh.induction) {
      if (!regs[r]->IsConst() || !w.regs[r]->IsConst() ||
          regs[r]->value != w.regs[r]->value + imm) {
        return false;
      }
    }
    const ExprRef& added = s.solve_ctx.Last();
    const auto k = ContinueCounter(added.get(), sh, regs[sh.bound].get());
    const std::uint64_t compared =
        regs[sh.counter]->value - (sh.counted ? 0 : sh.step);
    return k && *k == compared && FreeVars(added).size() == 1;
  }

  /// The jump itself, after a decided iteration: n = θ + 1 - count more
  /// iterations would each refute the exit and take the continue side
  /// until the θ cut kills the state. Two refutations decide them all:
  /// the compare is monotone in the counter, which does not wrap, so
  /// every exit set in between lies between two empty ones. Then each
  /// continue constraint admits the whole domain, every fold is a no-op,
  /// the same reuse candidate wins each time and each wipeout repeats.
  /// The jump charges what stepping would: instructions, one hit and one
  /// miss per iteration, the unsat detail, and the footprint the last
  /// poll crossed would read. It declines (returns false) where a
  /// crossed poll or the per-state fuel would stop the stepped run.
  bool JumpToCut(SymState& s, const LoopShape& sh,
                 SymState::LoopEntry& entry) {
    const std::vector<ExprRef>& regs = s.frames.back().regs;
    const std::uint64_t n = std::uint64_t{opts.theta} + 1 - entry.count;
    for (const auto& [r, imm] : sh.induction) {
      if (Wraps(regs[r]->value, imm, n)) return false;
    }
    const std::uint32_t var = *FreeVars(s.solve_ctx.Last()).begin();
    const auto refuted = [&](std::uint64_t i) {
      const ExprRef exit = ExitConstraint(regs, sh, i);
      const SortedSmallSet<std::uint32_t>& vars = FreeVars(exit);
      return vars.size() == 1 && *vars.begin() == var &&
             s.solve_ctx.Refutes(exit);
    };
    if (!refuted(1) || !refuted(n)) return false;
    // A continue constraint already on the path would append as a
    // repeat: no layer entry and no fold, so a different footprint.
    const std::uint64_t first =
        regs[sh.counter]->value + (sh.counted ? sh.step : 0);
    const std::uint64_t last = first + (n - 1) * sh.step;
    const std::uint64_t lo = std::min(first, last);
    const std::uint64_t hi = std::max(first, last);
    const std::vector<const Expr*>& applied = s.solve_ctx.Find(var)->applied;
    for (const Expr* node : applied) {
      const auto k = ContinueCounter(node, sh, regs[sh.bound].get());
      if (k && *k >= lo && *k <= hi) return false;
    }

    const std::uint64_t skip = n * sh.steps;
    if (s.instructions + skip - 1 > opts.max_state_instructions) return false;
    // The footprint only grows along the walk, so the last poll crossed
    // reads the most: it alone decides the budgets and the peak.
    const std::uint64_t g = instructions_total;
    const std::uint64_t poll = (g + skip) / kPollStride * kPollStride;
    if (poll > g) {
      if (live_states > opts.max_live_states || poll > opts.max_instructions) {
        return false;
      }
      // The state the poll reads, p steps on, has run `rounds` branches:
      // two branch charges and one append of a new unary constraint on
      // `var` each.
      const std::uint64_t p = poll - 1 - g;
      const std::uint64_t rounds =
          p / sh.steps + (p % sh.steps >= sh.branch_step ? 1 : 0);
      const SolveContext& ctx = s.solve_ctx;
      const std::size_t footprint =
          s.FootprintBytes() + rounds * SymState::kConstraintBytes +
          (GrownCapacity(ctx.charged_capacity(), ctx.appended(), rounds) -
           ctx.charged_capacity()) *
              sizeof(ExprRef) +
          (GrownCapacity(applied.capacity(), applied.size(), rounds) -
           applied.capacity()) *
              sizeof(const Expr*);
      const std::uint64_t mem = queued_footprint + footprint;
      if (mem > opts.max_memory_bytes) return false;
      peak_memory_bytes = std::max(peak_memory_bytes, mem);
    }

    s.instructions += skip;
    instructions_total += skip;
    instructions_skipped += skip;
    cache.CountSkipped(n, n);
    RecordUnsat(InfeasibleDirection(sh.exit));
    entry.last_constraint_count = s.solve_ctx.appended() + n;
    entry.count = opts.theta + 1;
    log.loop_dead = true;
    Die(s, StateDeath::kLoopDead);
    return true;
  }

  // ---------------------------------------------------------------------
  // Worklist management.
  // ---------------------------------------------------------------------

  void PushState(SymState&& s) {
    ++states_created_total;
    s.queued_charge = s.FootprintBytes();
    queued_footprint += s.queued_charge;
    peak_live_states = std::max(peak_live_states, ++live_states);
    worklist.push_back(std::move(s));
  }

  SymState PopState() {
    SymState s;
    if (directed) {
      s = std::move(worklist.back());
      worklist.pop_back();
    } else {
      s = std::move(worklist.front());
      worklist.pop_front();
    }
    queued_footprint -= s.queued_charge;
    return s;
  }

  bool OverBudget(const SymState& current, std::string* why) {
    if (live_states > opts.max_live_states) {
      *why = "live-state budget exceeded (" +
             std::to_string(opts.max_live_states) + " states)";
      return true;
    }
    const std::uint64_t mem = queued_footprint + current.FootprintBytes();
    peak_memory_bytes = std::max(peak_memory_bytes, mem);
    if (mem > opts.max_memory_bytes) {
      *why = "memory budget exceeded";
      return true;
    }
    if (instructions_total > opts.max_instructions) {
      *why = "global instruction budget exceeded";
      return true;
    }
    return false;
  }

  // ---------------------------------------------------------------------
  // ep-encounter handling (P2 goal / P3 combining).
  // ---------------------------------------------------------------------

  enum class EpOutcome { kContinue, kGoalReached, kStateDead };

  EpOutcome HandleEpEntry(SymState& s, const std::vector<ExprRef>& args,
                          SymexResult* final_result) {
    if (goal == Goal::kReachEp) {
      // P2 proper: the guiding constraints collected on the way to ep
      // must actually be solvable, otherwise this state only *appears*
      // to reach ep along an infeasible path.
      const SolveResult r = SolveConstraints(s);
      if (r.status == SolveStatus::kUnsat) {
        NoteUnsat(s, "guiding constraints unsatisfiable at ep");
        return EpOutcome::kStateDead;
      }
      if (HandleSolverGiveUp(s, r.status)) return EpOutcome::kStateDead;
      log.reached_ep = true;
      // Emit a witness input: a concrete file that drives T from its
      // entry to ep along this verified path (useful on its own as
      // directed test-input generation).
      Bytes witness(
          s.fsize_observed ? opts.max_input_size : s.required_size, 0);
      for (const auto& [off, val] : opts.solver.hints) {
        if (off < witness.size() && s.read_offsets.Contains(off)) {
          witness[off] = val;
        }
      }
      for (const auto& [off, val] : r.model) {
        if (off < witness.size()) witness[off] = val;
      }
      for (const auto& [off, val] : s.pinned) {
        if (off < witness.size()) witness[off] = val;
      }
      final_result->poc = std::move(witness);
      return EpOutcome::kGoalReached;
    }
    log.reached_ep = true;

    const std::size_t idx = s.ep_count;
    ++s.ep_count;
    if (idx >= bunches->size()) {
      // More encounters than S had: the combining plan is exhausted.
      Die(s, StateDeath::kPruned);
      return EpOutcome::kStateDead;
    }
    const taint::Bunch& bunch = (*bunches)[idx];

    // Parameter matching: "OCTOPOCS executes ep in T with the same
    // parameters as those used in S". Pointer-valued arguments are
    // skipped: allocation addresses are execution-specific.
    const std::size_t n = std::min(args.size(), bunch.ep_args.size());
    for (std::size_t i = 0; i < n; ++i) {
      const std::uint64_t recorded = bunch.ep_args[i];
      if (recorded >= vm::kRodataBase) continue;  // pointer heuristic
      if (const auto v = EvalPartial(args[i], s.pinned)) {
        if (*v != recorded) {
          NoteUnsat(s, "ep argument " + std::to_string(i) +
                           " is fixed to a different value in T");
          return EpOutcome::kStateDead;
        }
      } else {
        AddConstraint(s, MakeBinOp(vm::Op::kCmpEq, args[i],
                                   MakeConst(recorded)));
        if (s.death != StateDeath::kAlive) return EpOutcome::kStateDead;
      }
    }

    // Bunch placement at the file-position indicator (P3.1): bytes S
    // consumed at or after its ep-time position are relocated relative
    // to T's position. Bytes consumed *before* ep (e.g. header fields
    // that reach ℓ through ep's parameters) are not pinned here — the
    // parameter-matching constraints above already force T's own input
    // bytes to deliver the same values at T's own offsets; pinning them
    // at S's absolute offsets would corrupt shifted containers.
    for (const auto& [off, val] : bunch.bytes) {
      if (off < bunch.file_pos_at_ep) continue;
      const std::uint64_t target =
          s.file_pos + (off - bunch.file_pos_at_ep);
      PinByte(s, target, val);
      if (s.death != StateDeath::kAlive) return EpOutcome::kStateDead;
      s.required_size = std::max(s.required_size, target + 1);
      s.bunch_targets.push_back(static_cast<std::uint32_t>(target));
    }

    if (s.ep_count == bunches->size()) {
      // Final encounter: keep executing *through* ℓ so the symbolic
      // file grows to cover every byte ℓ consumes on the way to the
      // crash; the state finalizes (P3.3) when it traps or leaves ℓ.
      s.combining_done = true;
    }
    (void)final_result;
    return EpOutcome::kContinue;
  }

  /// P3.3: solves the accumulated system into poc'. Returns true when
  /// the run is finished (success); on unsat/unknown the state's death
  /// is recorded and false is returned.
  bool FinalizeState(SymState& s, SymexResult* result) {
    const SolveResult r = SolveConstraints(s);
    if (r.status == SolveStatus::kUnsat) {
      NoteUnsat(s, "combined constraint system is unsatisfiable");
      return false;
    }
    if (HandleSolverGiveUp(s, r.status)) return false;
    const std::uint64_t len =
        s.fsize_observed ? opts.max_input_size : s.required_size;
    Bytes poc(len, 0);
    // Bytes the verified path read but never constrained cannot
    // influence T's execution along that path (any byte feeding a
    // branch or address was constrained or concretized); fill them from
    // the hints (the original PoC) so Type-I reforms keep their guiding
    // input verbatim. Bytes the path never read stay at the solver
    // default — they are outside the verification claim.
    for (const auto& [off, val] : opts.solver.hints) {
      if (off < poc.size() && s.read_offsets.Contains(off)) poc[off] = val;
    }
    for (const auto& [off, val] : r.model) {
      if (off < poc.size()) poc[off] = val;
    }
    for (const auto& [off, val] : s.pinned) {
      if (off < poc.size()) poc[off] = val;
    }
    result->status = SymexStatus::kPocGenerated;
    result->poc = std::move(poc);
    result->bunch_offsets = s.bunch_targets;
    return true;
  }

  // ---------------------------------------------------------------------
  // Exact-cycle fast-forward after combining (ExecutorOptions::cycle_skip).
  // ---------------------------------------------------------------------

  /// The stepper's poll: every kPollStride instructions of the run.
  static constexpr std::uint64_t kPollStride = 1024;

  /// One state's detector: the port of the interpreter's (vm/interp.cpp,
  /// DESIGN §13.4). Once combining is done, the poll picks a probe
  /// point on Brent's doubling schedule: the block the top frame is in,
  /// at its depth. The next entry to that block arms a deep snapshot and
  /// each later entry compares against it, until the window has run and
  /// a poll picks a new point with twice the window. The first entry
  /// that differs re-arms the snapshot, once per window. Expressions are
  /// hash-consed and the run's InternScope keeps every node alive, so
  /// registers and memory compare by ExprRef pointer.
  struct CycleSnapshot {
    bool live = false;  // cleared once the state's one skip is spent
    const vm::Block* block = nullptr;  // the probe point; null for none
    std::size_t depth = 0;
    std::uint64_t window = kPollStride;
    std::uint64_t limit = 0;  // re-target at the first poll at or past
    bool armed = false;
    bool rearmed = false;  // this window's one re-arm is spent
    std::uint64_t arm_instr = 0;  // s.instructions at the snapshot
    // After a match: the period, and what a poll in it would read as
    // the state's footprint. That is one value for a period without a
    // call; with one, the footprint before each instruction of one more
    // period, stepped so the skip can charge each skipped poll its own.
    std::uint64_t period = 0;
    std::vector<std::size_t> footprints;
    // The snapshot cell that broke the last deep compare; checked first,
    // so a loop whose progress lives in memory is rejected in O(1).
    bool hint = false;
    std::uint64_t hint_addr = 0;
    ExprRef hint_value;

    std::vector<SymFrame> frames;
    std::vector<std::pair<std::uint64_t, ExprRef>> mem;
    // Copied by value: another owner of the Cow handles would change
    // FootprintBytes, which feeds OverBudget and peak_memory_bytes.
    SymState::HeapMap heap;
    SymState::LoopMap loop_counts;
    Scalars scalars;
    std::size_t constraints = 0;  // appended: only grows
    // What the period may not have touched outside the state and the
    // scalars: the memory gauge and the solver's hit/miss counters.
    std::size_t footprint = 0;
    std::uint64_t solver_queries = 0;
    // Calls made by the run: a period without one keeps its footprint.
    std::uint64_t calls = 0;
  };

  std::uint64_t SolverQueries() const {
    return cache.stats().hits + cache.stats().misses;
  }

  void CycleArm(const SymState& s, CycleSnapshot& d) {
    d.armed = true;
    d.arm_instr = s.instructions;
    d.limit = s.instructions + d.window;
    d.hint = false;
    d.frames = s.frames;
    d.mem.clear();
    d.mem.reserve(s.mem.size());
    s.mem.ForEach([&](std::uint64_t addr, const ExprRef& v) {
      d.mem.emplace_back(addr, v);
    });
    d.heap = s.heap.get();
    d.loop_counts = s.loop_counts.get();
    d.scalars = ScalarsOf(s);
    d.constraints = s.solve_ctx.appended();
    d.footprint = s.FootprintBytes();
    d.solver_queries = SolverQueries();
    d.calls = calls_total;
  }

  bool CycleStateEquals(const SymState& s, CycleSnapshot& d) const {
    // Cheap reject first: scalars and sizes, then the cell that differed
    // last time; the deep compare only runs when those all agree.
    if (ScalarsOf(s) != d.scalars ||
        s.solve_ctx.appended() != d.constraints ||
        SolverQueries() != d.solver_queries) {
      return false;
    }
    if (d.hint) {
      const ExprRef* v = s.mem.Find(d.hint_addr);
      if (v == nullptr || *v != d.hint_value) return false;
    }
    // Frames innermost-first: a progressing loop differs in its top regs.
    for (std::size_t i = s.frames.size(); i-- > 0;) {
      const SymFrame& a = s.frames[i];
      const SymFrame& b = d.frames[i];
      if (a.fn != b.fn || a.block != b.block || a.ip != b.ip ||
          a.ret_reg != b.ret_reg || a.regs != b.regs) {
        return false;
      }
    }
    if (s.heap.get() != d.heap || s.loop_counts.get() != d.loop_counts) {
      return false;
    }
    std::size_t i = 0;
    std::size_t differs = d.mem.size();
    s.mem.ForEach([&](std::uint64_t addr, const ExprRef& v) {
      if (differs == d.mem.size() &&
          (d.mem[i].first != addr || d.mem[i].second != v)) {
        differs = i;
      }
      ++i;
    });
    if (differs != d.mem.size()) {
      d.hint = true;
      d.hint_addr = d.mem[differs].first;
      d.hint_value = d.mem[differs].second;
      return false;
    }
    // A capacity that grew inside the period would make the polls
    // skipped over read a larger footprint than the stepped ones did.
    return s.FootprintBytes() == d.footprint;
  }

  /// Runs at the poll of a state whose bunches are all placed: picks the
  /// probe point once the current window has run.
  void CyclePoll(const SymState& s, CycleSnapshot& d) {
    // Fault injection counts kStateFork/kAllocation polls; skipping
    // periods would move the armed injection point.
    if (support::fault::armed()) {
      d.block = nullptr;
      return;
    }
    if (d.period != 0) return;  // stepping the recorded period
    if (d.block != nullptr) {
      if (s.instructions < d.limit) return;
      d.window *= 2;
    }
    const SymFrame& top = s.frames.back();
    d.block = &t.Fn(top.fn).blocks[top.block];
    d.depth = s.frames.size();
    d.limit = s.instructions + d.window;
    d.armed = false;
    d.rearmed = false;
  }

  /// Runs before each instruction while a probe point is set, with the
  /// state between instructions.
  void CycleVisit(SymState& s, CycleSnapshot& d) {
    if (d.period != 0) {
      if (d.footprints.size() < d.period) {
        d.footprints.push_back(s.FootprintBytes());
        return;
      }
      CycleSkip(s, d);
      return;
    }
    const SymFrame& top = s.frames.back();
    if (top.ip != 0 || s.frames.size() != d.depth ||
        &t.Fn(top.fn).blocks[top.block] != d.block) {
      return;
    }
    if (!d.armed) {
      CycleArm(s, d);
      return;
    }
    if (!CycleStateEquals(s, d)) {
      // A state that settles one iteration after the arm (a loop count
      // that moves on its first traversal) never matches that snapshot:
      // re-arm once per window, at the first entry that differs.
      if (!d.rearmed) {
        d.rearmed = true;
        CycleArm(s, d);
      }
      return;
    }
    if (support::fault::armed()) return;
    // Exact repeat: stepping is deterministic from a complete state, so
    // the state retraces this period until a limit stops it.
    d.period = s.instructions - d.arm_instr;
    d.footprints.assign(1, d.footprint);
    // Only a call changes the footprint and changes it back inside a
    // period; without one, every skipped poll reads this footprint.
    // With one, step one more period first and record what each
    // instruction of it would show a poll.
    if (calls_total == d.calls) CycleSkip(s, d);
  }

  /// Jumps the state a whole number of periods, d.period instructions
  /// from the last entry that matched. The polls jumped over are charged
  /// as OverBudget would have met them: each reads the footprint of its
  /// phase in the period (d.footprints holds one entry, or one per
  /// instruction). The jump stops short of a poll that would trip the
  /// memory budget, so the residual steps to that poll and stops there;
  /// it also stays inside the per-state and run instruction caps, so
  /// kDepthLimit or the instruction budget fires on the same instruction
  /// as in the stepped run.
  void CycleSkip(SymState& s, CycleSnapshot& d) {
    const std::uint64_t period = d.period;
    const std::uint64_t state_room =
        opts.max_state_instructions > s.instructions
            ? opts.max_state_instructions - s.instructions
            : 0;
    const std::uint64_t run_room =
        opts.max_instructions > instructions_total
            ? opts.max_instructions - instructions_total
            : 0;
    std::uint64_t periods = std::min(state_room, run_room) / period;
    // A fork since the last poll may have put the live-state budget
    // over; the next poll must then trip it.
    if (live_states > opts.max_live_states) periods = 0;
    // The poll at instruction m reads the state m - 1 - g instructions
    // past this one. Phases repeat after q / gcd(q, kPollStride) polls.
    const std::uint64_t g = instructions_total;
    const std::uint64_t q = d.footprints.size();
    const std::uint64_t phases = q / std::gcd(q, kPollStride);
    std::uint64_t m = (g / kPollStride + 1) * kPollStride;
    for (std::uint64_t n = 0; n < phases && m <= g + periods * period;
         ++n, m += kPollStride) {
      const std::uint64_t mem =
          queued_footprint + d.footprints[(m - 1 - g) % q];
      if (mem > opts.max_memory_bytes) {
        periods = (m - 1 - g) / period;
        break;
      }
      peak_memory_bytes = std::max(peak_memory_bytes, mem);
    }
    const std::uint64_t skip = periods * period;
    s.instructions += skip;
    instructions_total += skip;
    instructions_skipped += skip;
    d = CycleSnapshot{};  // one skip per state; the residual is short
  }

  // ---------------------------------------------------------------------
  // Single-state execution until death, fork-exhaustion, or goal.
  // ---------------------------------------------------------------------

  /// Runs `s` until it dies or the goal is met. Forked siblings are
  /// pushed onto the worklist. Returns true when the run is finished
  /// (result filled in: goal reached, or budget/deadline tripped).
  bool RunState(SymState s, SymexResult* result) {
    CycleSnapshot cycle;
    cycle.live = opts.cycle_skip && goal == Goal::kGeneratePoc;
    walk.state = opts.cycle_skip && directed ? &s : nullptr;
    walk.held = false;
    while (s.death == StateDeath::kAlive) {
      if (cycle.block != nullptr) CycleVisit(s, cycle);
      if (s.instructions > opts.max_state_instructions) {
        Die(s, StateDeath::kDepthLimit);
        break;
      }
      ++s.instructions;
      if (++instructions_total % kPollStride == 0) {
        std::string why;
        if (OverBudget(s, &why)) {
          result->status = SymexStatus::kBudget;
          result->detail = why;
          return true;
        }
        if (cancel.ShouldStop()) {
          result->status = SymexStatus::kDeadline;
          result->detail = "wall-clock deadline expired mid-exploration";
          return true;
        }
        if (cycle.live && s.combining_done) CyclePoll(s, cycle);
      }

      SymFrame& frame = s.frames.back();
      const vm::Function& fn = t.Fn(frame.fn);
      const vm::Block& block = fn.blocks[frame.block];

      if (frame.ip >= block.instrs.size()) {
        if (!StepTerminator(s, result)) {
          if (result->status == SymexStatus::kPocGenerated ||
              result->status == SymexStatus::kReachedEp) {
            return true;
          }
          if (requeue_current && s.death == StateDeath::kAlive) {
            requeue_current = false;
            PushState(std::move(s));
            return false;
          }
          break;  // state died
        }
        continue;
      }
      const vm::Instr& ins = block.instrs[frame.ip];
      ++frame.ip;
      if (!StepInstr(s, ins, result)) {
        if (result->status == SymexStatus::kPocGenerated ||
            result->status == SymexStatus::kReachedEp) {
          return true;
        }
        break;  // state died
      }
    }
    // A state that died *after* the last bunch was placed carries the
    // complete combining record: a trap here is the expected crash, an
    // exit or limit still yields a complete constraint system. Solve it.
    if (goal == Goal::kGeneratePoc && s.combining_done &&
        (s.death == StateDeath::kTrapped || s.death == StateDeath::kExited ||
         s.death == StateDeath::kDepthLimit ||
         s.death == StateDeath::kLoopDead ||
         s.death == StateDeath::kPruned)) {
      if (FinalizeState(s, result)) return true;
    }
    return false;
  }

  /// Terminators. Returns false when the state died or the run finished
  /// (check result->status).
  bool StepTerminator(SymState& s, SymexResult* result) {
    SymFrame& frame = s.frames.back();
    const vm::Terminator& term = t.Fn(frame.fn).blocks[frame.block].term;
    switch (term.kind) {
      case vm::TermKind::kJump:
        if (!NoteEdge(s, frame.fn, frame.block, term.target)) return false;
        frame.block = term.target;
        frame.ip = 0;
        return true;
      case vm::TermKind::kBranch:
        return StepBranch(s, term);
      case vm::TermKind::kReturn: {
        const ExprRef value = term.returns_value ? frame.regs[term.cond]
                                                 : MakeConst(0);
        const vm::Reg dest = frame.ret_reg;
        s.frames.pop_back();
        if (s.depth_inside > 0) {
          --s.depth_inside;
          if (s.depth_inside == 0 && s.combining_done &&
              goal == Goal::kGeneratePoc) {
            // ℓ exited without crashing after the last bunch: finalize
            // here — Algorithm 2 terminates T after the final encounter.
            FinalizeState(s, result);
            return false;  // success or state death; RunState inspects
          }
        }
        if (s.frames.empty()) {
          Die(s, StateDeath::kExited);
          return false;
        }
        s.frames.back().regs[dest] = value;
        return true;
      }
    }
    return true;
  }

  bool StepBranch(SymState& s, const vm::Terminator& term) {
    SymFrame& frame = s.frames.back();
    const ExprRef cond = frame.regs[term.cond];
    const vm::FuncId fn = frame.fn;
    const vm::BlockId from = frame.block;

    if (const auto v = EvalPartial(cond, s.pinned)) {
      const vm::BlockId to = *v != 0 ? term.target : term.fallthrough;
      if (!NoteEdge(s, fn, from, to)) return false;
      frame.block = to;
      frame.ip = 0;
      return true;
    }

    // Symbolic condition: enumerate viable directions.
    struct Direction {
      vm::BlockId to;
      ExprRef constraint;
      std::uint64_t cost;
    };
    std::vector<Direction> dirs;
    const auto consider = [&](vm::BlockId to, ExprRef constraint) {
      if (directed && s.depth_inside == 0 && !StateCanReach(s, to)) return;
      dirs.push_back({to, std::move(constraint), DirectionCost(s, to)});
    };
    consider(term.target, cond);
    consider(term.fallthrough,
             MakeBinOp(vm::Op::kCmpEq, cond, MakeConst(0)));

    if (dirs.empty()) {
      Die(s, StateDeath::kPruned);
      return false;
    }
    // Directed mode proves each CFG-viable direction satisfiable before
    // committing or forking. Successive checks over one state extend a
    // shared prefix, which is the workload the front door's shortcuts
    // are built for (model reuse on the committed direction and on the
    // extensions, branch wipeouts on refuted unary branches). Naive
    // mode keeps the fork-everything behaviour — the Table IV baseline
    // measures exactly that state blow-up.
    if (directed) {
      std::vector<Direction> live;
      live.reserve(dirs.size());
      for (Direction& d : dirs) {
        const SolveStatus st = BranchFeasible(s, d.constraint);
        if (st == SolveStatus::kUnsat) {
          RecordUnsat(InfeasibleDirection(d.to));
          continue;
        }
        // kUnknown/kCancelled directions stay in: the downstream query
        // sites classify solver give-ups with the right status.
        live.push_back(std::move(d));
      }
      dirs = std::move(live);
      if (dirs.empty()) {
        // Both infeasibilities were just recorded above.
        Die(s, StateDeath::kUnsat);
        return false;
      }
    }
    // Prefer the direction closer to ep (directed) or the taken edge
    // (naive); the sibling forks.
    if (directed && dirs.size() == 2 && dirs[1].cost < dirs[0].cost) {
      std::swap(dirs[0], dirs[1]);
    }
    if (dirs.size() == 2) {
      support::fault::MaybeThrow(support::FaultSite::kStateFork);
      SymState fork = s;
      AddConstraint(fork, dirs[1].constraint);
      if (fork.death == StateDeath::kAlive &&
          NoteEdge(fork, fn, from, dirs[1].to)) {
        fork.frames.back().block = dirs[1].to;
        fork.frames.back().ip = 0;
        PushState(std::move(fork));
      }
    }
    AddConstraint(s, dirs[0].constraint);
    if (s.death != StateDeath::kAlive) return false;
    if (!NoteEdge(s, fn, from, dirs[0].to)) return false;
    frame.block = dirs[0].to;
    frame.ip = 0;
    if (!directed && dirs.size() == 2) {
      // Breadth-first: after a genuine two-way fork the continuing state
      // goes back to the queue so exploration interleaves — this is what
      // makes naive symbolic execution accumulate states (Table IV).
      requeue_current = true;
      return false;
    }
    return true;
  }

  /// Non-terminator instructions. Returns false when the state died or
  /// the run finished (check result->status).
  bool StepInstr(SymState& s, const vm::Instr& ins, SymexResult* result) {
    using vm::Op;
    auto& regs = s.frames.back().regs;
    if (StepAlu(regs, ins)) return true;
    switch (ins.op) {
      case Op::kDivU:
      case Op::kRemU: {
        const auto div = EvalPartial(regs[ins.c], s.pinned);
        if (div && *div == 0) {
          Die(s, StateDeath::kTrapped);
          return false;
        }
        if (!div) {
          // Guiding execution must survive to ep: require a nonzero
          // divisor on this path.
          AddConstraint(s, MakeBinOp(Op::kCmpNe, regs[ins.c], MakeConst(0)));
          if (s.death != StateDeath::kAlive) return false;
        }
        regs[ins.a] = MakeBinOp(ins.op, regs[ins.b], regs[ins.c]);
        return true;
      }
      case Op::kLoad: {
        const auto addr =
            Concretize(s, MakeBinOp(Op::kAdd, regs[ins.b], MakeConst(ins.imm)));
        if (!addr) return false;
        if (!ResolveAccess(s, *addr, ins.width, /*for_write=*/false)) {
          return false;
        }
        regs[ins.a] = LoadWide(s, *addr, ins.width);
        return true;
      }
      case Op::kStore: {
        const auto addr =
            Concretize(s, MakeBinOp(Op::kAdd, regs[ins.b], MakeConst(ins.imm)));
        if (!addr) return false;
        if (!ResolveAccess(s, *addr, ins.width, /*for_write=*/true)) {
          return false;
        }
        StoreWide(s, *addr, ins.width, regs[ins.a]);
        return true;
      }
      case Op::kAlloc: {
        support::fault::MaybeThrow(support::FaultSite::kAllocation);
        const auto size = Concretize(s, regs[ins.b]);
        if (!size) return false;
        const std::uint64_t base = s.cursor.Take(*size);
        s.heap.mut()[base] = SymAlloc{*size, true};
        regs[ins.a] = MakeConst(base);
        return true;
      }
      case Op::kFree: {
        const auto addr = Concretize(s, regs[ins.a]);
        if (!addr) return false;
        SymState::HeapMap& heap = s.heap.mut();
        auto it = heap.find(*addr);
        if (it == heap.end() || !it->second.alive) {
          Die(s, StateDeath::kTrapped);
          return false;
        }
        it->second.alive = false;
        return true;
      }
      case Op::kRead: {
        const auto dst = Concretize(s, regs[ins.b]);
        if (!dst) return false;
        const auto want = Concretize(s, regs[ins.c]);
        if (!want) return false;
        const std::uint64_t avail = s.file_pos < opts.max_input_size
                                        ? opts.max_input_size - s.file_pos
                                        : 0;
        const std::uint64_t n = std::min(*want, avail);
        if (n > 0) {
          // The file must contain these bytes even if the access below
          // faults — a read that overflows its buffer only reproduces
          // concretely when poc' is long enough to supply it. The same
          // goes for the read-coverage record used by hint filling.
          s.required_size = std::max(s.required_size, s.file_pos + n);
          for (std::uint64_t i = 0; i < n; ++i) {
            s.read_offsets.Insert(static_cast<std::uint32_t>(s.file_pos + i));
          }
          if (!ResolveAccess(s, *dst, n, /*for_write=*/true)) return false;
          for (std::uint64_t i = 0; i < n; ++i) {
            const std::uint64_t off = s.file_pos + i;
            const auto pin = s.pinned.find(static_cast<std::uint32_t>(off));
            s.mem.Set(*dst + i,
                      pin != s.pinned.end()
                          ? MakeConst(pin->second)
                          : MakeInput(static_cast<std::uint32_t>(off)));
          }
          s.file_pos += n;
          s.required_size = std::max(s.required_size, s.file_pos);
        }
        regs[ins.a] = MakeConst(n);
        return true;
      }
      case Op::kSeek: {
        const auto pos = Concretize(s, regs[ins.b]);
        if (!pos) return false;
        s.file_pos = *pos;
        return true;
      }
      case Op::kMMap:
        regs[ins.a] = MakeConst(vm::kMmapBase);
        return true;
      case Op::kTell:
        regs[ins.a] = MakeConst(s.file_pos);
        return true;
      case Op::kFileSize:
        s.fsize_observed = true;
        regs[ins.a] = MakeConst(opts.max_input_size);
        return true;
      case Op::kFnAddr:
        regs[ins.a] = MakeConst(ins.imm);
        return true;
      case Op::kAssert: {
        const auto v = EvalPartial(regs[ins.a], s.pinned);
        if (v && *v == 0) {
          Die(s, StateDeath::kTrapped);
          return false;
        }
        if (!v) {
          AddConstraint(s, regs[ins.a]);
          if (s.death != StateDeath::kAlive) return false;
        }
        return true;
      }
      case Op::kTrap:
        Die(s, StateDeath::kTrapped);
        return false;
      case Op::kCall:
      case Op::kICall:
        return StepCall(s, ins, result);
      default:
        Die(s, StateDeath::kTrapped);
        return false;
    }
  }

  /// The register-only instructions, which neither trap nor constrain:
  /// writes regs[ins.a] and returns true, or returns false for any other
  /// op. The loop jump builds its exit constraints through this too, so
  /// each node is the one stepping builds.
  static bool StepAlu(std::vector<ExprRef>& regs, const vm::Instr& ins) {
    using vm::Op;
    switch (ins.op) {
      case Op::kMovImm:
        regs[ins.a] = MakeConst(ins.imm);
        return true;
      case Op::kMov:
        regs[ins.a] = regs[ins.b];
        return true;
      case Op::kNot:
        regs[ins.a] = MakeNot(regs[ins.b]);
        return true;
      case Op::kAddImm:
        regs[ins.a] = MakeBinOp(Op::kAdd, regs[ins.b], MakeConst(ins.imm));
        return true;
      case Op::kNop:
        return true;
      case Op::kDivU:
      case Op::kRemU:  // traps on zero, constrains a symbolic divisor
        return false;
      default:
        // Classified via the shared metadata table (vm/op_info.h) so the
        // symbolic dispatch cannot drift from the interpreter's.
        if (!vm::GetOpInfo(ins.op).is_binary_alu) return false;
        regs[ins.a] = MakeBinOp(ins.op, regs[ins.b], regs[ins.c]);
        return true;
    }
  }

  bool StepCall(SymState& s, const vm::Instr& ins, SymexResult* result) {
    auto& regs = s.frames.back().regs;
    vm::FuncId callee;
    if (ins.op == vm::Op::kCall) {
      callee = static_cast<vm::FuncId>(ins.imm);
    } else {
      const auto target = Concretize(s, regs[ins.b]);
      if (!target) return false;
      if (*target >= t.functions.size()) {
        Die(s, StateDeath::kTrapped);
        return false;
      }
      callee = static_cast<vm::FuncId>(*target);
    }
    const vm::Function& callee_fn = t.Fn(callee);
    if (ins.args.size() != callee_fn.num_params ||
        s.frames.size() >= opts.max_call_depth) {
      Die(s, StateDeath::kTrapped);
      return false;
    }

    std::vector<ExprRef> args;
    args.reserve(ins.args.size());
    for (const vm::Reg r : ins.args) args.push_back(regs[r]);

    const bool entering_l =
        s.depth_inside == 0 && callee == ep && !s.combining_done;
    if (s.depth_inside > 0) ++s.depth_inside;

    if (entering_l) {
      const EpOutcome outcome = HandleEpEntry(s, args, result);
      if (outcome == EpOutcome::kGoalReached) {
        if (goal == Goal::kReachEp) {
          result->status = SymexStatus::kReachedEp;
        }
        return false;  // finished (result->status signals success)
      }
      if (outcome == EpOutcome::kStateDead) return false;
      s.depth_inside = 1;  // ExploreWhileEp: continue through ℓ
    }

    SymFrame next;
    next.fn = callee;
    next.ret_reg = ins.a;
    next.regs.assign(callee_fn.num_regs, MakeConst(0));
    for (std::size_t i = 0; i < args.size(); ++i) {
      next.regs[i] = std::move(args[i]);
    }
    s.frames.push_back(std::move(next));
    ++calls_total;
    return true;
  }

  // ---------------------------------------------------------------------
  // Top-level drive loop.
  // ---------------------------------------------------------------------

  SymexResult Execute() {
    const auto start = std::chrono::steady_clock::now();
    SymexResult result;

    // Hash-cons every expression this run builds. The scope also
    // underwrites the solver's pointer-identity dedup of repeated
    // constraints: equal constraints stay one node for exactly as long
    // as the run lives.
    InternScope scope;

    dmap = cfg.BackwardReachability(ep);
    if (directed && !dmap.EntryReaches()) {
      result.status = SymexStatus::kCfgUnreachable;
      result.detail = "backward path finding: no path from entry to ep";
      return result;
    }

    SymState initial;
    SymFrame frame;
    frame.fn = t.entry;
    frame.regs.assign(t.Fn(t.entry).num_regs, MakeConst(0));
    initial.frames.push_back(std::move(frame));

    bool finished = false;
    PushState(std::move(initial));
    while (!worklist.empty() && !finished) {
      std::string why;
      if (cancel.Check()) {
        result.status = SymexStatus::kDeadline;
        result.detail = "wall-clock deadline expired between states";
        finished = true;
        break;
      }
      SymState s = PopState();
      if (OverBudget(s, &why)) {
        result.status = SymexStatus::kBudget;
        result.detail = why;
        finished = true;
        break;
      }
      finished = RunState(std::move(s), &result);
      --live_states;
    }

    if (!finished) {
      // Worklist drained: classify (paper §III-D cases ii/iii and P3.3).
      // Deadline first: once the clock has tripped, every other
      // observation (unsat, budget) is an artefact of states dying from
      // cancellation, and must not masquerade as a program verdict.
      if (log.deadline) {
        result.status = SymexStatus::kDeadline;
        result.detail =
            "wall-clock deadline expired during constraint solving";
      } else if (log.solver_budget) {
        result.status = SymexStatus::kSolverFailure;
        result.detail = "constraint solving exceeded its budget";
      } else if (log.unsat && !log.loop_dead) {
        // Unsat observations are a proof of unreachability only when
        // the search was complete. A state cut by the loop cap means
        // paths beyond θ iterations were never explored — the same
        // infeasibility could be a θ artefact (a loop whose exit only
        // becomes satisfiable past the cap), so claim the conservative
        // dead end below instead of a proof (§VII's wrong-verdict
        // caution; the fuzz-fallback rung may still find a witness).
        result.status = SymexStatus::kUnsat;
        result.detail = log.unsat_detail;
      } else if (!log.reached_ep) {
        result.status = SymexStatus::kProgramDead;
        result.detail = "every state died before reaching ep";
      } else {
        result.status = SymexStatus::kProgramDead;
        result.detail = "ep was reached but combining never completed";
      }
    }

    SymexStats stats;
    stats.elapsed_seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      start)
            .count();
    stats.instructions = instructions_total;
    stats.instructions_skipped = instructions_skipped;
    stats.solver_steps = solver_steps_total;
    stats.states_created = states_created_total;
    stats.peak_live_states = peak_live_states;
    stats.peak_memory_bytes = peak_memory_bytes;
    const SolverCache::Stats& cs = cache.stats();
    stats.solver_cache_hits = cs.hits;
    stats.solver_cache_misses = cs.misses;
    stats.solver_model_reuse_hits = cs.hits;
    const InternScope::Stats is = scope.stats();
    stats.expr_intern_hits = is.hits;
    stats.expr_intern_nodes = is.nodes;
    if (opts.tracer != nullptr) {
      support::Tracer& tr = *opts.tracer;
      const auto i64 = [](std::uint64_t v) {
        return static_cast<std::int64_t>(v);
      };
      tr.Counter("symex.instructions", i64(stats.instructions));
      tr.Counter("symex.instructions_skipped",
                 i64(stats.instructions_skipped));
      tr.Counter("symex.states_created", i64(stats.states_created));
      tr.Counter("symex.solver_steps", i64(stats.solver_steps));
      tr.Counter("symex.solver_cache_hits", i64(stats.solver_cache_hits));
      tr.Counter("symex.solver_cache_misses", i64(stats.solver_cache_misses));
      tr.Counter("symex.expr_intern_hits", i64(stats.expr_intern_hits));
    }
    result.stats = stats;
    result.loop_dead_observed = log.loop_dead;
    return result;
  }
};

SymExecutor::SymExecutor(const vm::Program& t, const cfg::Cfg& cfg,
                         vm::FuncId ep, ExecutorOptions options)
    : t_(t), cfg_(cfg), ep_(ep), options_(options) {}

SymexResult SymExecutor::ReachEp(bool directed) {
  Run run{t_, cfg_, ep_, options_, Run::Goal::kReachEp, directed};
  return run.Execute();
}

SymexResult SymExecutor::GeneratePoc(
    const std::vector<taint::Bunch>& bunches) {
  Run run{t_, cfg_, ep_, options_, Run::Goal::kGeneratePoc,
          /*directed=*/true, &bunches};
  return run.Execute();
}

}  // namespace octopocs::symex
