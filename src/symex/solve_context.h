// Per-state solve context: the state's path as an append-only layer,
// plus what the solver keeps about that path between queries.
//
// Every solver query the executor issues is the state's own path
// condition, possibly extended by one branch constraint, and sibling
// states share a long constraint prefix. A SolveContext holds:
//
//   the path layer   the path's distinct constraints in first-occurrence
//                    order, with their node programs, their variables
//                    as stable ids (numbered in first-appearance order)
//                    and their derived byte pins (ConcatPins), plus the
//                    entries sorted by node, which makes a repeated node
//                    one binary search. A query is the layer plus at most
//                    one branch constraint, so the solver neither
//                    copies nor deduplicates the path per query.
//   domains          each unary path constraint folded once into a
//                    per-variable 256-bit domain (one pass of the node
//                    program over all 256 values of the byte), and the
//                    byte pins a concat equality derives folded as well;
//                    the search seeds its unary prefilter from them.
//   a model pool     models that satisfied this state's past queries,
//                    each with a certificate: the path length it is
//                    known to satisfy and the values it gave the
//                    variables that prefix reads (DESIGN.md §10.2).
//
// Forks share the layer's storage and each keeps its own length. A
// context whose path ends where the storage ends appends in place; any
// other copies its prefix into storage of its own on its first append.
// This is the shape of Hayroll's State::split: the shared prefix never
// changes, and each child adds on top of it.
//
// Determinism contract: the domains are a pure function of the *set*
// of constraints appended (domain intersection commutes), and seeding
// is engineered to produce bit-identical search behavior to filtering
// the same constraints from scratch — so search results stay pure
// functions of the constraint sequence whether or not a context (or
// whose context) accelerated them. See DESIGN.md §10.
//
// A constraint that wipes out its variable's domain deliberately does
// NOT kill the state eagerly: the executor discovers unsatisfiability
// at its next solve, as a zero-step kUnsat exactly where a from-scratch
// search would find it, keeping state classification identical to the
// unaccelerated execution.
#pragma once

#include <algorithm>
#include <cstdint>
#include <map>
#include <memory>
#include <vector>

#include "symex/cow.h"
#include "symex/expr.h"

namespace octopocs::symex {

/// One query flattened for a search core, in the preprocessed order the
/// oracle sees: the distinct path constraints, then the branch (when it
/// is new to the path), then every derived pin of those constraints in
/// the same order. Variables are numbered in ascending offset order;
/// var_offset maps them to input offsets. Filled by SolveContext::Index.
struct QueryIndex {
  std::vector<const ExprProgram*> programs;  // per constraint
  std::vector<std::uint32_t> cvar_begin;     // CSR: constraint → var ids
  std::vector<std::uint32_t> cvars;
  std::vector<std::uint32_t> var_offset;     // var id → input offset
  std::vector<std::uint32_t> vcon_begin;     // CSR: var id → constraints
  std::vector<std::uint32_t> vcons;          // ascending per var
  /// Constraint ids: the path's are [0, branch), the branch's is
  /// [branch, branch_end) (empty without one), the path's pins are
  /// [branch_end, branch_pins) and the branch's pins follow.
  std::uint32_t branch = 0;
  std::uint32_t branch_end = 0;
  std::uint32_t branch_pins = 0;
  std::uint32_t top = 0;  // one past the largest offset

  /// Whether constraint `c` is already folded into the context domains.
  bool Folded(std::uint32_t c) const {
    return c < branch || (c >= branch_end && c < branch_pins);
  }
};

class SolveContext {
 public:
  struct VarEntry {
    /// Values every folded constraint admits, derived pins included:
    /// what a search's unary prefilter starts from.
    ByteDomain domain;
    /// Unary path constraints folded into `domain`, sorted by node
    /// address.
    std::vector<const Expr*> applied;
    /// Derived byte pins (ConcatPins of an applied equality) folded into
    /// `domain`, sorted by node address.
    std::vector<const Expr*> pins;
  };
  using DomainMap = std::map<std::uint32_t, VarEntry>;

  SolveContext() = default;
  /// A copy is a fork: it shares the layer's storage up to its length,
  /// and its path charge restarts at that length (see charged_capacity).
  SolveContext(const SolveContext& other);
  SolveContext& operator=(const SolveContext& other);
  SolveContext(SolveContext&&) = default;
  SolveContext& operator=(SolveContext&&) = default;

  /// Appends a non-constant path constraint. A node already on the path
  /// only counts toward appended(). A new one joins the layer, is folded
  /// into its variable's domain when it is unary (mentions exactly one
  /// input byte), and has the byte pins it derives folded when it is a
  /// concat equality (ConcatPins). The pins belong in every query over
  /// this path, because the solver's pre-pass adds them to every query
  /// that holds the equality.
  void Append(const ExprRef& constraint);

  /// Path constraints appended, repeats included.
  std::size_t appended() const { return appended_; }
  /// Distinct path constraints: the layer's length.
  std::size_t size() const { return prefix_; }
  /// The newest distinct path constraint (size() > 0).
  const ExprRef& Last() const { return store_->entries[prefix_ - 1]; }
  /// Whether `node` is on the path.
  bool OnPath(const Expr* node) const;

  /// The capacity a std::vector holding the appended constraints would
  /// have: doubling when full on append and on a branch query
  /// (ChargeBranch), equal to the length after a fork. The
  /// state's memory charge (SymState::FootprintBytes) keeps charging the
  /// path as that vector, so the memory budget and peak_memory_bytes
  /// stay what they were when the path was one.
  std::size_t charged_capacity() const { return charged_capacity_; }
  /// Charges a branch query the way the vector paid for one: the branch
  /// was pushed for the query and popped again, which grows a full
  /// vector.
  void ChargeBranch() { Grow(); }

  /// What the state's struct charges for its path and this context: the
  /// path vector and the two COW handles the context held before the
  /// layer (SymState::FootprintBytes counts this, not sizeof(*this)).
  static constexpr std::size_t kChargedSize =
      sizeof(std::vector<ExprRef>) + 2 * sizeof(Cow<DomainMap>);

  /// True when the path or `branch` (null for none) holds a constraint
  /// that derives a constant-false pin, so the query is unsatisfiable
  /// before any search.
  bool Impossible(const ExprRef& branch) const;

  /// True when `constraint` is unary and admits no value of its
  /// variable's context domain (all 256 values when nothing folded
  /// mentions the variable). A query holding it is then unsatisfiable,
  /// and a fresh search's unary prefilter, seeded from the same domain,
  /// empties it before any step or budget check (DESIGN.md §10.1).
  bool Refutes(const ExprRef& constraint) const;

  /// Filtered domains for `var`, or nullptr when nothing folded
  /// mentions it yet.
  const VarEntry* Find(std::uint32_t var) const {
    const DomainMap& map = domains_.get();
    const auto it = map.find(var);
    return it == map.end() ? nullptr : &it->second;
  }

  /// Certified model reuse over the path plus `branch` (null, or a
  /// non-constant constraint not on the path). Assembles one candidate
  /// per source — each pooled model newest first, then hints alone —
  /// over exactly the variables the query mentions, taking per variable
  /// the pinned value, else the source model's, else the hint; a
  /// variable with none of the three is absent from the candidate and
  /// reads as 0. The first candidate under which every constraint's node
  /// program evaluates nonzero is stored in `*out`, pooled, and true
  /// returned: a certificate, never a guess. A candidate certified at
  /// path length L whose values on the variables of the first L
  /// constraints are unchanged evaluates only the constraints past L and
  /// the branch; a new pin that moves one of those values re-checks the
  /// whole path.
  bool Reuse(const ExprRef& branch, const Model& pins, const Model& hints,
             Model* out);

  /// Pools `model`, a model of the whole path (a fresh search's), and
  /// certifies it at the current length.
  void NoteSolution(const Model& model);

  /// Pools `model` uncertified: its first reuse evaluates every path
  /// constraint. Per-state pool, newest last, deduplicated, capped;
  /// keeping it on the state — instead of a global history — makes
  /// model-reuse answers a pure function of the state's own path,
  /// independent of which sibling states the search ran first.
  void NoteModel(const Model& model);

  const std::vector<Model>& recent_models() const { return models_.get(); }
  /// Models pooled over this path's life, evicted ones included: equal
  /// before and after a query means the query left the pool as it was.
  std::uint64_t pooled() const { return pooled_; }

  /// The query (path plus `branch`) flattened for a search core.
  void Index(const ExprRef& branch, QueryIndex* out) const;

  /// The query as the oracle's from-scratch system: the distinct
  /// constraints in order, then every derived pin (none constant: the
  /// caller checked Impossible first).
  std::vector<ExprRef> System(const ExprRef& branch) const;

  std::size_t FootprintBytes() const {
    std::size_t bytes = 0;
    const DomainMap& map = domains_.get();
    for (const auto& [var, entry] : map) {
      // Charges the unary path constraints only: pins derive from
      // constraints the state already pays for, so folding them moves
      // no memory-budget decision and no peak_memory_bytes.
      if (entry.applied.empty()) continue;
      bytes += sizeof(var) + kEntryBytes + 48 +
               entry.applied.capacity() * sizeof(const Expr*);
    }
    bytes /= domains_.owners();
    std::size_t model_bytes = 0;
    for (const Model& m : models_.get()) model_bytes += m.size() * 48;
    return bytes + model_bytes / models_.owners();
  }

 private:
  static constexpr std::size_t kMaxModels = 4;
  /// Footprint charge per variable entry: one domain and one list.
  static constexpr std::size_t kEntryBytes =
      sizeof(ByteDomain) + sizeof(std::vector<const Expr*>);
  static constexpr std::uint32_t kNone = ~0u;

  /// The layer's storage. Append-only; a reader sees its first
  /// `prefix_` entries (and the variables and pins they introduced) and
  /// ignores the rest.
  struct Store {
    std::vector<ExprRef> entries;
    std::vector<const ExprProgram*> programs;
    std::vector<std::uint32_t> var_begin{0};  // CSR: entry → var ids
    std::vector<std::uint32_t> vars;
    std::vector<std::uint32_t> pin_begin{0};  // CSR: entry → pins
    std::vector<const ExprProgram*> pin_programs;
    std::vector<std::uint32_t> pin_vars;      // one var id per pin
    std::vector<std::uint32_t> var_offset;    // var id → offset
    std::vector<std::uint32_t> var_first;     // var id → first entry
    std::vector<std::uint32_t> id_of;         // offset → var id
    std::vector<std::uint32_t> by_node;       // entries sorted by node
    std::uint32_t impossible = kNone;  // first entry with a false pin

    void Add(const ExprRef& constraint);
    /// Where `node` sits, or would sit, in by_node.
    std::vector<std::uint32_t>::const_iterator LowerBound(
        const Expr* node) const;
    /// The entry holding `node`, or kNone.
    std::uint32_t Find(const Expr* node) const;
    /// Variables the first `length` entries mention: ids below this.
    std::uint32_t VarsBefore(std::uint32_t length) const;
    /// Drops every entry from `length` on.
    void Truncate(std::uint32_t length);
  };

  /// Which variables the query mentions: the path's by stable id, then
  /// the branch's new ones. Filled by Vars.
  struct VarTable {
    std::vector<std::uint32_t> offset;  // id → input offset
    std::uint32_t path_vars = 0;        // ids below this are the path's
    std::uint32_t top = 0;              // one past the largest offset
  };

  /// Proof that a pooled model's candidate satisfied the first `length`
  /// path constraints while it gave the path's variables `values`.
  struct Certificate {
    std::uint32_t length = 0;
    std::vector<std::uint8_t> values;  // by var id
  };

  /// Pools `model` with `cert`; a model already pooled keeps the
  /// longer of its two certificates.
  void Remember(const Model& model, Certificate cert);

  /// Stable ids of the variables the path mentions are below this.
  std::uint32_t PrefixVars() const {
    return store_ == nullptr ? 0 : store_->VarsBefore(prefix_);
  }
  /// Var id of `offset` in `table`, adding it when new.
  static std::uint32_t IdOf(const Store* store, std::uint32_t prefix_vars,
                            std::uint32_t offset, VarTable* table);
  void Vars(const ExprRef& branch, VarTable* table) const;
  /// `table` inverted: offset → var id, kNone where no variable sits.
  static void IdsByOffset(const VarTable& table,
                          std::vector<std::uint32_t>* id_at);

  /// Grows charged_capacity_ as a full std::vector grows on a push.
  void Grow() {
    if (appended_ == charged_capacity_) {
      charged_capacity_ = appended_ == 0 ? 1 : 2 * appended_;
    }
  }

  void Fold(const ExprRef& constraint);
  void FoldUnary(std::uint32_t var, const ExprRef& constraint);
  void FoldPin(const ExprRef& pin);

  std::shared_ptr<Store> store_;
  std::uint32_t prefix_ = 0;  // the path's length: store_'s entries read
  std::uint32_t appended_ = 0;
  std::uint32_t charged_capacity_ = 0;
  std::uint64_t pooled_ = 0;

  Cow<DomainMap> domains_;
  Cow<std::vector<Model>> models_;
  /// certs_[0] is the hints-alone candidate's; certs_[i + 1] is
  /// recent_models()[i]'s.
  std::vector<Certificate> certs_ = std::vector<Certificate>(1);
};

}  // namespace octopocs::symex
