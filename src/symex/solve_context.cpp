#include "symex/solve_context.h"

#include <functional>

namespace octopocs::symex {

namespace {

void Insert(std::vector<const Expr*>* sorted, const Expr* node) {
  sorted->insert(std::lower_bound(sorted->begin(), sorted->end(), node),
                 node);
}

/// Scratch for RunProgram, grown to `steps` words.
std::uint64_t* Scratch(std::size_t steps) {
  thread_local std::vector<std::uint64_t> scratch;
  if (scratch.size() < steps) scratch.resize(steps);
  return scratch.data();
}

}  // namespace

SolveContext::SolveContext(const SolveContext& other)
    : store_(other.store_),
      prefix_(other.prefix_),
      appended_(other.appended_),
      charged_capacity_(other.appended_),
      pooled_(other.pooled_),
      domains_(other.domains_),
      models_(other.models_),
      certs_(other.certs_) {}

SolveContext& SolveContext::operator=(const SolveContext& other) {
  if (this != &other) *this = SolveContext(other);
  return *this;
}

void SolveContext::Store::Add(const ExprRef& constraint) {
  const auto index = static_cast<std::uint32_t>(entries.size());
  entries.push_back(constraint);
  programs.push_back(&ProgramFor(constraint));
  by_node.insert(LowerBound(constraint.get()), index);
  for (const std::uint32_t off : FreeVars(constraint)) {
    if (off >= id_of.size()) id_of.resize(off + 1, kNone);
    if (id_of[off] == kNone) {
      id_of[off] = static_cast<std::uint32_t>(var_offset.size());
      var_offset.push_back(off);
      var_first.push_back(index);
    }
    vars.push_back(id_of[off]);
  }
  var_begin.push_back(static_cast<std::uint32_t>(vars.size()));
  ForEachConcatPin(constraint, [&](const ExprRef& pin) {
    if (pin->IsConst()) {
      impossible = std::min(impossible, index);
      return;
    }
    // The pins are cached on the constraint node, which entries keeps.
    pin_programs.push_back(&ProgramFor(pin));
    pin_vars.push_back(id_of[*FreeVars(pin).begin()]);
  });
  pin_begin.push_back(static_cast<std::uint32_t>(pin_programs.size()));
}

std::vector<std::uint32_t>::const_iterator SolveContext::Store::LowerBound(
    const Expr* node) const {
  return std::lower_bound(by_node.begin(), by_node.end(), node,
                          [&](std::uint32_t i, const Expr* n) {
                            return std::less<>()(entries[i].get(), n);
                          });
}

std::uint32_t SolveContext::Store::Find(const Expr* node) const {
  const auto it = LowerBound(node);
  return it != by_node.end() && entries[*it].get() == node ? *it : kNone;
}

std::uint32_t SolveContext::Store::VarsBefore(std::uint32_t length) const {
  return static_cast<std::uint32_t>(
      std::lower_bound(var_first.begin(), var_first.end(), length) -
      var_first.begin());
}

void SolveContext::Store::Truncate(std::uint32_t length) {
  const std::uint32_t nvars = VarsBefore(length);
  for (std::size_t id = nvars; id < var_offset.size(); ++id) {
    id_of[var_offset[id]] = kNone;
  }
  var_offset.resize(nvars);
  var_first.resize(nvars);
  vars.resize(var_begin[length]);
  var_begin.resize(length + 1);
  pin_programs.resize(pin_begin[length]);
  pin_vars.resize(pin_begin[length]);
  pin_begin.resize(length + 1);
  entries.resize(length);
  programs.resize(length);
  std::erase_if(by_node, [&](std::uint32_t i) { return i >= length; });
  if (impossible >= length) impossible = kNone;
}

void SolveContext::Append(const ExprRef& constraint) {
  Grow();
  ++appended_;
  if (OnPath(constraint.get())) return;
  Fold(constraint);
  if (store_ == nullptr) {
    store_ = std::make_shared<Store>();
  } else if (store_->entries.size() != prefix_) {
    // A fork sharing the storage appended past this path's end: keep
    // this path's prefix in storage of its own.
    store_ = std::make_shared<Store>(*store_);
    store_->Truncate(prefix_);
  }
  store_->Add(constraint);
  ++prefix_;
}

bool SolveContext::OnPath(const Expr* node) const {
  return store_ != nullptr && store_->Find(node) < prefix_;
}

bool SolveContext::Impossible(const ExprRef& branch) const {
  if (store_ != nullptr && store_->impossible < prefix_) return true;
  if (branch == nullptr) return false;
  bool impossible = false;
  ForEachConcatPin(branch, [&](const ExprRef& pin) {
    impossible = impossible || pin->IsConst();  // only ever constant false
  });
  return impossible;
}

bool SolveContext::Refutes(const ExprRef& constraint) const {
  const SortedSmallSet<std::uint32_t>& vars = FreeVars(constraint);
  if (vars.size() != 1) return false;
  const std::uint32_t var = *vars.begin();
  const VarEntry* entry = Find(var);
  const ByteDomain within = entry != nullptr ? entry->domain : ByteDomain{};
  return UnaryDomain(ProgramFor(constraint), var, within).None();
}

std::uint32_t SolveContext::IdOf(const Store* store,
                                 std::uint32_t prefix_vars,
                                 std::uint32_t offset, VarTable* table) {
  if (store != nullptr && offset < store->id_of.size() &&
      store->id_of[offset] < prefix_vars) {
    return store->id_of[offset];
  }
  for (std::size_t id = prefix_vars; id < table->offset.size(); ++id) {
    if (table->offset[id] == offset) return static_cast<std::uint32_t>(id);
  }
  table->offset.push_back(offset);
  table->top = std::max(table->top, offset + 1);
  return static_cast<std::uint32_t>(table->offset.size() - 1);
}

void SolveContext::Vars(const ExprRef& branch, VarTable* table) const {
  const std::uint32_t prefix_vars = PrefixVars();
  table->offset.clear();
  table->top = 0;
  if (store_ != nullptr) {
    table->offset.assign(store_->var_offset.begin(),
                         store_->var_offset.begin() + prefix_vars);
    for (const std::uint32_t off : table->offset) {
      table->top = std::max(table->top, off + 1);
    }
  }
  table->path_vars = prefix_vars;
  if (branch != nullptr) {
    for (const std::uint32_t off : FreeVars(branch)) {
      IdOf(store_.get(), prefix_vars, off, table);
    }
  }
}

void SolveContext::IdsByOffset(const VarTable& table,
                               std::vector<std::uint32_t>* id_at) {
  id_at->assign(table.top, kNone);
  for (std::size_t id = 0; id < table.offset.size(); ++id) {
    (*id_at)[table.offset[id]] = static_cast<std::uint32_t>(id);
  }
}

bool SolveContext::Reuse(const ExprRef& branch, const Model& pins,
                         const Model& hints, Model* out) {
  // Per variable id: where its base value (pin, else hint, else 0) came
  // from. Candidates are evaluated over one dense offset-indexed array.
  enum : std::uint8_t { kFree, kHinted, kPinned };
  thread_local VarTable table;
  thread_local std::vector<std::uint32_t> id_at;
  thread_local std::vector<std::uint8_t> source, base, value, in_model, vals;
  Vars(branch, &table);
  IdsByOffset(table, &id_at);
  const std::size_t nvars = table.offset.size();
  source.assign(nvars, kFree);
  base.assign(nvars, 0);
  value.resize(nvars);
  if (vals.size() < table.top) vals.resize(table.top);
  // The maps are ordered, so one walk below `top` finds every pin and
  // hint the query can use.
  for (auto it = pins.begin(); it != pins.end() && it->first < table.top;
       ++it) {
    const std::uint32_t id = id_at[it->first];
    if (id == kNone) continue;
    source[id] = kPinned;
    base[id] = it->second;
  }
  for (auto it = hints.begin(); it != hints.end() && it->first < table.top;
       ++it) {
    const std::uint32_t id = id_at[it->first];
    if (id == kNone || source[id] == kPinned) continue;
    source[id] = kHinted;
    base[id] = it->second;
  }
  const std::size_t length = size();
  const std::vector<Model>& pool = models_.get();
  // Candidates: the pool newest first, then no cached model at all,
  // which captures a guiding path the original PoC bytes already
  // satisfy. Per variable the candidate takes pin > cached model > hint,
  // the value a fresh hint-guided search would try first.
  for (std::size_t i = pool.size() + 1; i-- > 0;) {
    const Model* reuse = i == 0 ? nullptr : &pool[i - 1];
    value.assign(base.begin(), base.end());
    in_model.assign(nvars, 0);
    if (reuse != nullptr) {
      for (auto it = reuse->begin();
           it != reuse->end() && it->first < table.top; ++it) {
        const std::uint32_t id = id_at[it->first];
        if (id == kNone) continue;
        in_model[id] = 1;
        if (source[id] != kPinned) value[id] = it->second;
      }
    }
    for (std::size_t id = 0; id < nvars; ++id) {
      vals[table.offset[id]] = value[id];
    }
    // A certificate covers the path up to its length as long as the
    // variables those constraints read keep the values it was proved
    // with; a new pin that moves one voids it.
    const Certificate& cert = certs_[i];
    std::size_t from = 0;
    if (cert.length <= length && cert.values.size() <= table.path_vars &&
        std::equal(cert.values.begin(), cert.values.end(), value.begin())) {
      from = cert.length;
    }
    bool satisfied = true;
    for (std::size_t j = from; satisfied && j < length; ++j) {
      const ExprProgram& program = *store_->programs[j];
      satisfied = RunProgram(program, vals.data(),
                             Scratch(program.steps.size())) != 0;
    }
    if (satisfied && branch != nullptr) {
      const ExprProgram& program = ProgramFor(branch);
      satisfied = RunProgram(program, vals.data(),
                             Scratch(program.steps.size())) != 0;
    }
    if (!satisfied) continue;
    out->clear();
    for (std::uint32_t off = 0; off < table.top; ++off) {
      const std::uint32_t id = id_at[off];
      if (id != kNone && (source[id] != kFree || in_model[id] != 0)) {
        out->emplace_hint(out->end(), off, value[id]);
      }
    }
    Certificate proved{static_cast<std::uint32_t>(length),
                       std::vector<std::uint8_t>(
                           value.begin(), value.begin() + table.path_vars)};
    certs_[i] = proved;
    Remember(*out, std::move(proved));
    return true;
  }
  return false;
}

void SolveContext::NoteSolution(const Model& model) {
  thread_local VarTable table;
  thread_local std::vector<std::uint32_t> id_at;
  Vars(nullptr, &table);
  IdsByOffset(table, &id_at);
  Certificate proved{static_cast<std::uint32_t>(size()),
                     std::vector<std::uint8_t>(table.path_vars, 0)};
  for (auto it = model.begin(); it != model.end() && it->first < table.top;
       ++it) {
    const std::uint32_t id = id_at[it->first];
    if (id < table.path_vars) proved.values[id] = it->second;
  }
  Remember(model, std::move(proved));
}

void SolveContext::NoteModel(const Model& model) {
  Remember(model, Certificate{});
}

void SolveContext::Remember(const Model& model, Certificate cert) {
  const std::vector<Model>& pool = models_.get();
  for (std::size_t i = 0; i < pool.size(); ++i) {
    if (pool[i] == model) {
      // The same model is pooled already: keep the longer proof.
      if (cert.length > certs_[i + 1].length) certs_[i + 1] = std::move(cert);
      return;
    }
  }
  std::vector<Model>& models = models_.mut();
  models.push_back(model);
  ++pooled_;
  certs_.push_back(std::move(cert));
  if (models.size() > kMaxModels) {
    models.erase(models.begin());
    certs_.erase(certs_.begin() + 1);
  }
}

void SolveContext::Index(const ExprRef& branch, QueryIndex* out) const {
  thread_local VarTable table;
  Vars(branch, &table);
  const std::uint32_t prefix_vars = PrefixVars();
  const Store* store = store_.get();
  out->var_offset.assign(table.offset.begin(), table.offset.end());
  out->top = table.top;
  out->programs.clear();
  out->cvar_begin.assign(1, 0);
  out->cvars.clear();
  const auto add = [&](const ExprRef& c) {
    out->programs.push_back(&ProgramFor(c));
    for (const std::uint32_t off : FreeVars(c)) {
      out->cvars.push_back(IdOf(store, prefix_vars, off, &table));
    }
    out->cvar_begin.push_back(static_cast<std::uint32_t>(out->cvars.size()));
  };
  // The layer's own lists are copied wholesale; only the branch is
  // looked up here.
  if (store != nullptr) {
    out->programs.assign(store->programs.begin(),
                         store->programs.begin() + prefix_);
    out->cvar_begin.assign(store->var_begin.begin(),
                           store->var_begin.begin() + prefix_ + 1);
    out->cvars.assign(store->vars.begin(),
                      store->vars.begin() + store->var_begin[prefix_]);
  }
  out->branch = static_cast<std::uint32_t>(out->programs.size());
  if (branch != nullptr) add(branch);
  out->branch_end = static_cast<std::uint32_t>(out->programs.size());
  if (store != nullptr) {
    const std::uint32_t pins = store->pin_begin[prefix_];
    for (std::uint32_t p = 0; p < pins; ++p) {
      out->programs.push_back(store->pin_programs[p]);
      out->cvars.push_back(store->pin_vars[p]);
      out->cvar_begin.push_back(static_cast<std::uint32_t>(out->cvars.size()));
    }
  }
  out->branch_pins = static_cast<std::uint32_t>(out->programs.size());
  if (branch != nullptr) {
    ForEachConcatPin(branch, [&](const ExprRef& pin) {
      if (!pin->IsConst()) add(pin);
    });
  }

  // Renumber the variables in ascending offset order, the oracle's dense
  // order, which the search's branching tie-break follows.
  const std::size_t nvars = out->var_offset.size();
  thread_local std::vector<std::uint32_t> id_at, rank;
  IdsByOffset(table, &id_at);
  rank.resize(nvars);
  std::uint32_t next = 0;
  for (std::uint32_t off = 0; off < table.top; ++off) {
    if (id_at[off] == kNone) continue;
    rank[id_at[off]] = next;
    out->var_offset[next++] = off;
  }
  for (std::uint32_t& v : out->cvars) v = rank[v];

  // Transpose constraint → vars into var → constraints, ascending.
  out->vcon_begin.assign(nvars + 1, 0);
  for (const std::uint32_t v : out->cvars) ++out->vcon_begin[v + 1];
  for (std::size_t v = 0; v < nvars; ++v) {
    out->vcon_begin[v + 1] += out->vcon_begin[v];
  }
  out->vcons.resize(out->cvars.size());
  thread_local std::vector<std::uint32_t> fill;
  fill.assign(out->vcon_begin.begin(), out->vcon_begin.end() - 1);
  const std::size_t count = out->programs.size();
  for (std::size_t c = 0; c < count; ++c) {
    for (std::uint32_t k = out->cvar_begin[c]; k < out->cvar_begin[c + 1];
         ++k) {
      out->vcons[fill[out->cvars[k]]++] = static_cast<std::uint32_t>(c);
    }
  }
}

std::vector<ExprRef> SolveContext::System(const ExprRef& branch) const {
  std::vector<ExprRef> system;
  system.reserve(size() + 1);
  if (store_ != nullptr) {
    system.assign(store_->entries.begin(), store_->entries.begin() + prefix_);
  }
  if (branch != nullptr) system.push_back(branch);
  const std::size_t distinct = system.size();
  for (std::size_t i = 0; i < distinct; ++i) {
    ForEachConcatPin(system[i], [&](const ExprRef& pin) {
      if (!pin->IsConst()) system.push_back(pin);
    });
  }
  return system;
}

void SolveContext::Fold(const ExprRef& constraint) {
  const SortedSmallSet<std::uint32_t>& vars = FreeVars(constraint);
  if (vars.size() == 1) FoldUnary(*vars.begin(), constraint);
  ForEachConcatPin(constraint, [&](const ExprRef& pin) {
    // A constant-false pin folds nothing: the pre-pass answers the
    // query kUnsat before any search. A self pin is folded above.
    if (!pin->IsConst() && pin.get() != constraint.get()) FoldPin(pin);
  });
}

void SolveContext::FoldUnary(std::uint32_t var, const ExprRef& constraint) {
  const Expr* node = constraint.get();
  if (const VarEntry* existing = Find(var)) {
    if (std::binary_search(existing->applied.begin(),
                           existing->applied.end(), node)) {
      return;
    }
  }
  VarEntry& entry = domains_.mut()[var];
  entry.domain = UnaryDomain(ProgramFor(constraint), var, entry.domain);
  Insert(&entry.applied, node);
}

void SolveContext::FoldPin(const ExprRef& pin) {
  // A pin is in[o] == k (ConcatPins), so it admits exactly k: folding
  // it is a mask intersection, with no evaluation.
  const std::uint32_t var = pin->lhs->offset;
  const auto k = static_cast<unsigned>(pin->rhs->value);
  if (const VarEntry* existing = Find(var)) {
    if (std::binary_search(existing->applied.begin(),
                           existing->applied.end(), pin.get()) ||
        std::binary_search(existing->pins.begin(), existing->pins.end(),
                           pin.get())) {
      return;
    }
  }
  VarEntry& entry = domains_.mut()[var];
  const bool admitted = entry.domain.Test(k);
  entry.domain.bits = {0, 0, 0, 0};
  if (admitted) entry.domain.bits[k >> 6] = 1ull << (k & 63);
  Insert(&entry.pins, pin.get());
}

}  // namespace octopocs::symex
