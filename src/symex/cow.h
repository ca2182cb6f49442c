// Copy-on-write containers backing SymState.
//
// Forking at a symbolic branch copies the whole state; before this layer
// that copy was O(state size) — every memory byte, heap record, and loop
// counter was duplicated even though siblings diverge on a handful of
// writes. The two containers here make a fork O(pages touched):
//
//   CowPageMap   sparse key→value store chunked into fixed 64-slot pages,
//                each owned by a shared_ptr. Forking copies the page
//                *index* (one pointer per page); the first write to a
//                shared page clones just that page.
//   Cow<T>       whole-container sharing for small maps (heap metadata,
//                loop counters): get() reads through the shared pointer,
//                mut() clones the container iff another state still
//                references it.
//
// Sharing is only ever *within* one executor run, which is single-
// threaded: each pair's P2/P3 search is one serial loop, and parallel
// corpus verification runs one executor per thread, so use_count()
// checks are race-free.
//
// FootprintBytes() charges shared storage fractionally (bytes divided by
// the number of owners) so the Table IV RAM metric keeps matching real
// usage instead of multiply-counting one page per referencing state.
#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <memory>
#include <utility>

namespace octopocs::symex {

template <typename V>
class CowPageMap {
 public:
  static constexpr std::uint64_t kPageBits = 6;
  static constexpr std::uint64_t kPageSize = 1ull << kPageBits;  // 64 slots
  static constexpr std::uint64_t kPageMask = kPageSize - 1;

  struct Page {
    std::array<V, kPageSize> slots{};
    std::uint64_t present = 0;  // bit i set ⇔ slots[i] holds a value
  };

  /// Pointer to the value at `key`, or nullptr. Never clones.
  const V* Find(std::uint64_t key) const {
    const auto it = pages_.find(key >> kPageBits);
    if (it == pages_.end()) return nullptr;
    const Page& page = *it->second;
    const unsigned slot = static_cast<unsigned>(key & kPageMask);
    if (((page.present >> slot) & 1) == 0) return nullptr;
    return &page.slots[slot];
  }

  /// Inserts or overwrites, cloning the target page first when it is
  /// shared with a forked sibling.
  void Set(std::uint64_t key, V value) {
    std::shared_ptr<Page>& ref = pages_[key >> kPageBits];
    if (!ref) {
      ref = std::make_shared<Page>();
    } else if (ref.use_count() > 1) {
      ref = std::make_shared<Page>(*ref);
    }
    Page& page = *ref;
    const unsigned slot = static_cast<unsigned>(key & kPageMask);
    if (((page.present >> slot) & 1) == 0) {
      page.present |= 1ull << slot;
      ++size_;
    }
    page.slots[slot] = std::move(value);
  }

  /// Number of populated slots (not pages).
  std::size_t size() const { return size_; }
  std::size_t PageCount() const { return pages_.size(); }

  /// Visits (key, value) in ascending key order.
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    for (const auto& [base, page] : pages_) {
      for (unsigned slot = 0; slot < kPageSize; ++slot) {
        if ((page->present >> slot) & 1) {
          fn((base << kPageBits) | slot, page->slots[slot]);
        }
      }
    }
  }

  /// Unshares every page. Exists so the fork-cost bench can measure the
  /// pre-COW eager deep copy against the structural one.
  void DetachAllPages() {
    for (auto& [base, page] : pages_) {
      page = std::make_shared<Page>(*page);
    }
  }

  /// Heap bytes attributable to this map, charging each page's storage
  /// divided by its owner count so a page shared by k forks costs each
  /// of them 1/k of its bytes.
  std::size_t FootprintBytes() const {
    std::size_t bytes = 0;
    for (const auto& [base, page] : pages_) {
      bytes += sizeof(base) + sizeof(page) + 48;  // index node overhead
      bytes += sizeof(Page) /
               static_cast<std::size_t>(page.use_count() > 0
                                            ? page.use_count()
                                            : 1);
    }
    return bytes;
  }

 private:
  std::map<std::uint64_t, std::shared_ptr<Page>> pages_;
  std::size_t size_ = 0;
};

template <typename T>
class Cow {
 public:
  Cow() : value_(std::make_shared<T>()) {}

  const T& get() const { return *value_; }
  const T* operator->() const { return value_.get(); }

  /// Mutable access; clones iff a forked sibling still shares the value.
  T& mut() {
    if (value_.use_count() > 1) value_ = std::make_shared<T>(*value_);
    return *value_;
  }

  /// Owner count, for fractional footprint accounting.
  std::size_t owners() const {
    const long n = value_.use_count();
    return n > 0 ? static_cast<std::size_t>(n) : 1;
  }

 private:
  std::shared_ptr<T> value_;
};

}  // namespace octopocs::symex
