// Internal (a,b)-tree flavour: fat 240 B leaves (the paper's ABtree
// node size) that hold up to 28 keys each, indexed directly by
// `key / 28` in a flat slot array built once over the key range, and
// replaced copy-on-write. Every mutation builds a fresh immutable leaf
// and publishes it with one CAS on its slot, retiring the old leaf — so
// updates are lock-free, every update churns one fat node through the
// reclaimer exactly like the paper's ABtree write path, and lookups race
// retirement with nothing but the Guard protecting the leaf hop. There
// is no separator walk: the slot is computed, not searched (rebalancing
// and internal nodes are elided — see docs/DATA_STRUCTURES.md for the
// fidelity caveats vs Brown's LLX/SCX ABtree).
#include <algorithm>
#include <atomic>
#include <cstdint>
#include <memory>

#include "ds/set.hpp"

namespace emr::ds {
namespace {

constexpr std::size_t kLeafCap = 28;   // keys per 240 B leaf

struct LeafNode {
  smr::NodeHeader hdr;                 // 8
  std::uint64_t count;                 // 8
  std::uint64_t keys[kLeafCap];        // 224, sorted

  LeafNode() : count(0) {}
};
static_assert(sizeof(LeafNode) == 240);
static_assert(std::is_standard_layout_v<LeafNode>);

class AbTree final : public ConcurrentSet {
 public:
  AbTree(const SetConfig& cfg, smr::Reclaimer* r) : r_(r) {
    const std::uint64_t keyrange = std::max<std::uint64_t>(cfg.keyrange, 2);
    nslots_ = static_cast<std::size_t>((keyrange + kLeafCap - 1) / kLeafCap);
    slots_ = std::make_unique<std::atomic<LeafNode*>[]>(nslots_);
    for (std::size_t i = 0; i < nslots_; ++i) {
      slots_[i].store(nullptr, std::memory_order_relaxed);
    }
  }

  ~AbTree() override {
    // Single-threaded teardown; the cursor degrades gracefully when
    // the slot table is exhausted (destructors must not throw).
    smr::TeardownCursor td(*r_);
    for (std::size_t i = 0; i < nslots_; ++i) {
      LeafNode* leaf = slots_[i].load(std::memory_order_relaxed);
      if (leaf != nullptr) td.dealloc(leaf);
    }
  }

  bool insert(smr::ThreadHandle& h, std::uint64_t key) override {
    smr::Guard g(h);
    std::atomic<LeafNode*>& slot = route(key);
    for (;;) {
      if (!g.validate()) continue;  // slot is static: just re-protect
      LeafNode* old = g.protect(0, slot);
      if (old != nullptr && leaf_contains(*old, key)) return false;
      // Only out-of-contract keys (>= keyrange) can fill a leaf past the
      // 28 distinct in-segment values; refuse rather than overflow.
      if (old != nullptr && old->count >= kLeafCap) return false;
      LeafNode* fresh = smr::make_node<LeafNode>(h);
      if (old != nullptr) {
        std::copy(old->keys, old->keys + old->count, fresh->keys);
        fresh->count = old->count;
      }
      std::uint64_t* end = fresh->keys + fresh->count;
      std::uint64_t* at = std::lower_bound(fresh->keys, end, key);
      std::copy_backward(at, end, end + 1);
      *at = key;
      ++fresh->count;
      LeafNode* expected = old;
      if (slot.compare_exchange_strong(expected, fresh,
                                       std::memory_order_acq_rel)) {
        if (old != nullptr) g.retire(old);
        return true;
      }
      r_->dealloc_unpublished(h, fresh);  // lost the CAS; rebuild
    }
  }

  bool erase(smr::ThreadHandle& h, std::uint64_t key) override {
    smr::Guard g(h);
    std::atomic<LeafNode*>& slot = route(key);
    for (;;) {
      if (!g.validate()) continue;
      LeafNode* old = g.protect(0, slot);
      if (old == nullptr || !leaf_contains(*old, key)) return false;
      LeafNode* fresh = nullptr;
      if (old->count > 1) {
        fresh = smr::make_node<LeafNode>(h);
        const std::uint64_t* okeys = old->keys;
        const std::uint64_t* oend = okeys + old->count;
        const std::uint64_t* oat = std::lower_bound(okeys, oend, key);
        std::uint64_t* out = std::copy(okeys, oat, fresh->keys);
        std::copy(oat + 1, oend, out);
        fresh->count = old->count - 1;
      }
      LeafNode* expected = old;
      if (slot.compare_exchange_strong(expected, fresh,
                                       std::memory_order_acq_rel)) {
        g.retire(old);
        return true;
      }
      if (fresh != nullptr) r_->dealloc_unpublished(h, fresh);
    }
  }

  bool contains(smr::ThreadHandle& h, std::uint64_t key) override {
    smr::Guard g(h);
    std::atomic<LeafNode*>& slot = route(key);
    for (;;) {
      if (!g.validate()) continue;
      LeafNode* leaf = g.protect(0, slot);
      if (leaf == nullptr) return false;
      return leaf_contains(*leaf, key);
    }
  }

  const char* name() const override { return "abtree"; }
  std::size_t node_size() const override { return sizeof(LeafNode); }

 private:
  static bool leaf_contains(const LeafNode& leaf, std::uint64_t key) {
    const std::uint64_t* end = leaf.keys + leaf.count;
    return std::binary_search(leaf.keys, end, key);
  }

  /// The leaf slot covering `key`: segment `key / kLeafCap`, with
  /// out-of-contract keys (>= keyrange) sharing the last leaf. The slot
  /// array is immutable in shape, so this is plain arithmetic; the leaf
  /// the caller protects through the slot is the only retire-able hop.
  std::atomic<LeafNode*>& route(std::uint64_t key) {
    return slots_[std::min<std::uint64_t>(key / kLeafCap, nslots_ - 1)];
  }

  smr::Reclaimer* r_;
  std::size_t nslots_;
  std::unique_ptr<std::atomic<LeafNode*>[]> slots_;
};

}  // namespace

std::unique_ptr<ConcurrentSet> make_abtree(const SetConfig& cfg,
                                           smr::Reclaimer* r) {
  return std::make_unique<AbTree>(cfg, r);
}

std::size_t abtree_node_size() { return sizeof(LeafNode); }

}  // namespace emr::ds
