// Construction hooks shared between smr/factory.cpp and the reclaimer
// translation units, plus the per-slot containers the schemes share:
// LimboBags (ebr, token) and RetireList (hp, era, nbr). Not part of the
// public surface.
#pragma once

#include <algorithm>
#include <deque>
#include <memory>
#include <string>
#include <vector>

#include "smr/reclaimer.hpp"

namespace emr::smr::internal {

/// Next retire-list size that should trigger a scan, given what the
/// last scan kept: at least the base threshold, and at least a quarter
/// threshold beyond the kept survivors so a fully-pinned list cannot
/// degenerate into a scan per retire.
inline std::size_t next_scan_at(std::size_t threshold, std::size_t kept) {
  return std::max(threshold,
                  kept + std::max<std::size_t>(threshold / 4, 1));
}

/// A limbo bag sealed at `stamp` (the epoch for ebr, the token pass for
/// token) and waiting for grace.
struct SealedBag {
  std::uint64_t stamp = 0;
  bool adopted = false;  // left behind by a departed generation
  NodeChain nodes;
};

/// One slot's limbo for the bag-sealing schemes (ebr, token): the open
/// bag being filled and the sealed bags, oldest first. The scheme owns
/// the clock the stamps come from and decides when a bag is safe.
struct LimboBags {
  NodeChain open;
  std::deque<SealedBag> sealed;

  /// Seals the open bag at `stamp`.
  void seal(std::uint64_t stamp) {
    if (open.empty()) return;
    sealed.push_back(SealedBag{stamp, /*adopted=*/false, std::move(open)});
  }

  /// Departure: seals the open bag and marks every sealed bag adopted,
  /// so whenever grace admits it, it drains at the schedule's quota over
  /// the successor's ops instead of in one burst.
  void depart(std::uint64_t stamp) {
    seal(stamp);
    for (SealedBag& b : sealed) b.adopted = true;
  }

  /// Pops the oldest bag into `out` (whose chain must be empty) when
  /// `safe(bag)` holds.
  template <typename Safe>
  bool take_safe(Safe safe, SealedBag& out) {
    if (sealed.empty() || !safe(sealed.front())) return false;
    out = std::move(sealed.front());
    sealed.pop_front();
    return true;
  }

  /// Teardown: seals the open bag and hands every bag to `ex` on `lane`
  /// as a fresh one.
  void flush(FreeExecutor& ex, int lane, std::uint64_t stamp) {
    seal(stamp);
    for (SealedBag& b : sealed) {
      ex.hand_over(lane, /*adopted=*/false, std::move(b.nodes));
    }
    sealed.clear();
  }
};

/// The node a retire-list entry stands for: hp lists bare pointers, the
/// era and nbr lists carry the node's eras alongside it in `p`.
inline void* node_of(void* p) { return p; }
template <typename Entry>
void* node_of(const Entry& e) {
  return e.p;
}

/// One slot's retire list for the scanning schemes (hp, era, nbr): the
/// retired entries plus the list size that triggers the next scan. The
/// entries stay a vector because a scan classifies each by the eras it
/// carries; only the nodes a scan releases are linked into a chain. The
/// scheme decides which entries a scan must keep; the list does the
/// partition and the hand-over.
template <typename Entry>
class RetireList {
 public:
  /// Sizes an empty list for `threshold` retires before its first scan.
  void arm(std::size_t threshold) {
    entries_.reserve(threshold);
    scan_at_ = threshold;
  }

  /// Appends `e`; true when the list has reached its scan size.
  bool push(const Entry& e) {
    entries_.push_back(e);
    return entries_.size() >= scan_at_;
  }

  std::size_t size() const { return entries_.size(); }
  bool empty() const { return entries_.empty(); }

  /// Hands every entry `reserved` rejects to `ex` on `lane` as one bag
  /// (adopted on a departure scan), compacts the rest in place and in
  /// order, and re-arms the scan size above the survivors.
  template <typename Reserved>
  void scan(FreeExecutor& ex, int lane, bool adopted,
            std::size_t threshold, Reserved reserved) {
    NodeChain bag;
    std::size_t kept = 0;
    for (const Entry& e : entries_) {
      if (reserved(e)) {
        entries_[kept++] = e;
      } else {
        bag.push_back(node_of(e));
      }
    }
    entries_.resize(kept);
    scan_at_ = next_scan_at(threshold, kept);
    ex.hand_over(lane, adopted, std::move(bag));
  }

  /// Teardown: every entry as one bag, the list emptied and re-armed
  /// (an already empty list keeps its scan size).
  NodeChain take_all(std::size_t threshold) {
    NodeChain bag;
    if (entries_.empty()) return bag;
    for (const Entry& e : entries_) bag.push_back(node_of(e));
    entries_.clear();
    scan_at_ = threshold;
    return bag;
  }

 private:
  std::vector<Entry> entries_;
  std::size_t scan_at_ = 0;
};

struct EbrOptions {
  const char* name = "ebr";
  bool leak = false;       // "none": retired nodes are never reclaimed
  bool quiescent = false;  // qsbr/rcu: release begin/end, no fence
};

enum class TokenPolicy {
  kNaive,      // holder frees every thread's safe bags, then passes
  kPassFirst,  // pass first, then hand over own safe bags (also _af,
               // _pool, _adaptive, _latency: the executor paces them)
  kPeriodic,   // pass first, hand over at most one own bag per receipt
};

struct TokenOptions {
  std::string name = "token";
  TokenPolicy policy = TokenPolicy::kPeriodic;
};

/// The era-clock schemes share one implementation skeleton (global era,
/// birth/retire stamping, reservation scan) and differ in what a thread
/// publishes on the read side.
enum class EraVariant {
  kHazardEras,   // he: one published era per protection slot
  kInterval,     // ibr: a single [lower, upper] reservation interval
  kWaitFreeEras, // wfe: he with a bounded validate loop + open fallback
};

std::unique_ptr<Reclaimer> make_ebr(const EbrOptions& opt,
                                    const SmrContext& ctx,
                                    const SmrConfig& cfg,
                                    FreeExecutor& executor);

std::unique_ptr<Reclaimer> make_token(const TokenOptions& opt,
                                      const SmrContext& ctx,
                                      const SmrConfig& cfg,
                                      FreeExecutor& executor);

std::unique_ptr<Reclaimer> make_hp(const SmrContext& ctx,
                                   const SmrConfig& cfg,
                                   FreeExecutor& executor);

std::unique_ptr<Reclaimer> make_era(EraVariant variant,
                                    const SmrContext& ctx,
                                    const SmrConfig& cfg,
                                    FreeExecutor& executor);

std::unique_ptr<Reclaimer> make_nbr(bool plus, const SmrContext& ctx,
                                    const SmrConfig& cfg,
                                    FreeExecutor& executor);

}  // namespace emr::smr::internal
