// Output checks. A benchmark run counts as correct only when the data
// structure's final state agrees with what the driver saw its calls
// return:
//  - set: every key's final membership equals its prefill state plus the
//    successful inserts minus the successful erases the workers saw;
//  - queue: each producer's sequence numbers arrive strictly increasing,
//    none twice, and the items enqueued minus the items dequeued equal
//    the items left in the queue at the end.
// Each check returns how many items it rejects; that count feeds
// failed_ops_share and the non-zero exit.
#pragma once

#include <cstdint>
#include <vector>

#include "ds/queue.hpp"
#include "ds/set.hpp"

namespace perfbench {

/// Per-worker net insert/erase counts per key plus the prefill state.
class SetLedger {
 public:
  SetLedger(std::uint64_t keyrange, int workers)
      : prefilled_(keyrange, 0),
        net_(static_cast<std::size_t>(workers),
             std::vector<std::int16_t>(keyrange, 0)) {}

  void mark_prefilled(std::uint64_t key) { prefilled_[key] = 1; }

  /// Worker w's lane; only worker w writes it while the run is live.
  std::int16_t* lane(int w) { return net_[static_cast<std::size_t>(w)].data(); }

  /// Keys whose final membership disagrees with the ledger.
  std::uint64_t check(emr::ds::ConcurrentSet& set,
                      emr::smr::ThreadHandle& h) const {
    std::uint64_t bad = 0;
    for (std::uint64_t k = 0; k < prefilled_.size(); ++k) {
      std::int64_t expect = prefilled_[k];
      for (const auto& lane : net_) expect += lane[k];
      const bool present = set.contains(h, k);
      if (expect != (present ? 1 : 0)) ++bad;
    }
    return bad;
  }

 private:
  std::vector<std::uint8_t> prefilled_;
  std::vector<std::vector<std::int16_t>> net_;
};

/// Queue values carry their producer in the top 16 bits and the
/// producer's sequence number in the rest.
inline std::uint64_t queue_value(int producer, std::uint64_t seq) {
  return (static_cast<std::uint64_t>(producer) << 48) | seq;
}

/// One consumer's view of the dequeued stream.
class QueueChecker {
 public:
  explicit QueueChecker(int producers)
      : next_min_(static_cast<std::size_t>(producers), 0) {}

  void on_dequeued(std::uint64_t v) {
    ++dequeued_;
    const std::uint64_t producer = v >> 48;
    const std::uint64_t seq = v & ((1ULL << 48) - 1);
    if (producer >= next_min_.size() || seq < next_min_[producer]) {
      ++bad_;  // unknown producer, duplicate or out of order
      return;
    }
    next_min_[producer] = seq + 1;
  }

  std::uint64_t dequeued() const { return dequeued_; }
  std::uint64_t bad() const { return bad_; }

 private:
  std::vector<std::uint64_t> next_min_;
  std::uint64_t dequeued_ = 0;
  std::uint64_t bad_ = 0;
};

/// Drains what is left in `q` through `c` and returns the items the
/// check rejects: out-of-order or duplicate values plus the gap between
/// `enqueued` and everything dequeued.
inline std::uint64_t check_queue(emr::ds::ConcurrentQueue& q,
                                 emr::smr::ThreadHandle& h, QueueChecker& c,
                                 std::uint64_t enqueued) {
  std::uint64_t v = 0;
  while (q.dequeue(h, &v)) c.on_dequeued(v);
  const std::uint64_t d = c.dequeued();
  return c.bad() + (d > enqueued ? d - enqueued : enqueued - d);
}

}  // namespace perfbench
