// Timing decorator over alloc::Allocator, used only in the traced run.
// It times allocate/deallocate/free_local_hint and forwards every other
// virtual unchanged, so the program under it takes the same paths as the
// untraced run. Totals are kept per allocator lane (`tid`, which is the
// reclaimer's registration slot): a lane is driven by one thread at a
// time, so the owning worker reads its own cell before and after each
// data-structure call and attributes the difference to that op.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "alloc/allocator.hpp"
#include "clock.hpp"

namespace perfbench {

struct alignas(64) AllocCell {
  std::uint64_t alloc_calls = 0;
  std::uint64_t alloc_ticks = 0;
  std::uint64_t free_calls = 0;
  std::uint64_t free_ticks = 0;
};

class TimedAllocator final : public emr::alloc::Allocator {
 public:
  /// `lanes` cells are kept; calls on a lane beyond them share one
  /// overflow cell.
  TimedAllocator(std::unique_ptr<emr::alloc::Allocator> inner, int lanes)
      : inner_(std::move(inner)),
        cells_(static_cast<std::size_t>(lanes < 1 ? 1 : lanes) + 1) {}

  void* allocate(int tid, std::size_t size) override {
    AllocCell& c = lane_cell(tid);
    const std::uint64_t t0 = ticks();
    void* p = inner_->allocate(tid, size);
    c.alloc_ticks += ticks() - t0;
    ++c.alloc_calls;
    return p;
  }

  void deallocate(int tid, void* p) override {
    AllocCell& c = lane_cell(tid);
    const std::uint64_t t0 = ticks();
    inner_->deallocate(tid, p);
    c.free_ticks += ticks() - t0;
    ++c.free_calls;
  }

  void free_local_hint(int tid, void* p) override {
    AllocCell& c = lane_cell(tid);
    const std::uint64_t t0 = ticks();
    inner_->free_local_hint(tid, p);
    c.free_ticks += ticks() - t0;
    ++c.free_calls;
  }

  int home_lane(void* p) const override { return inner_->home_lane(p); }
  void flush_thread_caches() override { inner_->flush_thread_caches(); }
  emr::alloc::AllocStats stats() const override { return inner_->stats(); }
  const char* name() const override { return inner_->name(); }

  /// Totals of lane `tid`; read them only from the thread driving it.
  const AllocCell& cell(int tid) const { return cells_[index(tid)]; }

 private:
  std::size_t index(int tid) const {
    const auto i = static_cast<std::size_t>(tid);
    return i < cells_.size() - 1 ? i : cells_.size() - 1;
  }
  AllocCell& lane_cell(int tid) { return cells_[index(tid)]; }

  std::unique_ptr<emr::alloc::Allocator> inner_;
  std::vector<AllocCell> cells_;
};

}  // namespace perfbench
