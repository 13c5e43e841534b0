// The data-structure layer: every trial drives one ConcurrentSet
// implementation picked by TrialConfig::ds. Each operation runs on
// behalf of a registered smr::ThreadHandle: it opens its own smr::Guard
// (RAII begin_op/end_op on the handle), allocates nodes through the
// handle's reclaimer (so the alloc/ models see real node lifetimes and
// pooling can intercept them) and retires unlinked nodes through it —
// lookups hold no shard or global lock on any structure except the
// legacy `shardedset`, so the reclaimer's read-side protection is
// load-bearing, not cost-modelled. Structures, node layouts and
// per-scheme guard protocols are documented in docs/DATA_STRUCTURES.md.
//
//   abtree     - internal (a,b)-tree flavour: fat 240 B copy-on-write
//                leaves indexed directly by key / 28, lock-free reads
//                AND writes (leaf CAS)
//   occtree    - external BST, Bronson-style split: serialized writers
//                under one lock, optimistic lock-free readers (64 B nodes)
//   dgt        - Harris-Michael lock-free chained hash set (96 B nodes)
//   shardedset - the original spinlock-sharded chained hash set, kept as
//                the locked regression baseline
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "smr/reclaimer.hpp"

namespace emr::ds {

struct SetConfig {
  /// Keys passed to the set must lie in [0, keyrange): the abtree sizes
  /// its leaf segments from it and the hash structures their buckets.
  std::uint64_t keyrange = 1 << 14;
  int num_threads = 1;
};

/// A set of uint64 keys under concurrent insert/erase/contains.
///
/// Contract:
///  - Each call runs one guarded operation on behalf of the registered
///    ThreadHandle `h`, which must belong to the reclaimer the structure
///    was built over (the handle contract applies: one call at a time
///    per handle, different handles freely concurrent; handles may come
///    and go mid-lifetime — thread churn is first-class).
///  - Nodes are allocated via the handle's reclaimer and begin with
///    smr::NodeHeader; unlinked nodes leave through Guard::retire and
///    are never touched again by the structure.
///  - Destruction is single-threaded (no thread may be operating
///    through the reclaimer): a smr::TeardownCursor returns every node
///    still reachable to the allocator — on its own transient handle
///    when a slot is free, or the handle-less teardown lane when the
///    table is exhausted, so destructors never throw. Combined with
///    Reclaimer::flush_all() afterwards, no node leaks.
class ConcurrentSet {
 public:
  virtual ~ConcurrentSet() = default;

  virtual bool insert(smr::ThreadHandle& h, std::uint64_t key) = 0;
  virtual bool erase(smr::ThreadHandle& h, std::uint64_t key) = 0;
  virtual bool contains(smr::ThreadHandle& h, std::uint64_t key) = 0;

  virtual const char* name() const = 0;
  /// sizeof the structure's churned node type — what alloc_node is asked
  /// for on every insert (harness::node_size_for_ds forwards here).
  virtual std::size_t node_size() const = 0;
};

/// Builds the named structure over `reclaimer`. Throws
/// std::invalid_argument listing set_names() for an unknown name.
std::unique_ptr<ConcurrentSet> make_set(const std::string& name,
                                        const SetConfig& cfg,
                                        smr::Reclaimer* reclaimer);

/// The structure names make_set accepts.
const std::vector<std::string>& set_names();

/// Node size for a name without building the structure (derived from
/// sizeof the real node types). Throws like make_set on unknown names.
std::size_t node_size_for_ds(const std::string& name);

// Per-structure factories (ds/factory.cpp fans out to these).
std::unique_ptr<ConcurrentSet> make_abtree(const SetConfig& cfg,
                                           smr::Reclaimer* r);
std::unique_ptr<ConcurrentSet> make_occtree(const SetConfig& cfg,
                                            smr::Reclaimer* r);
std::unique_ptr<ConcurrentSet> make_dgt_hash(const SetConfig& cfg,
                                             smr::Reclaimer* r);
std::unique_ptr<ConcurrentSet> make_shardedset(const SetConfig& cfg,
                                               smr::Reclaimer* r);

// sizeof the churned node type per structure, for node_size_for_ds.
std::size_t abtree_node_size();
std::size_t occtree_node_size();
std::size_t dgt_node_size();
std::size_t shardedset_node_size();

}  // namespace emr::ds
