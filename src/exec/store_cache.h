#ifndef BATI_EXEC_STORE_CACHE_H_
#define BATI_EXEC_STORE_CACHE_H_

#include <memory>

#include "exec/column_store.h"

namespace bati::exec {

/// Process-wide cache of materialized column stores, keyed by (database
/// identity, store options). Materializing a store is by far the most
/// expensive step of standing up an ExecutionEngine — tens of milliseconds
/// on toy, seconds at tpch scale — and the store is immutable after
/// construction, so every engine over the same catalog can share one
/// instance the same way the engine's content-keyed tree cache shares
/// B+-trees across configurations. Before this cache, every correlation
/// run (and every serve-side signal evaluation) re-materialized the store
/// even when the catalog had not changed.
///
/// Identity is the Database object, not its contents: workloads hand out
/// their catalog via shared_ptr (BundleRegistry bundles live for the
/// process), so pointer identity is both cheap and exact. The cache pins
/// each keyed database with a shared_ptr of its own, which keeps the key
/// from being recycled for a different catalog at the same address.
///
/// Entries are never evicted — mirroring BundleRegistry — so the returned
/// store outlives every engine. Thread-safe; concurrent requests for the
/// same key build the store exactly once.
std::shared_ptr<const ColumnStore> GetOrMaterializeStore(
    std::shared_ptr<const Database> db, const StoreOptions& options);

}  // namespace bati::exec

#endif  // BATI_EXEC_STORE_CACHE_H_
