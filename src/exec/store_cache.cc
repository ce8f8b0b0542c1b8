#include "exec/store_cache.h"

#include <map>
#include <mutex>
#include <tuple>
#include <vector>

#include "common/macros.h"

namespace bati::exec {

namespace {

using StoreKey = std::tuple<const Database*, uint64_t, int64_t>;

/// One cached store. The once_flag serializes materialization per key so
/// two threads asking for the same store build it exactly once, without
/// holding the map mutex across the (expensive) build.
struct StoreEntry {
  std::once_flag once;
  std::shared_ptr<const Database> pin;  ///< keeps the key's address live
  std::shared_ptr<const ColumnStore> store;
};

struct StoreCache {
  std::mutex mu;
  std::map<StoreKey, std::unique_ptr<StoreEntry>> entries;
};

StoreCache& Cache() {
  static StoreCache* cache = new StoreCache();  // never destroyed
  return *cache;
}

}  // namespace

std::shared_ptr<const ColumnStore> GetOrMaterializeStore(
    std::shared_ptr<const Database> db, const StoreOptions& options) {
  BATI_CHECK(db != nullptr);
  StoreCache& cache = Cache();
  const StoreKey key{db.get(), options.seed, options.max_rows_per_table};
  StoreEntry* entry = nullptr;
  {
    std::lock_guard<std::mutex> lock(cache.mu);
    std::unique_ptr<StoreEntry>& slot = cache.entries[key];
    if (slot == nullptr) slot = std::make_unique<StoreEntry>();
    entry = slot.get();
  }
  std::call_once(entry->once, [&] {
    entry->pin = db;
    entry->store = std::make_shared<const ColumnStore>(*db, options);
  });
  return entry->store;
}

}  // namespace bati::exec
