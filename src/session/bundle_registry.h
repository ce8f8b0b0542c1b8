#ifndef BATI_SESSION_BUNDLE_REGISTRY_H_
#define BATI_SESSION_BUNDLE_REGISTRY_H_

#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "optimizer/what_if.h"
#include "tuner/candidate_gen.h"
#include "workload/generators.h"

namespace bati {

/// A workload plus everything derived from it that is shared across runs:
/// the simulated what-if optimizer and the candidate-index universe. A
/// bundle is immutable after construction — the optimizer is pure and the
/// workload/candidate vectors are never mutated — so any number of
/// concurrent tuning sessions may share one bundle with no synchronization.
struct WorkloadBundle {
  Workload workload;
  std::shared_ptr<WhatIfOptimizer> optimizer;
  CandidateSet candidates;
};

/// Process-wide, thread-safe cache of named workload bundles ("tpch",
/// "tpcds", "job", "real-d", "real-d-bench", "real-m", "toy").
///
/// Replaces the unsynchronized `static` map the harness's LoadBundle()
/// used to hold: lookups from any number of threads are safe, each named
/// bundle is built exactly once (std::call_once per name), and two
/// different workloads can be built concurrently — only the name -> entry
/// map itself is guarded by a mutex, never the (expensive) build.
class BundleRegistry {
 public:
  /// The process-wide registry used by LoadBundle(), the SessionManager,
  /// and the CLI tools.
  static BundleRegistry& Global();

  BundleRegistry() = default;
  BundleRegistry(const BundleRegistry&) = delete;
  BundleRegistry& operator=(const BundleRegistry&) = delete;

  /// Returns the bundle for a named built-in workload, building it on
  /// first use. Returns nullptr for an unknown name (also cached, so a
  /// misspelled name is cheap to probe twice). The returned pointer is
  /// stable for the registry's lifetime.
  const WorkloadBundle* TryGet(const std::string& name);

  /// As TryGet(), but an unknown name is a programmer error (CHECK).
  const WorkloadBundle& Get(const std::string& name);

  /// Registers (or replaces) a dynamically built bundle under `name`,
  /// returning its stable address. Dynamic names shadow built-in ones in
  /// TryGet()/Get(). Replaced bundles are retired, not destroyed — their
  /// pointers stay valid for the registry's lifetime, so sessions still
  /// running over a superseded bundle are unaffected. This is how the
  /// serve daemon routes live-window sub-workloads through the
  /// SessionManager, which resolves specs by name.
  const WorkloadBundle* RegisterDynamic(
      const std::string& name, std::unique_ptr<WorkloadBundle> bundle);

 private:
  /// One named slot. The once_flag serializes construction per name;
  /// `bundle` stays null for unknown names.
  struct Entry {
    std::once_flag once;
    std::unique_ptr<WorkloadBundle> bundle;
  };

  /// Finds or inserts the entry for `name` under mu_. The returned
  /// reference is stable: entries are held by unique_ptr and never erased.
  Entry& GetEntry(const std::string& name);

  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<Entry>> entries_;
  /// Dynamically registered bundles, newest generation last. Superseded
  /// generations are retained so pointers handed out stay valid.
  std::map<std::string, std::vector<std::unique_ptr<WorkloadBundle>>>
      dynamic_;
};

/// Builds (and caches process-wide) a bundle for a named workload. Thin
/// wrapper over BundleRegistry::Global(); unknown names CHECK-fail, as
/// they always have here (tools wanting a clean error use TryGet()).
const WorkloadBundle& LoadBundle(const std::string& name);

}  // namespace bati

#endif  // BATI_SESSION_BUNDLE_REGISTRY_H_
