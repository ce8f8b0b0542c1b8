#include "session/bundle_registry.h"

#include "common/macros.h"

namespace bati {

BundleRegistry& BundleRegistry::Global() {
  static BundleRegistry* registry = new BundleRegistry();
  return *registry;
}

BundleRegistry::Entry& BundleRegistry::GetEntry(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  std::unique_ptr<Entry>& slot = entries_[name];
  if (slot == nullptr) slot = std::make_unique<Entry>();
  return *slot;
}

const WorkloadBundle* BundleRegistry::TryGet(const std::string& name) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = dynamic_.find(name);
    if (it != dynamic_.end()) return it->second.back().get();
  }
  Entry& entry = GetEntry(name);
  std::call_once(entry.once, [&entry, &name] {
    Workload workload = MakeWorkloadByName(name);
    if (workload.database == nullptr) return;  // unknown name; stays null
    auto bundle = std::make_unique<WorkloadBundle>();
    bundle->workload = std::move(workload);
    bundle->optimizer =
        std::make_shared<WhatIfOptimizer>(bundle->workload.database);
    bundle->candidates = GenerateCandidates(bundle->workload);
    entry.bundle = std::move(bundle);
  });
  return entry.bundle.get();
}

const WorkloadBundle& BundleRegistry::Get(const std::string& name) {
  const WorkloadBundle* bundle = TryGet(name);
  BATI_CHECK(bundle != nullptr && "unknown workload name");
  return *bundle;
}

const WorkloadBundle* BundleRegistry::RegisterDynamic(
    const std::string& name, std::unique_ptr<WorkloadBundle> bundle) {
  BATI_CHECK(bundle != nullptr);
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::unique_ptr<WorkloadBundle>>& generations = dynamic_[name];
  generations.push_back(std::move(bundle));
  return generations.back().get();
}

const WorkloadBundle& LoadBundle(const std::string& name) {
  return BundleRegistry::Global().Get(name);
}

}  // namespace bati
