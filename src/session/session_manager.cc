#include "session/session_manager.h"

#include <algorithm>

#include "common/macros.h"

namespace bati {

SessionManager::SessionManager(const SessionManagerOptions& options)
    : options_(options), paused_(options.start_paused) {
  BATI_CHECK(options_.parallelism >= 1);
  workers_.reserve(static_cast<size_t>(options_.parallelism));
  for (int i = 0; i < options_.parallelism; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

SessionManager::~SessionManager() {
  Drain();
  {
    std::lock_guard<std::mutex> lock(mu_);
    shutdown_ = true;
  }
  work_cv_.notify_all();
  for (std::thread& w : workers_) w.join();
}

uint64_t SessionManager::Submit(RunSpec spec) {
  uint64_t id = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    id = next_id_++;
    const std::string& workload = spec.workload;
    auto it = queues_.find(workload);
    if (it == queues_.end()) {
      it = queues_.emplace(workload, std::deque<PendingRun>()).first;
      rotation_.push_back(workload);
    }
    it->second.push_back(PendingRun{id, std::move(spec)});
    ++queued_;
  }
  work_cv_.notify_one();
  return id;
}

void SessionManager::Start() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    paused_ = false;
  }
  work_cv_.notify_all();
}

std::vector<SessionResult> SessionManager::Drain() {
  Start();
  std::unique_lock<std::mutex> lock(mu_);
  done_cv_.wait(lock, [this] { return queued_ == 0 && running_ == 0; });
  std::vector<SessionResult> results = results_;
  std::sort(results.begin(), results.end(),
            [](const SessionResult& a, const SessionResult& b) {
              return a.id < b.id;
            });
  return results;
}

bool SessionManager::PopNextLocked(PendingRun* out) {
  if (queued_ == 0 || rotation_.empty()) return false;
  // Round-robin over workloads in first-submission order, FIFO within
  // each: starting at the rotation cursor, take the head of the first
  // non-empty queue and park the cursor just past it.
  const size_t n = rotation_.size();
  for (size_t step = 0; step < n; ++step) {
    const size_t slot = (rotation_next_ + step) % n;
    std::deque<PendingRun>& queue = queues_[rotation_[slot]];
    if (queue.empty()) continue;
    *out = std::move(queue.front());
    queue.pop_front();
    --queued_;
    rotation_next_ = (slot + 1) % n;
    return true;
  }
  return false;
}

void SessionManager::RecordResultLocked(SessionResult result) {
  result.sequence = next_sequence_++;
  results_.push_back(std::move(result));
}

void SessionManager::WorkerLoop() {
  for (;;) {
    PendingRun run;
    {
      std::unique_lock<std::mutex> lock(mu_);
      work_cv_.wait(lock, [this] {
        return shutdown_ || (!paused_ && queued_ > 0);
      });
      if (shutdown_) return;
      if (!PopNextLocked(&run)) continue;
      ++running_;
    }
    SessionResult result;
    result.id = run.id;
    result.spec = run.spec;
    // Bundles resolve through the thread-safe global registry: first use
    // of a workload builds it once, every later session shares it.
    const WorkloadBundle* bundle =
        BundleRegistry::Global().TryGet(run.spec.workload);
    if (bundle == nullptr) {
      result.status =
          Status::InvalidArgument("unknown workload: " + run.spec.workload);
    } else {
      TuningSession session(*bundle, std::move(run.spec), options_.session);
      result.outcome = session.Run();
      result.result_json = session.result_json();
      result.layout_csv = session.layout_csv();
    }
    // Completion callback fires while this worker still counts as running,
    // so Drain() returns only after every callback has been delivered.
    if (options_.on_result) options_.on_result(result);
    {
      std::lock_guard<std::mutex> lock(mu_);
      RecordResultLocked(std::move(result));
      --running_;
    }
    done_cv_.notify_all();
  }
}

}  // namespace bati
