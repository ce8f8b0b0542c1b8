#include "fleet/worker.h"

#include <csignal>
#include <unistd.h>

#include <cerrno>
#include <condition_variable>
#include <cstdio>
#include <memory>
#include <mutex>
#include <string>
#include <thread>

#include "fleet/wire.h"
#include "session/bundle_registry.h"
#include "session/spec_json.h"
#include "session/tuning_session.h"

namespace bati {

namespace {

/// Blocking, EINTR-aware line reader over the task pipe.
class FdLineReader {
 public:
  explicit FdLineReader(int fd) : fd_(fd) {}

  /// False on EOF (with no buffered partial line) or a read error.
  bool Next(std::string* line) {
    for (;;) {
      const size_t newline = buffer_.find('\n', pos_);
      if (newline != std::string::npos) {
        line->assign(buffer_, pos_, newline - pos_);
        pos_ = newline + 1;
        return true;
      }
      if (pos_ > 0) {
        buffer_.erase(0, pos_);
        pos_ = 0;
      }
      if (eof_) {
        if (buffer_.empty()) return false;
        line->assign(buffer_);
        buffer_.clear();
        return true;
      }
      char chunk[4096];
      const ssize_t n = read(fd_, chunk, sizeof(chunk));
      if (n > 0) {
        buffer_.append(chunk, static_cast<size_t>(n));
      } else if (n == 0 || errno != EINTR) {
        eof_ = true;
      }
    }
  }

 private:
  int fd_;
  std::string buffer_;
  size_t pos_ = 0;
  bool eof_ = false;
};

/// Serialized, EINTR-aware full write; false once the pipe is broken.
class FrameWriter {
 public:
  explicit FrameWriter(int fd) : fd_(fd) {}

  bool Write(const std::string& frame) {
    std::lock_guard<std::mutex> lock(mu_);
    size_t off = 0;
    while (off < frame.size()) {
      const ssize_t n = write(fd_, frame.data() + off, frame.size() - off);
      if (n > 0) {
        off += static_cast<size_t>(n);
      } else if (n < 0 && errno == EINTR) {
        continue;
      } else {
        broken_ = true;  // EPIPE with SIGPIPE ignored, or a real error
        return false;
      }
    }
    return true;
  }

  bool broken() const { return broken_; }

 private:
  int fd_;
  std::mutex mu_;
  bool broken_ = false;
};

/// Emits "HB <task>" every interval while a task runs, so the coordinator
/// can tell a slow worker from a dead or stalled one.
class Heartbeat {
 public:
  Heartbeat(FrameWriter* writer, uint64_t task_id, int interval_ms)
      : writer_(writer), task_id_(task_id), interval_ms_(interval_ms) {
    thread_ = std::thread([this] { Loop(); });
  }

  ~Heartbeat() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      stop_ = true;
    }
    cv_.notify_all();
    thread_.join();
  }

 private:
  void Loop() {
    std::unique_lock<std::mutex> lock(mu_);
    for (;;) {
      cv_.wait_for(lock, std::chrono::milliseconds(interval_ms_),
                   [this] { return stop_; });
      if (stop_) return;
      lock.unlock();
      writer_->Write(EncodeHeartbeatLine(task_id_));
      lock.lock();
    }
  }

  FrameWriter* writer_;
  uint64_t task_id_;
  int interval_ms_;
  std::mutex mu_;
  std::condition_variable cv_;
  bool stop_ = false;
  std::thread thread_;
};

}  // namespace

std::string TaskCheckpointPath(const std::string& state_dir,
                               uint64_t task_id) {
  return state_dir + "/task" + std::to_string(task_id) + ".ckpt";
}

int FleetWorkerMain(int task_fd, int result_fd,
                    const FleetWorkerConfig& config) {
  // A closed result pipe must surface as a write error (clean exit 4), not
  // a SIGPIPE kill that loses the current task's checkpoint.
  std::signal(SIGPIPE, SIG_IGN);

  FdLineReader reader(task_fd);
  FrameWriter writer(result_fd);
  std::unique_ptr<ChaosInjector> chaos;
  if (config.chaos.enabled) {
    chaos = std::make_unique<ChaosInjector>(config.chaos);
  }

  std::string line;
  while (reader.Next(&line)) {
    TaskFrame task;
    {
      const Status st = ParseTaskLine(line, &task);
      if (!st.ok()) {
        std::fprintf(stderr, "bati_fleet worker: %s\n",
                     st.ToString().c_str());
        return 3;
      }
    }

    const ChaosDecision decision =
        chaos != nullptr ? chaos->Decide(task.task_id, task.attempt)
                         : ChaosDecision{};
    if (decision.kind == ChaosKind::kStall) {
      // Hang silently: no heartbeats, no result. The coordinator's lease
      // expires and it SIGKILLs this process. (If something SIGCONTs us
      // instead, we just run the task late; the duplicate result is
      // byte-identical and the coordinator ignores it.)
      raise(SIGSTOP);
    }

    ResultFrame result;
    result.task_id = task.task_id;
    result.attempt = task.attempt;

    RunSpec spec;
    const Status parse_status = ParseRunSpecJson(task.spec_json, &spec);
    if (!parse_status.ok()) {
      result.ok = false;
      result.payload = RunErrorJson("", parse_status.message());
    } else {
      if (!config.state_dir.empty()) {
        spec.checkpoint_path =
            TaskCheckpointPath(config.state_dir, task.task_id);
        if (task.resume) spec.resume_path = spec.checkpoint_path;
      }
      if (decision.kind == ChaosKind::kKill) {
        // The engine's crash-at-round hook: the checkpoint for that round
        // is written first, then the process _Exit(42)s mid-run — a real
        // kill -9 as far as the coordinator can tell (pipe EOF).
        spec.faults.crash_at_round = decision.kill_round;
      }
      const WorkloadBundle* bundle =
          BundleRegistry::Global().TryGet(spec.workload);
      if (bundle == nullptr) {
        result.ok = false;
        result.payload = RunErrorJson(
            spec.workload, "unknown workload: " + spec.workload);
      } else {
        Heartbeat heartbeat(&writer, task.task_id, config.heartbeat_ms);
        SessionOptions session_options;
        session_options.capture_result_json = true;
        // Canonical lines (wall-clock noise scrubbed) make every attempt of
        // a task emit the identical bytes.
        session_options.canonical_result_json = true;
        TuningSession session(*bundle, std::move(spec), session_options);
        session.Run();
        result.payload = session.result_json();
        result.recovered_calls = session.outcome().engine.replayed_calls;
      }
    }

    const std::string frame = decision.kind == ChaosKind::kGarble
                                  ? EncodeGarbledResultLine(result)
                                  : EncodeResultLine(result);
    if (!writer.Write(frame)) return 4;
  }
  return writer.broken() ? 4 : 0;
}

}  // namespace bati
