#include "serve/workload_observer.h"

#include <algorithm>
#include <cstdio>
#include <map>
#include <sstream>

#include "common/durable.h"
#include "common/macros.h"

namespace bati {

namespace {

/// splitmix64: a fixed, platform-independent mixer, so sketch cell
/// placement (and therefore every drift score) is byte-stable across
/// machines and runs.
uint64_t Mix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

}  // namespace

WorkloadObserver::WorkloadObserver(const ObserverOptions& options,
                                   int num_queries)
    : options_(options), num_queries_(num_queries) {
  BATI_CHECK(num_queries_ > 0);
  BATI_CHECK(options_.window >= 1);
  BATI_CHECK(options_.stride >= 1);
  BATI_CHECK(options_.sketch_width >= 1 && options_.sketch_depth >= 1);
  sketch_.assign(options_.sketch_depth * options_.sketch_width, 0.0);
}

size_t WorkloadObserver::SketchCell(size_t row, int query_id) const {
  const uint64_t h =
      Mix64((static_cast<uint64_t>(row) << 32) ^
            static_cast<uint64_t>(static_cast<uint32_t>(query_id)));
  return row * options_.sketch_width + h % options_.sketch_width;
}

void WorkloadObserver::SketchAdd(int query_id, double weight) {
  for (size_t row = 0; row < options_.sketch_depth; ++row) {
    sketch_[SketchCell(row, query_id)] += weight;
  }
}

double WorkloadObserver::SketchEstimate(int query_id) const {
  double est = sketch_[SketchCell(0, query_id)];
  for (size_t row = 1; row < options_.sketch_depth; ++row) {
    est = std::min(est, sketch_[SketchCell(row, query_id)]);
  }
  return est;
}

void WorkloadObserver::Observe(int query_id, double weight) {
  BATI_CHECK(query_id >= 0 && query_id < num_queries_);
  BATI_CHECK(weight > 0.0);
  if (window_.size() == options_.window) {
    const auto& [old_id, old_weight] = window_.front();
    SketchAdd(old_id, -old_weight);
    window_.pop_front();
  }
  window_.emplace_back(query_id, weight);
  SketchAdd(query_id, weight);
  ++events_seen_;
  ++since_check_;
}

bool WorkloadObserver::DriftCheckDue() const {
  return has_reference_ && events_seen_ >= options_.min_events &&
         since_check_ >= options_.stride;
}

double WorkloadObserver::EvaluateDrift() {
  since_check_ = 0;
  if (!has_reference_ || window_.empty()) return 0.0;
  const std::vector<double> live = Distribution();
  double tv = 0.0;
  for (int q = 0; q < num_queries_; ++q) {
    tv += std::abs(live[static_cast<size_t>(q)] -
                   reference_[static_cast<size_t>(q)]);
  }
  return 0.5 * tv;
}

void WorkloadObserver::CaptureReference() {
  reference_ = Distribution();
  has_reference_ = true;
  since_check_ = 0;
}

void WorkloadObserver::SetReference(std::vector<double> reference) {
  BATI_CHECK(reference.size() == static_cast<size_t>(num_queries_));
  reference_ = std::move(reference);
  has_reference_ = true;
  since_check_ = 0;
}

std::vector<double> WorkloadObserver::Distribution() const {
  std::vector<double> dist(static_cast<size_t>(num_queries_), 0.0);
  if (window_.empty()) return dist;
  double total = 0.0;
  for (int q = 0; q < num_queries_; ++q) {
    const double est = SketchEstimate(q);
    dist[static_cast<size_t>(q)] = est;
    total += est;
  }
  if (total <= 0.0) return dist;
  for (double& d : dist) d /= total;
  return dist;
}

std::vector<std::pair<int, double>> WorkloadObserver::WindowSupport() const {
  std::map<int, double> by_query;
  for (const auto& [id, weight] : window_) by_query[id] += weight;
  return std::vector<std::pair<int, double>>(by_query.begin(),
                                             by_query.end());
}

std::string WorkloadObserver::Serialize() const {
  std::string out;
  char buf[96];
  std::snprintf(buf, sizeof(buf), "counts %llu %llu\n",
                static_cast<unsigned long long>(events_seen_),
                static_cast<unsigned long long>(since_check_));
  out.append(buf);
  std::snprintf(buf, sizeof(buf), "window %zu\n", window_.size());
  out.append(buf);
  for (const auto& [id, weight] : window_) {
    std::snprintf(buf, sizeof(buf), "%d ", id);
    out.append(buf);
    AppendHexDouble(&out, weight);
    out.push_back('\n');
  }
  std::snprintf(buf, sizeof(buf), "reference %d\n", has_reference_ ? 1 : 0);
  out.append(buf);
  if (has_reference_) {
    for (size_t q = 0; q < reference_.size(); ++q) {
      if (q > 0) out.push_back(' ');
      AppendHexDouble(&out, reference_[q]);
    }
    out.push_back('\n');
  }
  return out;
}

bool WorkloadObserver::Deserialize(const std::vector<std::string>& lines) {
  window_.clear();
  sketch_.assign(options_.sketch_depth * options_.sketch_width, 0.0);
  reference_.clear();
  has_reference_ = false;
  events_seen_ = 0;
  since_check_ = 0;

  size_t pos = 0;
  auto next = [&](std::istringstream* in) -> bool {
    if (pos >= lines.size()) return false;
    in->clear();
    in->str(lines[pos++]);
    return true;
  };

  std::istringstream in;
  std::string keyword;
  unsigned long long events = 0, since = 0;
  if (!next(&in) || !(in >> keyword >> events >> since) ||
      keyword != "counts") {
    return false;
  }
  size_t window_count = 0;
  if (!next(&in) || !(in >> keyword >> window_count) || keyword != "window" ||
      window_count > options_.window) {
    return false;
  }
  for (size_t i = 0; i < window_count; ++i) {
    int id = 0;
    std::string weight_tok;
    double weight = 0.0;
    if (!next(&in) || !(in >> id >> weight_tok) ||
        !ParseHexDouble(weight_tok, &weight) || id < 0 ||
        id >= num_queries_ || weight <= 0.0) {
      return false;
    }
    window_.emplace_back(id, weight);
    SketchAdd(id, weight);
  }
  int has_ref = 0;
  if (!next(&in) || !(in >> keyword >> has_ref) || keyword != "reference" ||
      (has_ref != 0 && has_ref != 1)) {
    return false;
  }
  if (has_ref == 1) {
    if (!next(&in)) return false;
    std::string tok;
    while (in >> tok) {
      double value = 0.0;
      if (!ParseHexDouble(tok, &value) || value < 0.0) return false;
      reference_.push_back(value);
    }
    if (reference_.size() != static_cast<size_t>(num_queries_)) return false;
    has_reference_ = true;
  }
  if (pos != lines.size()) return false;
  events_seen_ = events;
  since_check_ = since;
  return true;
}

}  // namespace bati
