#include "mcts/mcts_tuner.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>

#include "common/macros.h"
#include "tuner/features.h"

namespace bati {

namespace {
/// Exploration constant lambda of Equation 5 (sqrt(2) per UCT).
constexpr double kUctLambda = 1.4142135623730951;
/// Temperature tau of Boltzmann exploration.
constexpr double kBoltzmannTemperature = 0.05;
/// Ridge regularization of the featurized-prior model.
constexpr double kPriorRidgeLambda = 1.0;
/// RAVE equivalence parameter k: beta(n) = sqrt(k / (3n + k)).
constexpr double kRaveK = 500.0;
}  // namespace

MctsTuner::MctsTuner(TuningContext ctx, MctsOptions options)
    : ctx_(std::move(ctx)),
      options_(options),
      rng_(options.seed),
      best_explored_(0) {
  BATI_CHECK(ctx_.workload != nullptr);
  BATI_CHECK(ctx_.candidates != nullptr);
}

std::string MctsTuner::name() const {
  std::string n = "mcts";
  switch (options_.action_policy) {
    case MctsOptions::ActionPolicy::kUct:
      n += "-uct";
      break;
    case MctsOptions::ActionPolicy::kEpsGreedyPrior:
      n += "-prior";
      break;
    case MctsOptions::ActionPolicy::kBoltzmann:
      n += "-boltz";
      break;
  }
  if (options_.rollout_policy == MctsOptions::RolloutPolicy::kFixedStep) {
    n += "-fix" + std::to_string(options_.fixed_rollout_step);
  } else {
    n += "-rnd";
  }
  switch (options_.extraction) {
    case MctsOptions::Extraction::kBce:
      n += "-bce";
      break;
    case MctsOptions::Extraction::kBestGreedy:
      n += "-bg";
      break;
    case MctsOptions::Extraction::kHybrid:
      n += "-hybrid";
      break;
  }
  if (options_.use_rave) n += "-rave";
  if (options_.featurized_priors) n += "-feat";
  return n;
}

MctsTuner::Node* MctsTuner::GetOrCreateNode(const Config& config) {
  auto it = nodes_.find(config);
  if (it != nodes_.end()) return it->second.get();
  auto node = std::make_unique<Node>();
  node->config = config;
  node->bytes = StorageBytes(ctx_, config);
  Node* raw = node.get();
  nodes_.emplace(config, std::move(node));
  return raw;
}

MctsTuner::Edge MctsTuner::NewEdge(int pos) const {
  const double init =
      options_.action_policy != MctsOptions::ActionPolicy::kUct &&
              !priors_.empty()
          ? priors_[static_cast<size_t>(pos)]
          : 0.0;
  Edge edge;
  edge.pos = pos;
  edge.value = init;
  edge.rave_value = init;
  return edge;
}

MctsTuner::Edge& MctsTuner::EdgeFor(Node& node, int pos) const {
  auto it = std::lower_bound(node.edges.begin(), node.edges.end(), pos,
                             [](const Edge& e, int p) { return e.pos < p; });
  if (it == node.edges.end() || it->pos != pos) {
    it = node.edges.insert(it, NewEdge(pos));
  }
  return *it;
}

bool MctsTuner::Feasible(const Node& node, int pos) const {
  return !node.config.test(static_cast<size_t>(pos)) &&
         FitsStorage(ctx_, node.bytes, pos);
}

bool MctsTuner::HasAction(const Node& node) const {
  const int n = ctx_.candidates->size();
  if (ctx_.constraints.max_storage_bytes <= 0.0) {
    return static_cast<int>(node.config.count()) < n;
  }
  for (int pos = 0; pos < n; ++pos) {
    if (Feasible(node, pos)) return true;
  }
  return false;
}

void MctsTuner::EnumerateActions(const Node& node) {
  actions_.clear();
  const int n = ctx_.candidates->size();
  for (int pos = 0; pos < n; ++pos) {
    if (Feasible(node, pos)) actions_.push_back(pos);
  }
}

void MctsTuner::ComputePriors(CostService& service) {
  const int n = service.num_candidates();
  priors_.assign(static_cast<size_t>(n), 0.0);
  const double base = service.BaseWorkloadCost();
  if (base <= 0.0) return;

  // cost(W, {I}) accumulators, initialized to c(W, {}) (Algorithm 4 line 2).
  std::vector<double> cost_w(static_cast<size_t>(n), base);

  // Per-query evaluation queues: candidate positions of I_{q}, largest
  // tables first (the paper's IndexSelection heuristic).
  const Database& db = *ctx_.workload->database;
  const int m = service.num_queries();
  std::vector<std::vector<int>> queues(static_cast<size_t>(m));
  int64_t total_pairs = 0;
  for (int q = 0; q < m; ++q) {
    queues[static_cast<size_t>(q)] =
        ctx_.candidates->per_query[static_cast<size_t>(q)];
    std::sort(queues[static_cast<size_t>(q)].begin(),
              queues[static_cast<size_t>(q)].end(), [&](int a, int b) {
                const Index& ia =
                    ctx_.candidates->indexes[static_cast<size_t>(a)];
                double ra = db.table(ia.table_id).row_count();
                const Index& ib =
                    ctx_.candidates->indexes[static_cast<size_t>(b)];
                double rb = db.table(ib.table_id).row_count();
                if (ra != rb) return ra > rb;
                return a < b;
              });
    total_pairs += static_cast<int64_t>(queues[static_cast<size_t>(q)].size());
  }

  // B' = min(B/2, P) (Section 6.1.2). The whole prior phase is one round.
  service.BeginRound("mcts.prior");
  int64_t prior_budget = std::min(service.budget() / 2, total_pairs);

  // Round-robin query selection over queries with work left.
  std::vector<size_t> cursor(static_cast<size_t>(m), 0);
  int q = 0;
  for (int64_t b = 0; b < prior_budget && service.HasBudget();) {
    // Advance round-robin to the next query with unevaluated candidates.
    int scanned = 0;
    while (scanned < m &&
           cursor[static_cast<size_t>(q)] >=
               queues[static_cast<size_t>(q)].size()) {
      q = (q + 1) % m;
      ++scanned;
    }
    if (scanned >= m) break;  // all pairs evaluated
    int pos = queues[static_cast<size_t>(q)][cursor[static_cast<size_t>(q)]++];
    Config singleton = service.EmptyConfig();
    singleton.set(static_cast<size_t>(pos));
    auto c = service.WhatIfCost(q, singleton);
    if (!c.has_value()) break;
    cost_w[static_cast<size_t>(pos)] -= service.BaseCost(q) - *c;
    ++b;
    q = (q + 1) % m;
  }

  // Which candidates received at least one singleton evaluation.
  std::vector<bool> evaluated(static_cast<size_t>(n), false);
  for (const LayoutEntry& e : service.layout()) {
    if (e.config.count() == 1) {
      evaluated[e.config.ToIndices().front()] = true;
    }
  }

  for (int pos = 0; pos < n; ++pos) {
    double eta = 1.0 - cost_w[static_cast<size_t>(pos)] / base;
    priors_[static_cast<size_t>(pos)] = std::max(0.0, eta);
  }

  // Featurized-prior generalization: predict priors for never-evaluated
  // candidates from a ridge model fitted on the evaluated ones.
  if (options_.featurized_priors) {
    std::vector<std::vector<double>> xs;
    std::vector<double> ys;
    for (int pos = 0; pos < n; ++pos) {
      if (!evaluated[static_cast<size_t>(pos)]) continue;
      xs.push_back(IndexFeatures(ctx_, pos));
      ys.push_back(priors_[static_cast<size_t>(pos)]);
    }
    if (xs.size() >= static_cast<size_t>(kIndexFeatureCount)) {
      std::vector<double> theta = RidgeFit(xs, ys, kPriorRidgeLambda);
      for (int pos = 0; pos < n; ++pos) {
        if (evaluated[static_cast<size_t>(pos)]) continue;
        double predicted = DotProduct(theta, IndexFeatures(ctx_, pos));
        priors_[static_cast<size_t>(pos)] =
            std::min(1.0, std::max(0.0, predicted));
      }
    }
  }
}

int MctsTuner::SelectAction(const Node& node) {
  // Every feasible action's statistics in ascending position order: the
  // stored edge, or the initial statistics of an absent one.
  EnumerateActions(node);
  BATI_CHECK(!actions_.empty());
  stats_.clear();
  auto edge = node.edges.begin();
  for (int pos : actions_) {
    while (edge != node.edges.end() && edge->pos < pos) ++edge;
    const bool stored = edge != node.edges.end() && edge->pos == pos;
    stats_.push_back(stored ? *edge : NewEdge(pos));
  }
  const size_t k = stats_.size();
  if (options_.action_policy == MctsOptions::ActionPolicy::kUct) {
    // Unvisited actions have infinite UCB score; break ties randomly.
    unvisited_.clear();
    for (size_t i = 0; i < k; ++i) {
      if (stats_[i].visits == 0) unvisited_.push_back(i);
    }
    if (!unvisited_.empty()) {
      return actions_[unvisited_[static_cast<size_t>(rng_.UniformInt(
          0, static_cast<int64_t>(unvisited_.size()) - 1))]];
    }
    double log_n = std::log(std::max(1, node.visits));
    size_t best = 0;
    double best_score = -std::numeric_limits<double>::infinity();
    for (size_t i = 0; i < k; ++i) {
      const Edge& e = stats_[i];
      const double bonus = kUctLambda * std::sqrt(log_n / e.visits);
      double score = e.value + bonus;
      if (score > best_score) {
        best_score = score;
        best = i;
      }
    }
    return actions_[best];
  }
  // Effective action values, optionally blended with RAVE estimates:
  // (1 - beta) * Q-hat + beta * Q-rave with beta = sqrt(k / (3n + k)).
  values_.resize(k);
  for (size_t i = 0; i < k; ++i) values_[i] = stats_[i].value;
  if (options_.use_rave) {
    for (size_t i = 0; i < k; ++i) {
      const Edge& e = stats_[i];
      double n = e.visits;
      double beta = std::sqrt(kRaveK / (3.0 * n + kRaveK));
      double rave = e.rave_visits > 0 ? e.rave_value : values_[i];
      values_[i] = (1.0 - beta) * values_[i] + beta * rave;
    }
  }
  if (options_.action_policy == MctsOptions::ActionPolicy::kBoltzmann) {
    // Softmax with temperature tau; subtract the max for numerical safety.
    double max_v = *std::max_element(values_.begin(), values_.end());
    for (double& v : values_) {
      v = std::exp((v - max_v) / kBoltzmannTemperature);
    }
  }
  // Proportional epsilon-greedy (Equation 6): Pr(a) proportional to Q-hat;
  // Boltzmann: proportional to the softmax weights.
  return actions_[rng_.WeightedIndex(values_)];
}

Config MctsTuner::Rollout(const Node& node) {
  const int k_max = ctx_.constraints.max_indexes;
  const int depth = static_cast<int>(node.config.count());
  const int slack = std::max(0, k_max - depth);
  int steps;
  if (options_.rollout_policy == MctsOptions::RolloutPolicy::kRandomStep) {
    steps = static_cast<int>(rng_.UniformInt(0, slack));
  } else {
    steps = std::min(options_.fixed_rollout_step, slack);
  }
  Config result = node.config;
  if (steps == 0) return result;

  // The pool is the node's feasible actions; each pick must still fit next
  // to the indexes the rollout already added.
  EnumerateActions(node);
  values_.clear();
  bool weighted =
      options_.action_policy != MctsOptions::ActionPolicy::kUct &&
      !priors_.empty();
  for (int pos : actions_) {
    values_.push_back(weighted ? priors_[static_cast<size_t>(pos)] : 1.0);
  }
  double bytes = node.bytes;
  for (int s = 0; s < steps && !actions_.empty(); ++s) {
    size_t pick = rng_.WeightedIndex(values_);
    int pos = actions_[pick];
    actions_.erase(actions_.begin() + static_cast<ptrdiff_t>(pick));
    values_.erase(values_.begin() + static_cast<ptrdiff_t>(pick));
    if (!FitsStorage(ctx_, bytes, pos)) continue;
    result.set(static_cast<size_t>(pos));
    bytes = StorageBytes(ctx_, result);
  }
  return result;
}

bool MctsTuner::RunEpisode(CostService& service) {
  // ---- Selection / expansion / simulation (SampleConfiguration). ----
  struct PathStep {
    Node* node;
    int action;  // candidate position; -1 at the final node
  };
  std::vector<PathStep> path;
  Node* node = GetOrCreateNode(service.EmptyConfig());
  Config sampled(0);
  while (true) {
    bool terminal =
        static_cast<int>(node->config.count()) >=
            ctx_.constraints.max_indexes ||
        !HasAction(*node);
    if (terminal) {
      path.push_back(PathStep{node, -1});
      sampled = node->config;
      break;
    }
    if (node->visits == 0) {
      // Unvisited leaf: simulate.
      path.push_back(PathStep{node, -1});
      sampled = Rollout(*node);
      break;
    }
    int a = SelectAction(*node);
    path.push_back(PathStep{node, a});
    // Expansion on first touch.
    node = GetOrCreateNode(node->config.With(static_cast<size_t>(a)));
  }

  // ---- EvaluateCostWithBudget: one what-if call on a query sampled with
  // probability proportional to its derived cost. Queries whose cost for
  // this configuration is already cached carry weight zero — re-evaluating
  // them would spend the episode without learning anything new. ----
  const int m = service.num_queries();
  // All m Equation-1 lookups in one engine call, the hot path of the
  // search phase: a walk over the sampled configuration's subsets in the
  // derived-cost index's config table.
  derived_.resize(static_cast<size_t>(m));
  known_.resize(static_cast<size_t>(m));
  service.DerivedCosts(sampled, derived_, known_);
  weights_.assign(static_cast<size_t>(m), 0.0);
  double cost = 0.0;
  bool any_unknown = false;
  for (size_t q = 0; q < static_cast<size_t>(m); ++q) {
    cost += derived_[q];
    if (known_[q] == 0) {
      weights_[q] = derived_[q];
      any_unknown = true;
    }
  }
  if (!sampled.empty() && any_unknown) {
    const int q_sel = static_cast<int>(rng_.WeightedIndex(weights_));
    auto what_if = service.WhatIfCost(q_sel, sampled);
    if (!what_if.has_value()) return false;  // budget exhausted
    cost += *what_if - derived_[static_cast<size_t>(q_sel)];
  }
  double base = service.BaseWorkloadCost();
  double reward = base > 0.0 ? std::max(0.0, 1.0 - cost / base) : 0.0;

  // ---- Update: back the reward up the path. ----
  const std::vector<size_t> rave_members =
      options_.use_rave ? sampled.ToIndices() : std::vector<size_t>();
  for (PathStep& step : path) {
    Node& node_ref = *step.node;
    node_ref.visits += 1;
    if (step.action >= 0) {
      Edge& edge = EdgeFor(node_ref, step.action);
      int n = ++edge.visits;
      double& q_hat = edge.value;
      if (n == 1 &&
          options_.action_policy != MctsOptions::ActionPolicy::kUct) {
        // First real observation replaces the prior.
        q_hat = reward;
      } else {
        q_hat += (reward - q_hat) / n;
      }
    }
    // All-moves-as-first: every feasible action whose index ended up in
    // the sampled configuration gets a RAVE update at every node on the
    // path.
    for (size_t pos : rave_members) {
      if (!Feasible(node_ref, static_cast<int>(pos))) continue;
      Edge& edge = EdgeFor(node_ref, static_cast<int>(pos));
      int rn = ++edge.rave_visits;
      edge.rave_value += (reward - edge.rave_value) / rn;
    }
  }

  // ---- Track the best configuration explored (for BCE and the trace). ----
  double improvement = reward * 100.0;
  if (improvement > best_explored_improvement_) {
    best_explored_improvement_ = improvement;
    best_explored_ = sampled;
  }
  trace_.push_back(best_explored_improvement_);
  return true;
}

TuningResult MctsTuner::Tune(CostService& service) {
  nodes_.clear();
  trace_.clear();
  best_explored_ = service.EmptyConfig();
  best_explored_improvement_ = -1.0;

  if (options_.action_policy != MctsOptions::ActionPolicy::kUct) {
    ComputePriors(service);
  }
  GetOrCreateNode(service.EmptyConfig());
  // Episodes that only touch cached cells spend no budget; in tiny search
  // spaces everything eventually is cached, so bound the free-episode streak
  // to guarantee termination.
  int free_episodes = 0;
  while (service.HasBudget() && free_episodes < 1000) {
    service.BeginRound("mcts.episode");  // one episode = one round
    int64_t calls_before = service.calls_made();
    if (!RunEpisode(service)) break;
    if (service.calls_made() == calls_before) {
      ++free_episodes;
    } else {
      free_episodes = 0;
    }
  }

  Config best = service.EmptyConfig();
  if (options_.extraction == MctsOptions::Extraction::kBce) {
    best = best_explored_;
  } else {
    // Best-Greedy: re-run Algorithm 1 over the cached costs only (derived
    // costs; no budget is spent).
    std::vector<int> all_queries(static_cast<size_t>(service.num_queries()));
    std::iota(all_queries.begin(), all_queries.end(), 0);
    std::vector<int> all_candidates(
        static_cast<size_t>(service.num_candidates()));
    std::iota(all_candidates.begin(), all_candidates.end(), 0);
    best = GreedyEnumerate(ctx_, service, all_queries, all_candidates,
                           service.EmptyConfig(), DenyAllWhatIf());
    if (options_.extraction == MctsOptions::Extraction::kHybrid &&
        service.DerivedImprovement(best_explored_) >
            service.DerivedImprovement(best)) {
      best = best_explored_;
    }
  }

  TuningResult result;
  result.algorithm = name();
  result.best_config = best;
  result.derived_improvement = service.DerivedImprovement(best);
  result.what_if_calls = service.calls_made();
  // The trace always ends at the returned recommendation's improvement (BG
  // extraction can differ from the best explored configuration).
  if (trace_.empty() || trace_.back() != result.derived_improvement) {
    trace_.push_back(result.derived_improvement);
  }
  return result;
}

}  // namespace bati
