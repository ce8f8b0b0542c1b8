#ifndef BATI_MCTS_MCTS_TUNER_H_
#define BATI_MCTS_MCTS_TUNER_H_

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/rng.h"
#include "tuner/greedy.h"
#include "tuner/tuner.h"

namespace bati {

/// Policy knobs of the MCTS tuner (paper Section 6). The paper's recommended
/// setting — epsilon-greedy-with-priors action selection, myopic (step-0)
/// rollout, Best-Greedy extraction — is the default.
struct MctsOptions {
  /// Action selection (Section 6.1): UCT (Equation 5), the proportional
  /// epsilon-greedy variant (Equation 6) bootstrapped with singleton priors
  /// computed by Algorithm 4, or Boltzmann exploration (the softmax variant
  /// the paper discusses as an alternative, with temperature tau).
  enum class ActionPolicy { kUct, kEpsGreedyPrior, kBoltzmann };

  /// Rollout (Section 6.2): look-ahead step size drawn uniformly from
  /// {0..K-d} (standard) or fixed ("myopic" when small).
  enum class RolloutPolicy { kRandomStep, kFixedStep };

  /// Extraction of the final configuration (Section 6.3): best configuration
  /// explored (BCE), a greedy traversal with derived costs (BG), or the
  /// better of the two (the hybrid the paper's appendix suggests to avoid
  /// BG occasionally discarding good rollout discoveries).
  enum class Extraction { kBce, kBestGreedy, kHybrid };

  ActionPolicy action_policy = ActionPolicy::kEpsGreedyPrior;
  RolloutPolicy rollout_policy = RolloutPolicy::kFixedStep;
  /// Step size for kFixedStep; 0 = evaluate the tree state itself (the
  /// paper's best-performing "myopic" rollout).
  int fixed_rollout_step = 0;
  Extraction extraction = Extraction::kBestGreedy;
  /// Featurized-prior generalization (the paper's Section 7.2.1 pointer:
  /// "appropriate featurization could help identify promising index
  /// configurations more quickly"): after Algorithm 4, fit a ridge model of
  /// observed singleton improvements over static index features and predict
  /// priors for the candidates the budget never reached, instead of leaving
  /// them at zero.
  bool featurized_priors = false;

  /// Rapid Action Value Estimation (Gelly & Silver), the update-policy
  /// refinement the paper's related-work section points to: blend each
  /// action's Q-hat with an all-moves-as-first estimate while visit counts
  /// are low.
  bool use_rave = false;
  /// RNG seed; the paper runs five seeds and reports mean and stddev.
  uint64_t seed = 1;
};

/// Budget-aware index tuning with Monte Carlo tree search (paper Algorithm 3).
/// Each episode descends the search tree over configurations, samples a
/// configuration, spends exactly one what-if call to evaluate it
/// (EvaluateCostWithBudget), and backs the percentage-improvement reward up
/// the path. Priors for the epsilon-greedy policy consume up to half the
/// budget (Algorithm 4) before search starts.
class MctsTuner : public Tuner {
 public:
  MctsTuner(TuningContext ctx, MctsOptions options = MctsOptions());

  TuningResult Tune(CostService& service) override;
  std::string name() const override;

  /// Best-improvement-so-far after each episode (by the episode's evaluated
  /// derived cost); index i = value after budget unit i of the search phase.
  /// Populated by the last Tune() call.
  const std::vector<double>& improvement_trace() const { return trace_; }

  const std::vector<double>* progress_trace() const override {
    return &trace_;
  }

 private:
  /// Statistics of one action (edge) of a node.
  struct Edge {
    int pos = 0;
    int visits = 0;
    double value = 0.0;  // Q-hat(s, a): mean reward in [0, 1]
    /// All-moves-as-first statistics (updated only when use_rave is set).
    int rave_visits = 0;
    double rave_value = 0.0;
  };

  /// A search-tree node. Its feasible actions are the candidate positions
  /// not in `config` that fit the storage constraint; only the edges that
  /// gained statistics are stored. An absent edge is NewEdge(pos).
  struct Node {
    Config config;
    int visits = 0;
    /// StorageBytes(config).
    double bytes = 0.0;
    /// Ascending position.
    std::vector<Edge> edges;
  };

  Node* GetOrCreateNode(const Config& config);
  /// An edge before any observation: Q-hat (and the RAVE value) start at
  /// the singleton prior for epsilon-greedy and Boltzmann, at zero under UCT
  /// (which relies on its exploration bonus).
  Edge NewEdge(int pos) const;
  /// The stored edge of `pos`, inserted as NewEdge(pos) when absent.
  Edge& EdgeFor(Node& node, int pos) const;
  bool Feasible(const Node& node, int pos) const;
  /// False when no action fits: the node is terminal.
  bool HasAction(const Node& node) const;
  /// Fills actions_ with the feasible actions of `node`, ascending.
  void EnumerateActions(const Node& node);
  /// Algorithm 4: singleton priors eta(W, {a}) as fractions in [0, 1].
  void ComputePriors(CostService& service);
  /// The position of the action to descend along.
  int SelectAction(const Node& node);
  Config Rollout(const Node& node);
  /// One episode: returns false when the budget ran out before evaluation.
  bool RunEpisode(CostService& service);

  TuningContext ctx_;
  MctsOptions options_;
  Rng rng_;
  std::unordered_map<Config, std::unique_ptr<Node>, DynamicBitsetHash> nodes_;
  std::vector<double> priors_;
  Config best_explored_;
  double best_explored_improvement_ = -1.0;
  std::vector<double> trace_;
  /// Per-episode scratch, reused across episodes. Per feasible action:
  /// the positions, their statistics, the unvisited ones (UCT), and the
  /// selection values or rollout weights. Per query: the derived costs,
  /// the known flags and the query-selection weights.
  std::vector<int> actions_;
  std::vector<Edge> stats_;
  std::vector<size_t> unvisited_;
  std::vector<double> values_;
  std::vector<double> derived_;
  std::vector<uint8_t> known_;
  std::vector<double> weights_;
};

}  // namespace bati

#endif  // BATI_MCTS_MCTS_TUNER_H_
