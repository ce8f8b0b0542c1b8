#ifndef BATI_DQN_NETWORK_H_
#define BATI_DQN_NETWORK_H_

#include <vector>

#include "common/rng.h"
#include "dqn/matrix.h"

namespace bati {

/// A fully-connected feed-forward network with ReLU hidden activations and a
/// linear output, trained with Adam on squared error. This is the function
/// approximator for the No-DBA baseline's Q-network (the paper's adaptation
/// uses three fully connected layers of 96 neurons each with relu).
class Mlp {
 public:
  /// `layer_sizes` = {input, hidden..., output}.
  Mlp(const std::vector<size_t>& layer_sizes, Rng& rng);

  /// Forward pass for a batch ([batch x input]); returns [batch x output].
  Matrix Forward(const Matrix& input) const;

  /// One Adam step on 1/2 * ||masked (Forward(input) - target)||^2. Only
  /// output units with mask != 0 contribute gradient (Q-learning updates the
  /// taken action only). Returns the mean squared error over masked units.
  double TrainStep(const Matrix& input, const Matrix& target,
                   const Matrix& mask, double learning_rate);

  /// Copies the weights of `other` into this network (target-network sync).
  void CopyFrom(const Mlp& other);

 private:
  struct AdamState {
    Matrix m_w, v_w;
    std::vector<double> m_b, v_b;
  };

  std::vector<Matrix> weights_;             // [in x out] per layer
  std::vector<std::vector<double>> biases_;  // per layer
  std::vector<AdamState> adam_;
  int64_t adam_t_ = 0;
};

}  // namespace bati

#endif  // BATI_DQN_NETWORK_H_
