// One simulated device executing its share of a federated round.

#pragma once

#include <span>

#include "data/dataset.h"
#include "nn/module.h"
#include "optim/solver.h"
#include "sim/systems.h"

namespace fed {

// The per-round hyper-parameters the server sends every selected device.
// One struct shared by TrainerConfig (which derives it per round, with
// the effective mu), the ModelBroadcast that carries it over the wire
// (comm/message.h), and the local solve that consumes it.
struct RoundConfig {
  double mu = 0.0;
  std::size_t batch_size = 10;
  double learning_rate = 0.01;
  // When true, the client evaluates gamma-inexactness of its solution
  // (an extra pair of full-batch gradient evaluations).
  bool measure_gamma = false;
};

struct ClientResult {
  std::size_t device = 0;
  Vector update;               // w_k^{t+1}
  std::size_t num_samples = 0;  // n_k
  bool straggler = false;
  std::size_t iterations = 0;
  double gamma = 0.0;          // valid iff gamma_measured
  bool gamma_measured = false;
  // Wall time of the local solve, measured on the worker that ran it
  // (feeds the RoundTrace solve-time distribution; not deterministic).
  double solve_seconds = 0.0;
};

// Runs the device's local solve starting from `w_global` with the given
// budget. `correction` is the FedDane linear term (empty otherwise).
// `minibatch_rng` must be the (seed, round, device)-keyed stream.
ClientResult run_client(const Model& model, const ClientData& data,
                        std::span<const double> w_global,
                        const LocalSolver& solver, const DeviceBudget& budget,
                        const RoundConfig& config,
                        std::span<const double> correction,
                        Rng& minibatch_rng);

}  // namespace fed
