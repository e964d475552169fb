#include "comm/client_runtime.h"

#include <stdexcept>

#include "sim/client.h"

namespace fed {

ClientRuntime::ClientRuntime(const Model& model, const FederatedDataset& data,
                             const LocalSolver& solver, std::uint64_t seed)
    : model_(model), data_(data), solver_(solver), seed_(seed) {}

ClientUpdate ClientRuntime::handle(const ModelBroadcast& broadcast) const {
  const std::size_t device = broadcast.budget.device;
  if (broadcast.round == 0 || device >= data_.num_clients()) {
    throw std::invalid_argument("ClientRuntime: malformed broadcast");
  }
  // Training round t+1 carries the (seed, t, device) mini-batch stream —
  // the same keying the monolithic trainer used, so histories stay
  // bit-identical across the refactor.
  Rng minibatch_rng = make_stream(seed_, StreamKind::kMinibatch,
                                  broadcast.round - 1, device + 1);
  return ClientUpdate{
      .round = broadcast.round,
      .result = run_client(model_, data_.clients[device], broadcast.parameters,
                           solver_, broadcast.budget, broadcast.config,
                           broadcast.correction, minibatch_rng)};
}

}  // namespace fed
