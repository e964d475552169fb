#include "comm/client_runtime.h"

#include <stdexcept>

#include "obs/trace_context.h"
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
  // The update carries the broadcast's trace context back, re-parented
  // under a device-side span id derived from it, so an update still
  // correlates with its server round once this runtime moves to another
  // process.
  ClientUpdate update;
  update.round = broadcast.round;
  update.trace = broadcast.trace;
  update.trace.span_id = derive_trace_span(
      broadcast.trace.trace_id, TraceSpanKind::kClientSolve, device);
  update.result =
      run_client(model_, data_.clients[device], broadcast.parameters, solver_,
                 broadcast.budget, broadcast.config, broadcast.correction,
                 minibatch_rng);
  return update;
}

}  // namespace fed
