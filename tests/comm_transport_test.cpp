// The communication layer: transports are lossless (TrainHistory is
// bit-identical whether payloads stay in-process or round-trip through
// the wire format), byte accounting matches the exact wire sizes, and
// the ClientRuntime reproduces the monolithic trainer's solve exactly.

#include "comm/transport.h"

#include <gtest/gtest.h>

#include <memory>

#include "bench_common.h"
#include "comm/client_runtime.h"
#include "core/trainer.h"
#include "data/synthetic.h"
#include "nn/logistic.h"
#include "obs/trace_sink.h"
#include "optim/sgd.h"
#include "support/log.h"
#include "support/serialize.h"

namespace fed {
namespace {

class CommTransportTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() { set_log_level(LogLevel::kWarn); }

  static const FederatedDataset& data() {
    static const FederatedDataset d = [] {
      SyntheticConfig c = synthetic_config(1.0, 1.0, 31);
      c.num_devices = 10;
      c.min_samples = 12;
      c.mean_log = 2.5;
      c.sigma_log = 0.4;
      return make_synthetic(c);
    }();
    return d;
  }

  static TrainerConfig base_config(Algorithm algorithm) {
    TrainerConfig c;
    c.algorithm = algorithm;
    c.mu = algorithm == Algorithm::kFedAvg ? 0.0 : 1.0;
    c.rounds = 4;
    c.devices_per_round = 5;
    c.systems.epochs = 2;
    c.systems.straggler_fraction = 0.4;
    c.learning_rate = 0.05;
    c.seed = 31;
    return c;
  }

  static TrainHistory run(TrainerConfig config, TransportKind kind,
                          TraceCollector* collector = nullptr) {
    LogisticRegression model(data().input_dim, data().num_classes);
    config.transport = make_transport(kind);
    Trainer trainer(model, data(), config);
    if (collector) trainer.add_observer(*collector);
    return trainer.run();
  }
};

TEST_F(CommTransportTest, HistoriesAreBitIdenticalAcrossTransports) {
  // The serialized transport round-trips every payload through the wire
  // format; doubles survive bit-exactly, so training is unchanged.
  for (const Algorithm algorithm :
       {Algorithm::kFedAvg, Algorithm::kFedProx, Algorithm::kFedDane}) {
    const TrainerConfig c = base_config(algorithm);
    EXPECT_EQ(bench::history_divergence(run(c, TransportKind::kInProcess),
                                        run(c, TransportKind::kSerialized)),
              "");
  }
}

TEST_F(CommTransportTest, BothTransportsReportExactWireBytes) {
  const std::size_t d = data().input_dim * data().num_classes +
                        data().num_classes;  // logistic parameter count
  for (const TransportKind kind :
       {TransportKind::kInProcess, TransportKind::kSerialized}) {
    TraceCollector collector;
    // FedAvg with stragglers: dropped devices are selected (charged a
    // broadcast) but never report back (no upload bytes).
    run(base_config(Algorithm::kFedAvg), kind, &collector);
    for (std::size_t i = 1; i < collector.traces().size(); ++i) {
      const RoundTrace& t = collector.traces()[i];
      EXPECT_EQ(t.bytes_down, t.selected * broadcast_wire_size(d, 0));
      EXPECT_EQ(t.bytes_up, t.contributors * update_wire_size(d));
    }
  }
}

TEST_F(CommTransportTest, FedDaneBroadcastsChargeTheCorrectionPayload) {
  const std::size_t d = data().input_dim * data().num_classes +
                        data().num_classes;
  TraceCollector collector;
  run(base_config(Algorithm::kFedDane), TransportKind::kSerialized,
      &collector);
  for (std::size_t i = 1; i < collector.traces().size(); ++i) {
    const RoundTrace& t = collector.traces()[i];
    EXPECT_EQ(t.bytes_down, t.selected * broadcast_wire_size(d, d));
  }
}

TEST_F(CommTransportTest, ExchangeMatchesDirectClientSolve) {
  LogisticRegression model(data().input_dim, data().num_classes);
  const std::uint64_t seed = 31;
  Vector w(model.parameter_count());
  Rng init = make_stream(seed, StreamKind::kModelInit);
  model.init_parameters(w, init);

  SgdSolver solver;
  ClientRuntime runtime(model, data(), solver, seed);

  const std::size_t t = 2, device = 3;
  OwnedBroadcast b;
  b.round = t + 1;
  b.config = RoundConfig{.mu = 0.5, .batch_size = 10, .learning_rate = 0.05};
  b.budget = DeviceBudget{.device = device, .epochs = 2, .iterations = 8};
  b.parameters = w;

  // What the monolithic trainer used to do inline.
  Rng minibatch = make_stream(seed, StreamKind::kMinibatch, t, device + 1);
  const ClientResult expected =
      run_client(model, data().clients[device], w, solver, b.budget,
                 b.config, {}, minibatch);

  for (const TransportKind kind :
       {TransportKind::kInProcess, TransportKind::kSerialized}) {
    const ExchangeRecord record =
        make_transport(kind)->exchange(b.view(), runtime);
    EXPECT_EQ(record.update.round, b.round);
    EXPECT_EQ(record.result().device, expected.device);
    EXPECT_EQ(record.result().update, expected.update);  // bit-exact
    EXPECT_EQ(record.result().num_samples, expected.num_samples);
    EXPECT_EQ(record.result().iterations, expected.iterations);
    EXPECT_EQ(record.bytes_down, broadcast_wire_size(b.view()));
    EXPECT_EQ(record.bytes_up, update_wire_size(expected.update.size()));
  }
}

TEST_F(CommTransportTest, ClientRuntimeValidatesTheBroadcast) {
  LogisticRegression model(data().input_dim, data().num_classes);
  SgdSolver solver;
  ClientRuntime runtime(model, data(), solver, 31);

  OwnedBroadcast b;
  b.config = RoundConfig{};
  b.parameters = Vector(model.parameter_count());

  b.round = 0;  // rounds are 1-based on the wire
  b.budget.device = 0;
  EXPECT_THROW(runtime.handle(b.view()), std::invalid_argument);

  b.round = 1;
  b.budget.device = data().num_clients();  // out of range
  EXPECT_THROW(runtime.handle(b.view()), std::invalid_argument);
}

TEST_F(CommTransportTest, ZeroFaultWrapperIsBitIdenticalPassThrough) {
  // A FaultInjectingTransport with an all-zero profile must be invisible:
  // wrapping either inner transport leaves TrainHistory bit-identical,
  // so turning the fault layer "on but quiet" can never perturb results.
  for (const TransportKind kind :
       {TransportKind::kInProcess, TransportKind::kSerialized}) {
    const TrainerConfig c = base_config(Algorithm::kFedProx);
    const TrainHistory bare = run(c, kind);

    TrainerConfig wrapped = c;
    wrapped.transport = std::make_shared<FaultInjectingTransport>(
        make_transport(kind), FaultProfile{}, c.seed);
    LogisticRegression model(data().input_dim, data().num_classes);
    const TrainHistory faulty = Trainer(model, data(), wrapped).run();
    EXPECT_EQ(bench::history_divergence(bare, faulty), "");
  }
}

TEST_F(CommTransportTest, FaultWrapperNamesItsInner) {
  const auto wrapped = std::make_shared<FaultInjectingTransport>(
      make_transport(TransportKind::kSerialized), FaultProfile{}, 7);
  EXPECT_EQ(wrapped->name(), "faulty(serialized)");
  EXPECT_THROW(FaultInjectingTransport(nullptr, FaultProfile{}, 7),
               std::invalid_argument);
  // The profile's ranges are the config's (ConfigTest walks them).
}

TEST_F(CommTransportTest, KindParsesAndPrints) {
  EXPECT_EQ(parse_transport_kind("inprocess"), TransportKind::kInProcess);
  EXPECT_EQ(parse_transport_kind("serialized"), TransportKind::kSerialized);
  EXPECT_THROW(parse_transport_kind("carrier-pigeon"), std::invalid_argument);
  EXPECT_EQ(to_string(TransportKind::kInProcess), "inprocess");
  EXPECT_EQ(to_string(TransportKind::kSerialized), "serialized");
  EXPECT_EQ(make_transport(TransportKind::kInProcess)->name(), "inprocess");
  EXPECT_EQ(make_transport(TransportKind::kSerialized)->name(), "serialized");
}

}  // namespace
}  // namespace fed
