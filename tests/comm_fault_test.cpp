// The fault-injection and recovery layer: profile parsing, deterministic
// chaos (same seed + profile => bit-identical training, regardless of
// thread count), recovery accounting invariants on every trace, quorum
// and deadline semantics, and the degraded-round path that keeps w when
// a round loses every device. The chaos soak here is the repo's standing
// robustness gate: a hostile channel at high fault rates must still
// train, and must do so reproducibly.

#include "comm/fault.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "bench_common.h"
#include "comm/client_runtime.h"
#include "comm/transport.h"
#include "core/trainer.h"
#include "data/synthetic.h"
#include "nn/logistic.h"
#include "obs/health.h"
#include "obs/metrics.h"
#include "obs/observer.h"
#include "optim/sgd.h"
#include "support/log.h"
#include "test_util.h"

namespace fed {
namespace {

class CommFaultTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() { set_log_level(LogLevel::kWarn); }

  static const FederatedDataset& data() {
    static const FederatedDataset d = [] {
      SyntheticConfig c = synthetic_config(1.0, 1.0, 47);
      c.num_devices = 10;
      c.min_samples = 12;
      c.mean_log = 2.5;
      c.sigma_log = 0.4;
      return make_synthetic(c);
    }();
    return d;
  }

  static TrainerConfig chaos_config() {
    TrainerConfig c;
    c.algorithm = Algorithm::kFedProx;
    c.mu = 1.0;
    c.rounds = 40;
    c.devices_per_round = 5;
    c.systems.epochs = 2;
    c.systems.straggler_fraction = 0.3;
    c.learning_rate = 0.05;
    c.seed = 47;
    c.eval_every = 5;
    c.threads = 1;
    c.faults = FaultProfile{.drop = 0.2,
                            .corrupt = 0.05,
                            .duplicate = 0.05,
                            .delay_ms = 50.0};
    c.recovery.max_retries = 2;
    c.recovery.deadline_ms = 45.0;
    c.recovery.quorum = 0.6;
    return c;
  }

  struct RunArtifacts {
    TrainHistory history;
    std::vector<RoundTrace> traces;
    std::map<FaultEvent::Kind, std::size_t> events;
    std::vector<FaultEvent> event_log;  // in fan-out order
    std::vector<HealthIncident> incidents;
  };

  // Runs `config` on logistic regression, started from `init` in every
  // coordinate when given (else the model's own zero init).
  static RunArtifacts run(TrainerConfig config,
                          MetricsRegistry* registry = nullptr,
                          std::optional<double> init = std::nullopt) {
    LogisticRegression logistic(data().input_dim, data().num_classes);
    testing::ConstantInitModel constant(logistic, init.value_or(0.0));
    const Model& model = init ? static_cast<const Model&>(constant) : logistic;
    Trainer trainer(model, data(), config);
    TraceCollector traces;
    testing::FaultEventCollector events;
    HealthMonitor health(HealthConfig{}, registry);
    std::unique_ptr<MetricsObserver> metrics;
    trainer.add_observer(traces);
    trainer.add_observer(events);
    trainer.add_observer(health);
    if (registry) {
      metrics = std::make_unique<MetricsObserver>(*registry);
      trainer.add_observer(*metrics);
    }
    RunArtifacts out;
    out.history = trainer.run();
    out.traces = traces.traces();
    out.events = events.counts;
    out.event_log = events.events;
    out.incidents = health.incidents();
    return out;
  }

  // The recovery-accounting invariants every round trace must satisfy
  // (the same set tools/trace_lint enforces on JSONL artifacts).
  static void check_trace_invariants(const RoundTrace& t) {
    EXPECT_EQ(check_round_trace(t), "") << "round " << t.round;
  }
};

TEST_F(CommFaultTest, ProfileParsesValidatesAndPrints) {
  const FaultProfile p =
      parse_fault_profile("drop=0.1,corrupt=0.01,delay_ms=50,duplicate=0.05");
  EXPECT_DOUBLE_EQ(p.drop, 0.1);
  EXPECT_DOUBLE_EQ(p.corrupt, 0.01);
  EXPECT_DOUBLE_EQ(p.duplicate, 0.05);
  EXPECT_DOUBLE_EQ(p.delay_ms, 50.0);
  EXPECT_TRUE(p.any());
  EXPECT_EQ(to_string(p), "drop=0.1,corrupt=0.01,duplicate=0.05,delay_ms=50");

  EXPECT_FALSE(parse_fault_profile("").any());
  EXPECT_EQ(to_string(FaultProfile{}), "none");

  EXPECT_THROW(parse_fault_profile("drop=1.5"), std::invalid_argument);
  EXPECT_THROW(parse_fault_profile("drop=-0.1"), std::invalid_argument);
  EXPECT_THROW(parse_fault_profile("delay_ms=-1"), std::invalid_argument);
  EXPECT_THROW(parse_fault_profile("jitter=0.5"), std::invalid_argument);
  EXPECT_THROW(parse_fault_profile("drop"), std::invalid_argument);
  EXPECT_THROW(parse_fault_profile("drop=abc"), std::invalid_argument);
  EXPECT_THROW(parse_fault_profile("drop=0.1x"), std::invalid_argument);
  // NaN fails every comparison, so a plain range check would pass it.
  for (const char* spec : {"drop=nan", "corrupt=nan", "duplicate=nan",
                           "delay_ms=nan", "delay_ms=inf"}) {
    EXPECT_THROW(parse_fault_profile(spec), std::invalid_argument) << spec;
  }
}

TEST_F(CommFaultTest, EventKindsHaveStableSlugs) {
  EXPECT_STREQ(to_string(FaultEvent::Kind::kDrop), "drop");
  EXPECT_STREQ(to_string(FaultEvent::Kind::kCorrupt), "corrupt");
  EXPECT_STREQ(to_string(FaultEvent::Kind::kTimeout), "timeout");
  EXPECT_STREQ(to_string(FaultEvent::Kind::kDuplicate), "duplicate");
  EXPECT_STREQ(to_string(FaultEvent::Kind::kDeviceFailed), "device_failed");
  EXPECT_STREQ(to_string(FaultEvent::Kind::kQuorumDrop), "quorum_drop");
  EXPECT_STREQ(to_string(FaultEvent::Kind::kRoundDegraded), "round_degraded");
}

TEST_F(CommFaultTest, RecoveryConfigIsValidatedUpFront) {
  LogisticRegression model(data().input_dim, data().num_classes);
  TrainerConfig c = chaos_config();
  c.recovery.quorum = 0.0;
  EXPECT_THROW(Trainer(model, data(), c), std::invalid_argument);
  c = chaos_config();
  c.recovery.quorum = 1.5;
  EXPECT_THROW(Trainer(model, data(), c), std::invalid_argument);
  c = chaos_config();
  c.recovery.deadline_ms = -1.0;
  EXPECT_THROW(Trainer(model, data(), c), std::invalid_argument);
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  for (const double bad : {nan, inf}) {
    c = chaos_config();
    c.recovery.quorum = bad;
    EXPECT_THROW(Trainer(model, data(), c), std::invalid_argument) << bad;
    c = chaos_config();
    c.recovery.deadline_ms = bad;
    EXPECT_THROW(Trainer(model, data(), c), std::invalid_argument) << bad;
    c = chaos_config();
    c.mu = bad;
    EXPECT_THROW(Trainer(model, data(), c), std::invalid_argument) << bad;
  }
  c = chaos_config();
  c.faults.drop = 2.0;  // caught before the run starts, like the rest
  EXPECT_THROW(Trainer(model, data(), c), std::invalid_argument);
}

// The tentpole gate: a hostile channel (20% drop, 5% corruption, 5%
// duplicates, latency against a deadline, quorum aggregation) must still
// train — loss falls, no fatal incidents — and must be bit-reproducible
// run to run and across thread counts.
TEST_F(CommFaultTest, ChaosSoakConvergesWithoutFatalIncidents) {
  MetricsRegistry registry;
  const RunArtifacts a = run(chaos_config(), &registry);

  // Converges: the last evaluated loss improves on the initial model.
  const double first_loss = *a.history.rounds.front().train_loss;
  const double last_loss = *a.history.final_metrics().train_loss;
  EXPECT_LT(last_loss, first_loss);
  EXPECT_FALSE(a.history.diverged());

  // The channel actually was hostile, and recovery actually ran.
  std::size_t drops = 0, corruptions = 0, retries = 0, contributors = 0;
  for (const RoundTrace& t : a.traces) {
    check_trace_invariants(t);
    drops += t.faults.drops;
    corruptions += t.faults.corruptions;
    retries += t.faults.retries;
    contributors += t.contributors;
  }
  EXPECT_GT(drops, 0u);
  EXPECT_GT(corruptions, 0u);
  EXPECT_GT(retries, 0u);
  EXPECT_GT(contributors, 0u);

  // Events fanned out to observers reconcile with the trace counters.
  const auto event_count = [&](FaultEvent::Kind kind) {
    const auto it = a.events.find(kind);
    return it == a.events.end() ? std::size_t{0} : it->second;
  };
  EXPECT_EQ(event_count(FaultEvent::Kind::kDrop), drops);
  EXPECT_EQ(event_count(FaultEvent::Kind::kCorrupt), corruptions);

  // No fatal incidents: the run completed, and anything the health
  // monitor recorded is a non-fatal degraded round.
  for (const HealthIncident& incident : a.incidents) {
    EXPECT_EQ(incident.kind, HealthIncident::Kind::kDegradedRound);
  }

  // Registry counters went where the ISSUE says they go.
  EXPECT_EQ(
      registry.counter("fed_comm_faults_total", {{"kind", "drop"}}).value(),
      drops);
  EXPECT_EQ(
      registry.counter("fed_comm_faults_total", {{"kind", "corrupt"}}).value(),
      corruptions);
  EXPECT_EQ(registry.counter("fed_comm_retries_total").value(), retries);

  // Bit-reproducible: an identical config replays the identical run.
  const RunArtifacts b = run(chaos_config());
  EXPECT_EQ(bench::history_divergence(a.history, b.history), "");
  EXPECT_EQ(a.events, b.events);

  // ... regardless of thread count.
  TrainerConfig threaded = chaos_config();
  threaded.threads = 4;
  const RunArtifacts c = run(threaded);
  EXPECT_EQ(bench::history_divergence(a.history, c.history), "");
  EXPECT_EQ(a.events, c.events);
}

// Satellite regression: a round that loses every device must keep w
// bit-unchanged, mark the trace degraded, and leave the metrics
// well-defined — not crash, not silently reuse stale updates.
TEST_F(CommFaultTest, AllDroppedRoundKeepsParametersAndReportsDegraded) {
  LogisticRegression model(data().input_dim, data().num_classes);
  TrainerConfig c = chaos_config();
  c.rounds = 3;
  c.eval_every = 1;
  c.faults = FaultProfile{.drop = 1.0};
  c.recovery = RecoveryConfig{.max_retries = 1};

  MetricsRegistry registry;
  const RunArtifacts a = run(c, &registry, 0.125);

  EXPECT_EQ(a.history.final_parameters,
            Vector(model.parameter_count(), 0.125));
  ASSERT_EQ(a.traces.size(), c.rounds + 1);  // + the round-0 evaluation
  for (std::size_t i = 1; i < a.traces.size(); ++i) {
    const RoundTrace& t = a.traces[i];
    check_trace_invariants(t);
    EXPECT_TRUE(t.degraded);
    EXPECT_EQ(t.contributors, 0u);
    EXPECT_EQ(t.faults.failed_devices, t.selected);
    EXPECT_EQ(t.faults.attempts, t.selected * 2);  // 1 retry each
    EXPECT_EQ(t.bytes_up, 0u);
    EXPECT_GT(t.bytes_down, 0u);  // broadcasts were still charged
  }
  for (const RoundMetrics& m : a.history.rounds) {
    EXPECT_TRUE(m.evaluated());
    EXPECT_TRUE(std::isfinite(*m.train_loss));
    EXPECT_EQ(m.contributors, 0u);
  }
  const auto degraded_events = a.events.find(FaultEvent::Kind::kRoundDegraded);
  ASSERT_NE(degraded_events, a.events.end());
  EXPECT_EQ(degraded_events->second, c.rounds);
  EXPECT_EQ(a.incidents.size(), c.rounds);  // one non-fatal incident each
  EXPECT_EQ(registry
                .counter("fed_comm_faults_total", {{"kind", "round_degraded"}})
                .value(),
            c.rounds);
}

// FedAvg with every device straggling degrades the round at aggregation
// even on a perfect channel: a degraded trace + incident, not only a log
// line.
TEST_F(CommFaultTest, FedAvgAllStragglersDegradesWithoutChannelFaults) {
  LogisticRegression model(data().input_dim, data().num_classes);
  TrainerConfig c;
  c.algorithm = Algorithm::kFedAvg;
  c.rounds = 2;
  c.devices_per_round = 5;
  c.systems.epochs = 2;
  c.systems.straggler_fraction = 1.0;
  c.learning_rate = 0.05;
  c.seed = 47;
  c.threads = 1;

  const RunArtifacts a = run(c, nullptr, -0.5);
  EXPECT_EQ(a.history.final_parameters,
            Vector(model.parameter_count(), -0.5));
  for (std::size_t i = 1; i < a.traces.size(); ++i) {
    const RoundTrace& t = a.traces[i];
    check_trace_invariants(t);
    EXPECT_TRUE(t.degraded);
    EXPECT_EQ(t.stragglers, t.selected);
    // No channel faults: every exchange delivered on the first attempt.
    EXPECT_EQ(t.faults.attempts, t.selected);
    EXPECT_EQ(t.faults.failed_devices, 0u);
    EXPECT_EQ(t.bytes_up, 0u);  // dropped stragglers never report back
  }
  EXPECT_EQ(a.incidents.size(), c.rounds);
  for (const HealthIncident& incident : a.incidents) {
    EXPECT_EQ(incident.kind, HealthIncident::Kind::kDegradedRound);
  }
}

TEST_F(CommFaultTest, QuorumCutsLateArrivalsDeterministically) {
  TrainerConfig c = chaos_config();
  c.rounds = 4;
  c.faults = FaultProfile{.delay_ms = 100.0};  // latency only, no losses
  c.recovery = RecoveryConfig{.max_retries = 0, .quorum = 0.2};

  const RunArtifacts a = run(c);
  std::size_t quorum_drops = 0;
  for (std::size_t i = 1; i < a.traces.size(); ++i) {
    const RoundTrace& t = a.traces[i];
    check_trace_invariants(t);
    // Every exchange succeeds; the quorum cut is the only update killer.
    EXPECT_EQ(t.contributors + t.faults.quorum_drops, t.selected);
    EXPECT_GE(t.contributors, 1u);  // ceil(0.2 * 5)
    quorum_drops += t.faults.quorum_drops;
  }
  EXPECT_GT(quorum_drops, 0u);
  const auto it = a.events.find(FaultEvent::Kind::kQuorumDrop);
  ASSERT_NE(it, a.events.end());
  EXPECT_EQ(it->second, quorum_drops);

  const RunArtifacts b = run(c);
  EXPECT_EQ(bench::history_divergence(a.history, b.history), "");
}

// Regression: fed_comm_faults_total is committed from the trace columns.
// A duplicated update the quorum cut later revokes fires a kDuplicate
// event but is no duplicate in the trace; counting events let the
// counter run ahead of the trace it must reconcile with.
TEST_F(CommFaultTest, FaultCountersEqualTheSummedTraceColumns) {
  TrainerConfig c = chaos_config();
  c.rounds = 20;
  c.faults = FaultProfile{.drop = 0.1, .duplicate = 0.5, .delay_ms = 50.0};
  c.recovery = RecoveryConfig{.max_retries = 2, .quorum = 0.5};
  MetricsRegistry registry;
  const RunArtifacts a = run(c, &registry);

  std::map<FaultEvent::Kind, std::size_t> summed;
  for (const RoundTrace& t : a.traces) {
    check_trace_invariants(t);
    summed[FaultEvent::Kind::kDrop] += t.faults.drops;
    summed[FaultEvent::Kind::kCorrupt] += t.faults.corruptions;
    summed[FaultEvent::Kind::kTimeout] += t.faults.timeouts;
    summed[FaultEvent::Kind::kDuplicate] += t.faults.duplicates;
    summed[FaultEvent::Kind::kDeviceFailed] += t.faults.failed_devices;
    summed[FaultEvent::Kind::kQuorumDrop] += t.faults.quorum_drops;
    summed[FaultEvent::Kind::kDepart] += t.faults.departs;
    summed[FaultEvent::Kind::kRoundDegraded] += t.degraded ? 1 : 0;
  }
  ASSERT_EQ(summed.size(), 8u);
  for (const auto& [kind, total] : summed) {
    EXPECT_EQ(registry.counter("fed_comm_faults_total",
                               {{"kind", to_string(kind)}})
                  .value(),
              total)
        << to_string(kind);
  }
  // The case under test happened: duplicates, quorum cuts, and more
  // duplicate events than surviving duplicates.
  EXPECT_GT(summed[FaultEvent::Kind::kDuplicate], 0u);
  EXPECT_GT(summed[FaultEvent::Kind::kQuorumDrop], 0u);
  const auto events = a.events.find(FaultEvent::Kind::kDuplicate);
  ASSERT_NE(events, a.events.end());
  EXPECT_GT(events->second, summed[FaultEvent::Kind::kDuplicate]);
}

TEST_F(CommFaultTest, DeadlineClassifiesLateDeliveriesAsTimeouts) {
  TrainerConfig c = chaos_config();
  c.rounds = 6;
  c.faults = FaultProfile{.delay_ms = 100.0};
  c.recovery = RecoveryConfig{.max_retries = 2, .deadline_ms = 20.0};

  const RunArtifacts a = run(c);
  std::size_t timeouts = 0;
  for (std::size_t i = 1; i < a.traces.size(); ++i) {
    check_trace_invariants(a.traces[i]);
    timeouts += a.traces[i].faults.timeouts;
    // A timed-out delivery moves no upload bytes and is not a drop or a
    // corruption.
    EXPECT_EQ(a.traces[i].faults.drops, 0u);
    EXPECT_EQ(a.traces[i].faults.corruptions, 0u);
  }
  EXPECT_GT(timeouts, 0u);
  const auto it = a.events.find(FaultEvent::Kind::kTimeout);
  ASSERT_NE(it, a.events.end());
  EXPECT_EQ(it->second, timeouts);
}

TEST_F(CommFaultTest, CorruptionIsAlwaysDetectedAndTyped) {
  // With corruption at 100% and no retries every round degrades: every
  // damaged update must be rejected via a typed event carrying the
  // decoder/checksum message — silent acceptance would train on garbage.
  TrainerConfig c = chaos_config();
  c.rounds = 3;
  c.faults = FaultProfile{.corrupt = 1.0};
  c.recovery = RecoveryConfig{.max_retries = 0};
  LogisticRegression model(data().input_dim, data().num_classes);

  for (const TransportKind kind :
       {TransportKind::kInProcess, TransportKind::kSerialized}) {
    TrainerConfig variant = c;
    variant.transport = make_transport(kind);
    const RunArtifacts a = run(variant, nullptr, 0.25);
    EXPECT_EQ(a.history.final_parameters,
              Vector(model.parameter_count(), 0.25));
    std::size_t corrupt_events = 0;
    for (const auto& [kind_seen, count] : a.events) {
      if (kind_seen == FaultEvent::Kind::kCorrupt) corrupt_events = count;
    }
    EXPECT_GT(corrupt_events, 0u);
  }
}

// A delivered update must answer its broadcast: the same round and
// device, the device's own sample count (the aggregation weight), the
// budget's straggler flag (which FedAvg's drop rule reads), and an
// update of the broadcast's dimension with every coordinate finite. One
// that does not is rejected as a typed corruption naming the field (or
// the coordinate), charged as one nominal update frame, and retried.
// Every first attempt here is tampered and every retry is honest, so the
// run trains bit-identically to the untampered one.
TEST_F(CommFaultTest, UpdateThatDoesNotAnswerItsBroadcastIsRetried) {
  TrainerConfig c = chaos_config();
  c.rounds = 4;
  c.faults = FaultProfile{};
  c.recovery = RecoveryConfig{.max_retries = 1};
  const RunArtifacts clean = run(c);

  const std::vector<std::pair<std::string, testing::TamperingTransport::Tamper>>
      cases = {
          {"update round",
           [](const ModelBroadcast&, ClientUpdate& u) { u.round += 1; }},
          {"update device",
           [](const ModelBroadcast&, ClientUpdate& u) { u.result.device += 1; }},
          {"update num_samples",
           [](const ModelBroadcast&, ClientUpdate& u) {
             u.result.num_samples *= 2;
           }},
          {"update straggler flag",
           [](const ModelBroadcast&, ClientUpdate& u) {
             u.result.straggler = !u.result.straggler;
           }},
          {"update has",
           [](const ModelBroadcast&, ClientUpdate& u) {
             u.result.update.push_back(0.0);
           }},
          {"update coordinate 1 ",
           [](const ModelBroadcast&, ClientUpdate& u) {
             u.result.update[1] = std::numeric_limits<double>::quiet_NaN();
           }},
      };
  for (const auto& [field, tamper] : cases) {
    SCOPED_TRACE(field);
    TrainerConfig variant = c;
    variant.transport = std::make_shared<testing::TamperingTransport>(
        make_transport(TransportKind::kInProcess),
        [tamper](const ModelBroadcast& b, ClientUpdate& u) {
          if (b.attempt == 0) tamper(b, u);
        });
    const RunArtifacts a = run(variant);
    EXPECT_EQ(bench::history_divergence(a.history, clean.history), "");
    std::size_t selected = 0;
    for (const RoundTrace& t : a.traces) {
      check_trace_invariants(t);
      EXPECT_EQ(t.faults.corruptions, t.selected) << "round " << t.round;
      EXPECT_EQ(t.faults.failed_devices, 0u) << "round " << t.round;
      selected += t.selected;
    }
    EXPECT_EQ(a.event_log.size(), selected);
    for (const FaultEvent& e : a.event_log) {
      EXPECT_EQ(e.kind, FaultEvent::Kind::kCorrupt);
      EXPECT_EQ(e.attempt, 0u);
      EXPECT_EQ(e.detail.rfind(field, 0), 0u) << e.detail;
    }
  }
}

// Fault outcomes do not depend on the frame size: the delay, drop and
// corrupt draws come before the one size-dependent draw (on a corrupted
// attempt, which bit to flip or where to truncate), the transport returns
// right after it, and only an uncorrupted attempt draws the duplicate.
// So an envelope change moves only the byte columns of a faulty run,
// never its history.
TEST_F(CommFaultTest, FaultOutcomesDoNotDependOnFrameSize) {
  const LogisticRegression narrow(data().input_dim, data().num_classes);
  const LogisticRegression wide(data().input_dim, data().num_classes + 3);
  SgdSolver solver;
  const ClientRuntime narrow_runtime(narrow, data(), solver, 5);
  const ClientRuntime wide_runtime(wide, data(), solver, 5);
  const FaultInjectingTransport transport(
      make_transport(TransportKind::kSerialized),
      FaultProfile{
          .drop = 0.2, .corrupt = 0.3, .duplicate = 0.3, .delay_ms = 50.0},
      5);
  const Vector w_narrow(narrow.parameter_count(), 0.5);
  const Vector w_wide(wide.parameter_count(), 0.5);
  ASSERT_NE(w_narrow.size(), w_wide.size());

  std::map<ExchangeStatus, std::size_t> seen;
  std::size_t duplicates = 0;
  for (std::size_t round = 1; round <= 6; ++round) {
    for (std::size_t device = 0; device < data().num_clients(); ++device) {
      for (std::size_t attempt = 0; attempt < 3; ++attempt) {
        ModelBroadcast b{
            .round = round,
            .config = RoundConfig{.batch_size = 10, .learning_rate = 0.05},
            .budget = DeviceBudget{.device = device, .epochs = 1,
                                   .iterations = 2},
            .parameters = w_narrow,
            .correction = {},
            .attempt = attempt};
        const ExchangeRecord small = transport.exchange(b, narrow_runtime);
        b.parameters = w_wide;
        const ExchangeRecord large = transport.exchange(b, wide_runtime);
        SCOPED_TRACE(::testing::Message() << "round " << round << " device "
                                          << device << " attempt " << attempt);
        EXPECT_EQ(small.status, large.status);
        EXPECT_EQ(small.duplicate, large.duplicate);
        EXPECT_EQ(small.channel_delay_ms, large.channel_delay_ms);
        EXPECT_LT(small.bytes_down, large.bytes_down);
        ++seen[small.status];
        if (small.duplicate) ++duplicates;
      }
    }
  }
  // The sweep reaches every outcome.
  EXPECT_GT(seen[ExchangeStatus::kDelivered], 0u);
  EXPECT_GT(seen[ExchangeStatus::kDropped], 0u);
  EXPECT_GT(seen[ExchangeStatus::kCorrupt], 0u);
  EXPECT_GT(duplicates, 0u);
}

}  // namespace
}  // namespace fed
