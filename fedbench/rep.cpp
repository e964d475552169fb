// One repetition of one benchmark workload, in its own process.
//
//   fedbench_rep --workload synth_small --mode plain  --tmp DIR --out FILE
//   fedbench_rep --workload synth_small --mode traced --tmp DIR --out FILE
//   fedbench_rep --workload synth_small --mode probe  --seed 3 --out FILE
//
// plain   builds the workload (timed as set-up), runs one Trainer exactly
//         as a library user would, with one cheap RoundRecorder registered
//         first for the round timestamps, and writes every round's record;
//         a host-speed calibration is timed before set-up and after the run.
// traced  the same run with the benchmark's decorators around the Model,
//         LocalSolver and Transport, and the program's own observers
//         forwarded through the recorder so their cost is measured.
// probe   timed direct calls into tensor/ and support/serialize at the
//         workload's shapes (probe.cpp); its inputs come from --seed.
//
// The workload inputs come from --workload-seed (fixed by run.py), so
// every count, loss and accuracy repeats exactly from run to run.
// run.py drives the repetitions, checks the outputs and derives the
// metrics; this program only measures and records.

#include <cmath>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <thread>

#include "comm/transport.h"
#include "core/trainer.h"
#include "layers.h"
#include "obs/exposition.h"
#include "obs/health.h"
#include "obs/metrics.h"
#include "obs/trace_sink.h"
#include "optim/sgd.h"
#include "probe.h"
#include "support/cli.h"
#include "workloads.h"

namespace fedbench {
namespace {

namespace fs = std::filesystem;

constexpr std::size_t kThreads = 2;

// The program's own telemetry stack, wired the way the bench drivers wire
// --trace-out/--metrics-out: JSONL trace, Prometheus feeder + exporter,
// plus the numeric health watchdog.
struct Telemetry {
  explicit Telemetry(const fs::path& dir)
      : sink((dir / "trace.jsonl").string()),
        tracer(sink),
        metrics(registry),
        exporter(registry, (dir / "metrics.prom").string()),
        health(fed::HealthConfig{}, &registry) {}

  std::vector<fed::TrainingObserver*> observers() {
    return {&tracer, &metrics, &exporter, &health};
  }

  fed::JsonlTraceSink sink;
  fed::TraceObserver tracer;
  fed::MetricsRegistry registry;
  fed::MetricsObserver metrics;
  fed::MetricsExporter exporter;
  fed::HealthMonitor health;
};

// The host's current speed: wall time of a fixed amount of benchmark-owned
// work on kThreads threads — small dense products with exp() (the solves'
// kind of work) and streaming passes over a buffer larger than L2 (the
// aggregation's). It shares no code with the program, so a change to the
// program cannot move it. Timed before set-up and after the run; run.py
// scales the end-to-end timings by it (see REFERENCE_CALIBRATION_S).
double calibrate() {
  constexpr std::size_t kRows = 64, kCols = 32, kStream = 1 << 18;
  constexpr int kPasses = 400;
  auto work = [] {
    std::vector<double> a(kRows * kCols), x(kCols), y(kRows), s(kStream);
    for (std::size_t i = 0; i < a.size(); ++i) a[i] = 1.0 / double(i + 1);
    for (std::size_t i = 0; i < x.size(); ++i) x[i] = double(i % 7) - 3.0;
    for (std::size_t i = 0; i < s.size(); ++i) s[i] = double(i & 15);
    double sink = 0.0;
    for (int pass = 0; pass < kPasses; ++pass) {
      for (int rep = 0; rep < 200; ++rep) {
        for (std::size_t r = 0; r < kRows; ++r) {
          double acc = 0.0;
          for (std::size_t c = 0; c < kCols; ++c) acc += a[r * kCols + c] * x[c];
          y[r] = std::exp(-std::abs(acc) * 1e-3);
        }
        x[rep % kCols] += y[rep % kRows] * 1e-9;
      }
      for (std::size_t i = 0; i < s.size(); ++i) sink += s[i];
      s[pass] += sink * 1e-12;
    }
    asm volatile("" : : "g"(&sink), "g"(y.data()) : "memory");
  };
  const auto start = Clock::now();
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t) threads.emplace_back(work);
  for (std::thread& t : threads) t.join();
  return seconds_since(start);
}

std::size_t peak_rss_kb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) != 0) continue;
    std::istringstream fields(line.substr(6));
    std::size_t kb = 0;
    fields >> kb;
    return kb;
  }
  return 0;
}

// FNV-1a over every recorded field of the history and the final weights:
// equal digests mean bit-identical TrainHistory.
class Digest {
 public:
  void bytes(const void* data, std::size_t n) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < n; ++i) {
      hash_ = (hash_ ^ p[i]) * 0x100000001b3ULL;
    }
  }
  template <typename T>
  void value(const T& v) {
    bytes(&v, sizeof(v));
  }
  void optional(const std::optional<double>& v) {
    value(v.has_value());
    if (v) value(*v);
  }
  std::string hex() const {
    std::ostringstream out;
    out << std::hex << hash_;
    return out.str();
  }

 private:
  std::uint64_t hash_ = 0xcbf29ce484222325ULL;
};

std::string history_digest(const fed::TrainHistory& history) {
  Digest d;
  for (const fed::RoundMetrics& m : history.rounds) {
    d.value(m.round);
    d.optional(m.train_loss);
    d.optional(m.train_accuracy);
    d.optional(m.test_accuracy);
    d.optional(m.grad_variance);
    d.optional(m.dissimilarity_b);
    d.value(m.mu);
    d.optional(m.mean_gamma);
    d.value(m.contributors);
    d.value(m.stragglers);
  }
  d.bytes(history.final_parameters.data(),
          history.final_parameters.size() * sizeof(double));
  return d.hex();
}

int run_rep(const std::string& name, const std::string& mode,
            std::uint64_t workload_seed, const fs::path& tmp,
            const std::string& out_path) {
  const bool traced = mode == "traced";
  const double calibration_before = calibrate();
  // Set-up is a few milliseconds on the small workloads, so it is timed
  // several times (the first one cold) until kSetupBudget is spent; run.py
  // reports the median over every set-up of a run.
  constexpr double kSetupBudget = 0.25;
  constexpr std::size_t kMaxSetups = 10;
  fed::JsonArray setup_s;
  double setup_total = 0.0;
  auto start = Clock::now();
  BenchWorkload w = make_benchmark_workload(name, workload_seed);
  setup_total += seconds_since(start);
  setup_s.emplace_back(setup_total);
  while (setup_total < kSetupBudget && setup_s.size() < kMaxSetups) {
    start = Clock::now();
    const BenchWorkload again = make_benchmark_workload(name, workload_seed);
    const double seconds = seconds_since(start);
    setup_total += seconds;
    setup_s.emplace_back(seconds);
  }

  fs::remove_all(tmp);
  fs::create_directories(tmp);
  fed::TrainerConfig config = w.config;
  config.threads = kThreads;
  const fs::path checkpoint_dir = tmp / "checkpoints";
  config.checkpoint.dir = checkpoint_dir.string();
  std::unique_ptr<Telemetry> telemetry;
  if (w.telemetry) telemetry = std::make_unique<Telemetry>(tmp);

  LayerLog log;
  std::shared_ptr<const fed::Model> model = w.model;
  if (traced) {
    model = std::make_shared<TimedModel>(w.model, log);
    config.solver =
        std::make_shared<TimedSolver>(std::make_shared<fed::SgdSolver>());
    config.transport = std::make_shared<TimedTransport>(
        config.transport ? config.transport
                         : fed::make_transport(fed::TransportKind::kInProcess),
        log);
  }

  fed::Trainer trainer(*model, w.data, config);
  std::vector<fed::TrainingObserver*> program_observers;
  if (telemetry) program_observers = telemetry->observers();
  const auto origin = Clock::now();
  RoundRecorder recorder(origin, config.checkpoint.dir,
                         traced ? program_observers
                                : std::vector<fed::TrainingObserver*>{});
  trainer.add_observer(recorder);
  if (!traced) {
    for (fed::TrainingObserver* o : program_observers) trainer.add_observer(*o);
  }
  const fed::TrainHistory history = trainer.run();
  const double run_s = seconds_since(origin);
  const double calibration_after = calibrate();

  const fed::RoundMetrics& last = history.final_metrics();
  fed::JsonObject out;
  out["workload"] = name;
  out["mode"] = mode;
  out["workload_seed"] = static_cast<std::size_t>(workload_seed);
  out["threads"] = kThreads;
  out["compiler"] = FEDBENCH_COMPILER;
  out["build_type"] = FEDBENCH_BUILD_TYPE;
  out["parameters"] = w.model->parameter_count();
  out["devices"] = w.data.num_clients();
  out["setup_s"] = std::move(setup_s);
  out["run_s"] = run_s;
  out["calibration_s"] = fed::JsonArray{fed::JsonValue(calibration_before),
                                        fed::JsonValue(calibration_after)};
  out["peak_rss_kb"] = peak_rss_kb();
  out["digest"] = history_digest(history);
  out["final_train_loss"] = *last.train_loss;
  out["final_test_accuracy"] = *last.test_accuracy;
  out["rounds"] = rounds_to_json(recorder.rounds());
  if (traced) {
    out["exchanges"] = exchanges_to_json(log.exchanges());
    out["eval_nn_s"] = static_cast<double>(log.eval_ns.load()) * 1e-9;
  }
  fed::save_json_file(out_path, fed::JsonValue(std::move(out)));
  return 0;
}

}  // namespace
}  // namespace fedbench

int main(int argc, char** argv) {
  using namespace fedbench;
  fed::CliFlags flags(argc, argv);
  const std::string name = flags.get_string("workload", "");
  const std::string mode = flags.get_string("mode", "plain");
  const std::string out = flags.get_string("out", "");
  const auto workload_seed =
      static_cast<std::uint64_t>(flags.get_int("workload-seed", 1));
  const auto seed = static_cast<std::uint64_t>(flags.get_int("seed", 1));
  const double probe_seconds = flags.get_double("probe-seconds", 0.25);
  const std::string tmp = flags.get_string("tmp", "");
  if (!flags.unused().empty() || out.empty() ||
      (mode != "plain" && mode != "traced" && mode != "probe") ||
      (mode != "probe" && tmp.empty())) {
    std::cerr << "usage: fedbench_rep --workload NAME --mode plain|traced|probe"
                 " --out FILE [--tmp DIR] [--workload-seed N] [--seed N]"
                 " [--probe-seconds S]\n";
    return 2;
  }
  try {
    if (mode == "probe") {
      fed::JsonObject result = run_probe(name, workload_seed, seed,
                                         probe_seconds);
      fed::save_json_file(out, fed::JsonValue(std::move(result)));
      return 0;
    }
    return run_rep(name, mode, workload_seed, tmp, out);
  } catch (const std::exception& e) {
    std::cerr << "fedbench_rep: " << e.what() << "\n";
    return 1;
  }
}
