#include "probe.h"

#include <algorithm>
#include <chrono>
#include <vector>

#include "sim/aggregate.h"
#include "support/rng.h"
#include "support/serialize.h"
#include "tensor/ops.h"
#include "workloads.h"

namespace fedbench {

namespace {

using Clock = std::chrono::steady_clock;

double elapsed(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

// Keeps the compiler from discarding work whose result lands in `p`.
void clobber(const void* p) { asm volatile("" : : "g"(p) : "memory"); }

// Median seconds per call of `fn`, over batches of calls sized to ~2 ms
// each and run for at least `seconds` (and at least 5 batches).
template <typename Fn>
double median_call_seconds(Fn&& fn, double seconds) {
  std::size_t calls = 1;
  for (;;) {
    const auto start = Clock::now();
    for (std::size_t i = 0; i < calls; ++i) fn();
    if (elapsed(start) > 2e-3 || calls >= (1u << 24)) break;
    calls *= 2;
  }
  std::vector<double> per_call;
  const auto begin = Clock::now();
  while (elapsed(begin) < seconds || per_call.size() < 5) {
    const auto start = Clock::now();
    for (std::size_t i = 0; i < calls; ++i) fn();
    per_call.push_back(elapsed(start) / static_cast<double>(calls));
  }
  auto mid = per_call.begin() + static_cast<std::ptrdiff_t>(per_call.size() / 2);
  std::nth_element(per_call.begin(), mid, per_call.end());
  return *mid;
}

fed::Vector random_vector(std::size_t n, fed::Rng& rng) {
  fed::Vector v(n);
  for (double& x : v) x = rng.normal();
  return v;
}

double probe_gemv(const BenchWorkload& w, fed::Rng& rng, double seconds) {
  struct Shape {
    std::size_t rows, cols;
    fed::Vector a, x, y;
  };
  std::vector<Shape> shapes;
  double flops = 0.0;
  for (const auto& [rows, cols] : w.gemv_shapes) {
    shapes.push_back({rows, cols, random_vector(rows * cols, rng),
                      random_vector(cols, rng), fed::Vector(rows)});
    flops += 2.0 * static_cast<double>(rows * cols);
  }
  const double per_call = median_call_seconds(
      [&] {
        for (Shape& s : shapes) {
          fed::gemv(fed::ConstMatrixView(s.a, s.rows, s.cols), s.x, s.y);
          clobber(s.y.data());
        }
      },
      seconds);
  return flops / per_call * 1e-9;
}

double probe_exact_sum(std::size_t dim, fed::Rng& rng, double seconds) {
  constexpr std::size_t kUpdates = 16;
  std::vector<fed::Vector> updates;
  for (std::size_t k = 0; k < kUpdates; ++k) {
    updates.push_back(random_vector(dim, rng));
  }
  fed::PartialAggregate partial(
      fed::SamplingScheme::kUniformThenWeightedAverage, dim);
  std::size_t next = 0;
  const double per_call = median_call_seconds(
      [&] {
        partial.accumulate({next, &updates[next % kUpdates],
                            static_cast<double>(10 + next % 7)});
        ++next;
        clobber(&partial);
      },
      seconds);
  return per_call / static_cast<double>(dim) * 1e9;
}

double probe_codecs(std::size_t dim, fed::Rng& rng, double seconds) {
  const fed::Vector params = random_vector(dim, rng);
  fed::ModelBroadcast broadcast;
  broadcast.round = 7;
  broadcast.budget = {.device = 3, .straggler = true, .epochs = 1,
                      .iterations = 12};
  broadcast.parameters = params;

  fed::ClientUpdate update;
  update.round = 7;
  update.result.device = 3;
  update.result.update = random_vector(dim, rng);
  update.result.num_samples = 40;
  update.result.iterations = 12;

  fed::PartialSumUpdate partial_sum;
  partial_sum.round = 7;
  partial_sum.shard = 1;
  partial_sum.partial = fed::PartialAggregate(
      fed::SamplingScheme::kUniformThenWeightedAverage, dim);
  for (std::size_t k = 0; k < 4; ++k) {
    const fed::Vector u = random_vector(dim, rng);
    partial_sum.partial.accumulate({k, &u, 20.0 + static_cast<double>(k)});
  }

  const double bytes = static_cast<double>(
      fed::broadcast_wire_size(broadcast) + fed::update_wire_size(update) +
      fed::partial_sum_wire_size(partial_sum));
  const double per_call = median_call_seconds(
      [&] {
        const fed::OwnedBroadcast b =
            fed::decode_broadcast(fed::encode_broadcast(broadcast));
        const fed::ClientUpdate u = fed::decode_update(fed::encode_update(update));
        const fed::PartialSumUpdate p =
            fed::decode_partial_sum(fed::encode_partial_sum(partial_sum));
        clobber(&b);
        clobber(&u);
        clobber(&p);
      },
      seconds);
  return bytes / per_call * 1e-6;
}

double probe_fpc1(const BenchWorkload& w, std::size_t dim, fed::Rng& rng,
                  double seconds) {
  const fed::TrainerConfig& c = w.config;
  fed::CheckpointState state;
  state.fingerprint = 1;
  state.seed = c.seed;
  state.next_round = c.rounds + 1;
  state.mu = c.mu;
  state.parameters = random_vector(dim, rng);
  state.population = w.data.num_clients();
  state.active.assign((w.data.num_clients() + 7) / 8, 0xff);
  for (std::size_t t = 0; t <= c.rounds; ++t) {
    fed::RoundMetrics m;
    m.round = t;
    m.mu = c.mu;
    m.contributors = c.devices_per_round;
    if (t % c.eval_every == 0) {
      m.train_loss = rng.uniform();
      m.train_accuracy = rng.uniform();
      m.test_accuracy = rng.uniform();
    }
    state.rounds.push_back(m);
  }
  const double per_call = median_call_seconds(
      [&] {
        const fed::WireBuffer buffer = fed::encode_checkpoint_state(state);
        clobber(buffer.data());
      },
      seconds);
  return per_call * 1e3;
}

}  // namespace

fed::JsonObject run_probe(const std::string& name, std::uint64_t workload_seed,
                          std::uint64_t seed, double seconds) {
  const BenchWorkload w = make_benchmark_workload(name, workload_seed);
  const std::size_t dim = w.model->parameter_count();
  fed::Rng rng(seed, {0xbe7c4});
  fed::JsonObject out;
  out["workload"] = name;
  out["seed"] = static_cast<std::size_t>(seed);
  out["dim"] = dim;
  fed::JsonArray shapes;
  for (const auto& [rows, cols] : w.gemv_shapes) {
    shapes.emplace_back(fed::JsonArray{fed::JsonValue(rows), fed::JsonValue(cols)});
  }
  out["gemv_shapes"] = std::move(shapes);
  out["gemv_gflops"] = probe_gemv(w, rng, seconds);
  out["exact_sum_ns_per_value"] = probe_exact_sum(dim, rng, seconds);
  out["codec_mb_per_s"] = probe_codecs(dim, rng, seconds);
  out["fpc1_encode_ms"] = probe_fpc1(w, dim, rng, seconds);
  return out;
}

}  // namespace fedbench
