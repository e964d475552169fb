// Shared helpers for the test suite.

#pragma once

#include <algorithm>
#include <cmath>
#include <cstring>
#include <functional>
#include <limits>
#include <map>
#include <memory>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "comm/transport.h"
#include "core/config.h"
#include "data/dataset.h"
#include "nn/module.h"
#include "obs/observer.h"
#include "support/serialize.h"
#include "tensor/ops.h"

namespace fed::testing {

// Quadratic model: per-sample loss 0.5 ||w - x_i||^2 over dense rows x_i.
// F(w) = 0.5 ||w - mean(x)||^2 + const, so minimizers, prox points and
// gradients all have closed forms — ideal for solver/aggregation checks.
class QuadraticModel final : public Model {
 public:
  explicit QuadraticModel(std::size_t dim) : dim_(dim) {}

  std::string name() const override { return "quadratic"; }
  std::size_t parameter_count() const override { return dim_; }

  void init_parameters(std::span<double> w, Rng&) const override { zero(w); }

  double loss_and_grad(std::span<const double> w, const Dataset& data,
                       std::span<const std::size_t> batch,
                       std::span<double> grad) const override {
    zero(grad);
    double loss = 0.0;
    for (std::size_t idx : batch) {
      auto x = data.features.row(idx);
      for (std::size_t j = 0; j < dim_; ++j) {
        const double diff = w[j] - x[j];
        grad[j] += diff;
        loss += 0.5 * diff * diff;
      }
    }
    const double inv = 1.0 / static_cast<double>(batch.size());
    scale(grad, inv);
    return loss * inv;
  }

  void predict(std::span<const double>, const Dataset& data,
               std::span<const std::size_t> batch,
               std::vector<std::int32_t>& out) const override {
    out.assign(batch.size(), 0);
    for (std::size_t i = 0; i < batch.size(); ++i) {
      out[i] = data.labels[batch[i]];  // trivially "correct"
    }
  }

 private:
  std::size_t dim_;
};

// Forwards every call to `inner` except init_parameters, which fills
// `value`: a run that starts from a chosen, non-zero model. It keeps the
// default evaluation(), over the forwarded loss() and predict().
class ConstantInitModel final : public Model {
 public:
  ConstantInitModel(const Model& inner, double value)
      : inner_(inner), value_(value) {}

  std::string name() const override { return inner_.name(); }
  std::size_t parameter_count() const override {
    return inner_.parameter_count();
  }
  void init_parameters(std::span<double> w, Rng&) const override {
    std::fill(w.begin(), w.end(), value_);
  }
  double loss_and_grad(std::span<const double> w, const Dataset& data,
                       std::span<const std::size_t> batch,
                       std::span<double> grad) const override {
    return inner_.loss_and_grad(w, data, batch, grad);
  }
  double loss(std::span<const double> w, const Dataset& data,
              std::span<const std::size_t> batch) const override {
    return inner_.loss(w, data, batch);
  }
  void predict(std::span<const double> w, const Dataset& data,
               std::span<const std::size_t> batch,
               std::vector<std::int32_t>& out) const override {
    inner_.predict(w, data, batch, out);
  }

 private:
  const Model& inner_;
  double value_;
};

// Forwards each exchange to `inner`, then lets `tamper` rewrite a
// delivered update, the way a misbehaving device would answer its
// broadcast. `tamper` is called concurrently from pool workers.
class TamperingTransport final : public Transport {
 public:
  using Tamper = std::function<void(const ModelBroadcast&, ClientUpdate&)>;

  TamperingTransport(std::shared_ptr<const Transport> inner, Tamper tamper)
      : inner_(std::move(inner)), tamper_(std::move(tamper)) {}

  ExchangeRecord exchange(const ModelBroadcast& broadcast,
                          const ClientRuntime& client) const override {
    ExchangeRecord record = inner_->exchange(broadcast, client);
    if (record.delivered()) tamper_(broadcast, record.update);
    return record;
  }
  std::string name() const override {
    return "tampering(" + inner_->name() + ")";
  }

 private:
  std::shared_ptr<const Transport> inner_;
  Tamper tamper_;
};

// Collects every FaultEvent fanned out by the round driver.
struct FaultEventCollector : TrainingObserver {
  std::map<FaultEvent::Kind, std::size_t> counts;
  std::vector<FaultEvent> events;

  void on_fault(const FaultEvent& event) override {
    ++counts[event.kind];
    events.push_back(event);
  }
};

// Dense dataset with the given rows as both features and (label 0) targets.
inline Dataset make_dense_dataset(const std::vector<Vector>& rows) {
  Dataset d;
  const std::size_t dim = rows.empty() ? 0 : rows.front().size();
  d.features = Matrix(0, dim);
  for (const auto& r : rows) {
    Vector& buf = d.features.storage();
    buf.insert(buf.end(), r.begin(), r.end());
    d.features = Matrix(d.features.rows() + 1, dim, std::move(buf));
    d.labels.push_back(0);
  }
  return d;
}

// Random dense classification dataset (labels uniform).
inline Dataset make_random_dataset(std::size_t n, std::size_t dim,
                                   std::size_t classes, Rng& rng) {
  Dataset d;
  d.features = Matrix(n, dim);
  for (double& v : d.features.storage()) v = rng.normal();
  d.labels.resize(n);
  for (auto& y : d.labels) {
    y = static_cast<std::int32_t>(rng.uniform_int(classes));
  }
  return d;
}

// Random token-sequence dataset.
inline Dataset make_random_sequences(std::size_t n, std::size_t seq_len,
                                     std::size_t vocab, std::size_t classes,
                                     Rng& rng) {
  Dataset d;
  d.tokens.resize(n);
  d.labels.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    d.tokens[i].resize(seq_len);
    for (auto& t : d.tokens[i]) {
      t = static_cast<std::int32_t>(rng.uniform_int(vocab));
    }
    d.labels[i] = static_cast<std::int32_t>(rng.uniform_int(classes));
  }
  return d;
}

// A client whose train split holds the batch's samples in batch order
// and whose test split holds them reversed, so a model's evaluation()
// sees the batch as whole splits.
inline ClientData client_of(const Dataset& data,
                            std::span<const std::size_t> batch) {
  ClientData client;
  for (std::size_t idx : batch) client.train.append_from(data, idx);
  for (std::size_t i = batch.size(); i > 0; --i) {
    client.test.append_from(data, batch[i - 1]);
  }
  return client;
}

// Number of predictions equal to their sample's label (pred[i] is the
// prediction for sample batch[i]).
inline std::size_t count_correct(const Dataset& data,
                                 std::span<const std::size_t> batch,
                                 std::span<const std::int32_t> pred) {
  std::size_t correct = 0;
  for (std::size_t i = 0; i < batch.size(); ++i) {
    if (pred[i] == data.labels[batch[i]]) ++correct;
  }
  return correct;
}

// The three-coordinate partial the FPS2 frames below are cut from.
inline PartialSumUpdate three_coordinate_partial() {
  PartialSumUpdate p;
  p.round = 5;
  p.shard = 1;
  p.partial = PartialAggregate(SamplingScheme::kUniformThenWeightedAverage, 3);
  const Vector u{1.5, -2.25, 0.1};
  p.partial.accumulate({0, &u, 3.0});
  return p;
}

// Coordinate `coord`'s register of three_coordinate_partial().
inline WireBuffer partial_frame_register(std::size_t coord) {
  const PartialSumUpdate p = three_coordinate_partial();
  const std::uint8_t* at = p.partial.coordinate_registers().data();
  for (std::size_t i = 0; i < coord; ++i) at += ExactSum::register_size(at);
  return WireBuffer(at, at + ExactSum::register_size(at));
}

// three_coordinate_partial()'s FPS2 frame with coordinate `coord`'s
// register replaced by `reg` (raw bytes, placed as they are).
inline WireBuffer partial_frame_with_register(std::size_t coord,
                                              const WireBuffer& reg) {
  const PartialSumUpdate p = three_coordinate_partial();
  const WireBuffer frame = encode_partial_sum(p);
  std::size_t at = frame.size() - p.partial.coordinate_registers().size();
  for (std::size_t i = 0; i < coord; ++i) {
    at += ExactSum::register_size(frame.data() + at);
  }
  const std::size_t end = at + ExactSum::register_size(frame.data() + at);
  WireBuffer out(frame.begin(), frame.begin() + static_cast<long>(at));
  out.insert(out.end(), reg.begin(), reg.end());
  out.insert(out.end(), frame.begin() + static_cast<long>(end), frame.end());
  return out;
}

// FPS2 frames, one per way a register can be malformed, each of which
// the decoder must reject with std::runtime_error.
inline std::vector<std::pair<std::string, WireBuffer>>
malformed_partial_frames() {
  const auto f64_bytes = [](double v) {
    WireBuffer b(8);
    std::memcpy(b.data(), &v, 8);
    return b;
  };
  const auto concat = [](WireBuffer a, const WireBuffer& b) {
    a.insert(a.end(), b.begin(), b.end());
    return a;
  };
  std::vector<std::pair<std::string, WireBuffer>> frames;
  // lo + n beyond the 68-digit register.
  frames.emplace_back("window past the register",
                      partial_frame_with_register(
                          0, {66, 3, 1, 0, 0, 0, 2, 0, 0, 0, 3, 0, 0, 0}));
  // Coordinate 0 (4.5) is positive: an extra zero top digit is a
  // redundant sign digit.
  WireBuffer redundant = partial_frame_register(0);
  redundant[1] = static_cast<std::uint8_t>(redundant[1] + 1);
  redundant.insert(redundant.end(), {0, 0, 0, 0});
  frames.emplace_back("redundant sign digit",
                      partial_frame_with_register(0, redundant));
  // The same value one digit lower, with a zero low digit.
  WireBuffer zero_low = partial_frame_register(0);
  zero_low[0] = static_cast<std::uint8_t>(zero_low[0] - 1);
  zero_low[1] = static_cast<std::uint8_t>(zero_low[1] + 1);
  zero_low.insert(zero_low.begin() + 2, {0, 0, 0, 0});
  frames.emplace_back("zero low digit",
                      partial_frame_with_register(0, zero_low));
  // The last register claims one digit more than the frame holds.
  WireBuffer truncated = partial_frame_register(2);
  truncated[1] = static_cast<std::uint8_t>(truncated[1] + 1);
  frames.emplace_back("truncated digit run",
                      partial_frame_with_register(2, truncated));
  frames.emplace_back("empty window with a nonzero lo",
                      partial_frame_with_register(1, {7, 0}));
  // The side channel: a non-finite marker must carry ±inf or NaN, and a
  // register marked finite carries no payload at all.
  frames.emplace_back(
      "finite value behind the non-finite marker",
      partial_frame_with_register(
          1, concat({0, ExactSum::kNonfiniteMarker}, f64_bytes(2.5))));
  frames.emplace_back(
      "payload on a finite register",
      partial_frame_with_register(
          1, concat({0, 0},
                    f64_bytes(std::numeric_limits<double>::infinity()))));
  return frames;
}

// One leaf of the TrainerConfig field list (core/config.h), for tests
// that walk the list instead of keeping their own table of fields.
struct ConfigLeaf {
  std::string path;       // "systems.straggler_fraction"
  ConfigField field;
  std::string spec_flag;  // "faults" for a key of the --faults spec
  bool real = false;      // a double
  bool count = false;     // an integer, or an enum by its value
};

inline std::vector<ConfigLeaf> config_leaves() {
  std::vector<ConfigLeaf> out;
  const TrainerConfig config;
  visit_config(config, [&out](const auto& leaf, const ConfigField& f) {
    using T = std::remove_cvref_t<decltype(leaf)>;
    constexpr bool integer = std::is_integral_v<T> && !std::is_same_v<T, bool>;
    out.push_back({.path = f.path,
                   .field = f,
                   .spec_flag = f.spec ? f.spec->flag : "",
                   .real = std::is_floating_point_v<T>,
                   .count = integer || std::is_enum_v<T>});
  });
  return out;
}

// Calls edit(leaf) on the leaf of `config` at `path`, with its own type.
template <typename Edit>
void edit_config_leaf(TrainerConfig& config, const std::string& path,
                      Edit edit) {
  visit_config(config, [&](auto& leaf, const ConfigField& f) {
    if (f.path == path) edit(leaf);
  });
}

}  // namespace fed::testing
