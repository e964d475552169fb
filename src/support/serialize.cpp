#include "support/serialize.h"

#include <algorithm>
#include <array>
#include <cstring>
#include <stdexcept>

namespace fed {

namespace {

constexpr char kBroadcastMagic[4] = {'F', 'P', 'B', '1'};
constexpr char kUpdateMagic[4] = {'F', 'P', 'U', '1'};
constexpr char kPartialMagic[4] = {'F', 'P', 'S', '2'};

// Append-only little-endian writer over a WireBuffer.
class ByteWriter {
 public:
  explicit ByteWriter(WireBuffer& out) : out_(out) {}

  void magic(const char (&m)[4]) {
    const std::size_t at = out_.size();
    out_.resize(at + sizeof(m));
    std::memcpy(out_.data() + at, m, sizeof(m));
  }
  void u64(std::uint64_t v) { raw(&v, sizeof(v)); }
  void f64(double v) { raw(&v, sizeof(v)); }
  void flag(bool v) { out_.push_back(v ? 1 : 0); }
  void doubles(std::span<const double> v) {
    u64(v.size());
    raw(v.data(), v.size() * sizeof(double));
  }
  void bytes(std::span<const std::uint8_t> v) {
    u64(v.size());
    raw(v.data(), v.size());
  }
  void raw_bytes(std::span<const std::uint8_t> v) {
    out_.insert(out_.end(), v.begin(), v.end());
  }

 private:
  void raw(const void* p, std::size_t n) {
    const auto* bytes = static_cast<const std::uint8_t*>(p);
    out_.insert(out_.end(), bytes, bytes + n);
  }
  WireBuffer& out_;
};

// Bounds-checked cursor over an encoded buffer. Every read throws on
// truncation; finish() rejects trailing bytes.
class ByteReader {
 public:
  ByteReader(std::span<const std::uint8_t> buffer, const char* what)
      : buffer_(buffer), what_(what) {}

  void magic(const char (&m)[4]) {
    if (buffer_.size() < pos_ + 4 ||
        std::memcmp(buffer_.data() + pos_, m, 4) != 0) {
      throw std::runtime_error(std::string(what_) + ": bad magic");
    }
    pos_ += 4;
  }
  std::uint64_t u64() {
    std::uint64_t v;
    raw(&v, sizeof(v));
    return v;
  }
  double f64() {
    double v;
    raw(&v, sizeof(v));
    return v;
  }
  bool flag() {
    std::uint8_t v;
    raw(&v, sizeof(v));
    if (v > 1) {
      throw std::runtime_error(std::string(what_) + ": corrupt boolean flag");
    }
    return v == 1;
  }
  Vector doubles() {
    const std::uint64_t n = u64();
    if ((buffer_.size() - pos_) / sizeof(double) < n) {
      throw std::runtime_error(std::string(what_) + ": truncated payload");
    }
    Vector v(n);
    raw(v.data(), n * sizeof(double));
    return v;
  }
  std::vector<std::uint8_t> bytes() {
    const std::uint64_t n = u64();
    if (buffer_.size() - pos_ < n) {
      throw std::runtime_error(std::string(what_) + ": truncated payload");
    }
    std::vector<std::uint8_t> v(n);
    raw(v.data(), n);
    return v;
  }
  // `count` canonical ExactSum registers back to back, each validated
  // (tensor/exact_sum.h); returns their bytes.
  std::span<const std::uint8_t> registers(std::uint64_t count) {
    // Every register is at least two bytes: refuse an impossible count
    // before walking it.
    if ((buffer_.size() - pos_) / ExactSum::register_bytes(0) < count) {
      throw std::runtime_error(std::string(what_) + ": truncated payload");
    }
    const std::size_t start = pos_;
    for (std::uint64_t i = 0; i < count; ++i) {
      std::size_t length = 0;
      const char* error =
          ExactSum::check_register(buffer_.subspan(pos_), length);
      if (error != nullptr) {
        throw std::runtime_error(std::string(what_) + ": " + error);
      }
      pos_ += length;
    }
    return buffer_.subspan(start, pos_ - start);
  }
  void finish() const {
    if (pos_ != buffer_.size()) {
      throw std::runtime_error(std::string(what_) + ": trailing bytes");
    }
  }

 private:
  void raw(void* p, std::size_t n) {
    if (buffer_.size() - pos_ < n) {
      throw std::runtime_error(std::string(what_) + ": truncated");
    }
    if (n > 0) {  // empty Vector::data() may be null; memcpy(null,..,0) is UB
      std::memcpy(p, buffer_.data() + pos_, n);
    }
    pos_ += n;
  }
  std::span<const std::uint8_t> buffer_;
  std::size_t pos_ = 0;
  const char* what_;
};

}  // namespace

std::uint64_t fnv1a(std::span<const std::uint8_t> bytes) {
  std::uint64_t hash = 1469598103934665603ull;
  for (std::uint8_t byte : bytes) {
    hash ^= byte;
    hash *= 1099511628211ull;
  }
  return hash;
}

std::size_t broadcast_wire_size(std::size_t param_dim,
                                std::size_t correction_dim) {
  return kBroadcastEnvelopeBytes + (param_dim + correction_dim) * sizeof(double);
}

std::size_t broadcast_wire_size(const ModelBroadcast& message) {
  return broadcast_wire_size(message.parameters.size(),
                             message.correction.size());
}

std::size_t update_wire_size(std::size_t dim) {
  return kUpdateEnvelopeBytes + dim * sizeof(double);
}

std::size_t update_wire_size(const ClientUpdate& message) {
  return update_wire_size(message.result.update.size());
}

WireBuffer encode_broadcast(const ModelBroadcast& message) {
  WireBuffer out;
  out.reserve(broadcast_wire_size(message));
  ByteWriter w(out);
  w.magic(kBroadcastMagic);
  w.u64(message.round);
  w.f64(message.config.mu);
  w.u64(message.config.batch_size);
  w.f64(message.config.learning_rate);
  w.flag(message.config.measure_gamma);
  w.u64(message.budget.device);
  w.flag(message.budget.straggler);
  w.u64(message.budget.epochs);
  w.u64(message.budget.iterations);
  w.doubles(message.parameters);
  w.doubles(message.correction);
  return out;
}

OwnedBroadcast decode_broadcast(std::span<const std::uint8_t> buffer) {
  ByteReader r(buffer, "decode_broadcast");
  r.magic(kBroadcastMagic);
  OwnedBroadcast m;
  m.round = r.u64();
  m.config.mu = r.f64();
  m.config.batch_size = r.u64();
  m.config.learning_rate = r.f64();
  m.config.measure_gamma = r.flag();
  m.budget.device = r.u64();
  m.budget.straggler = r.flag();
  m.budget.epochs = r.u64();
  m.budget.iterations = r.u64();
  m.parameters = r.doubles();
  m.correction = r.doubles();
  r.finish();
  return m;
}

WireBuffer encode_update(const ClientUpdate& message) {
  WireBuffer out;
  out.reserve(update_wire_size(message));
  ByteWriter w(out);
  w.magic(kUpdateMagic);
  w.u64(message.round);
  w.u64(message.result.device);
  w.u64(message.result.num_samples);
  w.flag(message.result.straggler);
  w.u64(message.result.iterations);
  w.f64(message.result.gamma);
  w.flag(message.result.gamma_measured);
  w.f64(message.result.solve_seconds);
  w.doubles(message.result.update);
  return out;
}

std::size_t partial_sum_wire_size(const PartialSumUpdate& message) {
  return kPartialEnvelopeBytes + message.partial.weight_register().size() +
         message.partial.coordinate_registers().size();
}

WireBuffer encode_partial_sum(const PartialSumUpdate& message) {
  WireBuffer out;
  out.reserve(partial_sum_wire_size(message));
  ByteWriter w(out);
  w.magic(kPartialMagic);
  w.u64(message.round);
  w.u64(message.shard);
  // Scheme byte: 0 = weighted average, 1 = simple average.
  w.flag(message.partial.scheme() ==
         SamplingScheme::kWeightedThenSimpleAverage);
  w.u64(message.partial.contributors());
  w.raw_bytes(message.partial.weight_register());
  w.u64(message.partial.dim());
  w.raw_bytes(message.partial.coordinate_registers());
  return out;
}

PartialSumUpdate decode_partial_sum(std::span<const std::uint8_t> buffer) {
  ByteReader r(buffer, "decode_partial_sum");
  r.magic(kPartialMagic);
  PartialSumUpdate m;
  m.round = r.u64();
  m.shard = r.u64();
  const bool simple = r.flag();  // scheme byte: 0 weighted, 1 simple
  const SamplingScheme scheme = simple
                                    ? SamplingScheme::kWeightedThenSimpleAverage
                                    : SamplingScheme::kUniformThenWeightedAverage;
  const std::uint64_t contributors = r.u64();
  const std::span<const std::uint8_t> weight = r.registers(1);
  const std::uint64_t dim = r.u64();
  const std::span<const std::uint8_t> coordinates = r.registers(dim);
  r.finish();
  m.partial = PartialAggregate::restore(
      scheme, dim, contributors, {weight.begin(), weight.end()},
      {coordinates.begin(), coordinates.end()});
  return m;
}

ClientUpdate decode_update(std::span<const std::uint8_t> buffer) {
  ByteReader r(buffer, "decode_update");
  r.magic(kUpdateMagic);
  ClientUpdate m;
  m.round = r.u64();
  m.result.device = r.u64();
  m.result.num_samples = r.u64();
  m.result.straggler = r.flag();
  m.result.iterations = r.u64();
  m.result.gamma = r.f64();
  m.result.gamma_measured = r.flag();
  m.result.solve_seconds = r.f64();
  m.result.update = r.doubles();
  r.finish();
  return m;
}

namespace {

constexpr char kCheckpointMagic[4] = {'F', 'P', 'C', '1'};
constexpr std::uint64_t kCheckpointVersion = 2;

}  // namespace

WireBuffer encode_checkpoint_state(const CheckpointState& state) {
  WireBuffer out;
  out.reserve(256 + state.parameters.size() * sizeof(double) +
              state.active.size() + state.rounds.size() * 83);
  ByteWriter w(out);
  w.magic(kCheckpointMagic);
  w.u64(kCheckpointVersion);
  w.u64(state.fingerprint);
  w.u64(state.seed);
  w.u64(state.next_round);
  w.f64(state.mu);
  const AdaptiveMu::State adaptive =
      state.adaptive.value_or(AdaptiveMu::State{});
  w.flag(state.adaptive.has_value());
  w.f64(adaptive.mu);
  w.f64(adaptive.last_loss);
  w.flag(adaptive.has_last);
  w.u64(adaptive.consecutive_decreases);
  const DissimilarityMu::State theory =
      state.theory.value_or(DissimilarityMu::State{});
  w.flag(state.theory.has_value());
  w.f64(theory.mu);
  w.f64(theory.b_sq_ema);
  w.flag(theory.has_estimate);
  w.doubles(state.parameters);
  w.u64(state.population);
  w.u64(state.churn_arrivals);
  w.u64(state.churn_departures);
  w.bytes(state.active);
  w.u64(state.rounds.size());
  for (const RoundMetrics& m : state.rounds) {
    w.u64(m.round);
    w.flag(m.evaluated());
    w.f64(m.train_loss.value_or(0.0));
    w.f64(m.train_accuracy.value_or(0.0));
    w.f64(m.test_accuracy.value_or(0.0));
    w.flag(m.dissimilarity_b.has_value());
    w.f64(m.grad_variance.value_or(0.0));
    w.f64(m.dissimilarity_b.value_or(0.0));
    w.f64(m.mu);
    w.flag(m.mean_gamma.has_value());
    w.f64(m.mean_gamma.value_or(0.0));
    w.u64(m.contributors);
    w.u64(m.stragglers);
  }
  w.u64(fnv1a(out));
  return out;
}

CheckpointState decode_checkpoint_state(std::span<const std::uint8_t> buffer) {
  // Integrity first: the final u64 must be the FNV-1a of everything
  // before it. Any mutation — truncation, bit flip, trailing garbage —
  // invalidates the trailer before field parsing even starts.
  constexpr std::size_t kTrailerBytes = 8;
  if (buffer.size() < 4 + 8 + kTrailerBytes) {
    throw std::runtime_error("decode_checkpoint_state: truncated");
  }
  const std::size_t body = buffer.size() - kTrailerBytes;
  std::uint64_t stored = 0;
  std::memcpy(&stored, buffer.data() + body, kTrailerBytes);
  if (stored != fnv1a(buffer.first(body))) {
    throw std::runtime_error("decode_checkpoint_state: checksum mismatch");
  }
  ByteReader r(buffer.first(body), "decode_checkpoint_state");
  r.magic(kCheckpointMagic);
  if (r.u64() != kCheckpointVersion) {
    throw std::runtime_error("decode_checkpoint_state: unsupported version");
  }
  CheckpointState state;
  state.fingerprint = r.u64();
  state.seed = r.u64();
  state.next_round = r.u64();
  state.mu = r.f64();
  const bool has_adaptive = r.flag();
  AdaptiveMu::State adaptive;
  adaptive.mu = r.f64();
  adaptive.last_loss = r.f64();
  adaptive.has_last = r.flag();
  adaptive.consecutive_decreases = static_cast<std::size_t>(r.u64());
  if (has_adaptive) state.adaptive = adaptive;
  const bool has_theory = r.flag();
  DissimilarityMu::State theory;
  theory.mu = r.f64();
  theory.b_sq_ema = r.f64();
  theory.has_estimate = r.flag();
  if (has_theory) state.theory = theory;
  state.parameters = r.doubles();
  state.population = r.u64();
  state.churn_arrivals = r.u64();
  state.churn_departures = r.u64();
  state.active = r.bytes();
  if (state.active.size() != (state.population + 7) / 8) {
    throw std::runtime_error(
        "decode_checkpoint_state: active bitmask does not match population");
  }
  const std::uint64_t num_rounds = r.u64();
  state.rounds.reserve(std::min<std::uint64_t>(num_rounds, 1 << 20));
  for (std::uint64_t i = 0; i < num_rounds; ++i) {
    RoundMetrics m;
    m.round = r.u64();
    const bool evaluated = r.flag();
    const double train_loss = r.f64();
    const double train_accuracy = r.f64();
    const double test_accuracy = r.f64();
    if (evaluated) {
      m.train_loss = train_loss;
      m.train_accuracy = train_accuracy;
      m.test_accuracy = test_accuracy;
    }
    const bool has_dissimilarity = r.flag();
    const double grad_variance = r.f64();
    const double dissimilarity_b = r.f64();
    if (has_dissimilarity) {
      m.grad_variance = grad_variance;
      m.dissimilarity_b = dissimilarity_b;
    }
    m.mu = r.f64();
    const bool has_gamma = r.flag();
    const double mean_gamma = r.f64();
    if (has_gamma) m.mean_gamma = mean_gamma;
    m.contributors = r.u64();
    m.stragglers = r.u64();
    state.rounds.push_back(m);
  }
  r.finish();
  return state;
}

}  // namespace fed
