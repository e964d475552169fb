#include "support/serialize.h"

#include <algorithm>
#include <cstring>
#include <optional>
#include <stdexcept>
#include <type_traits>

namespace fed {

namespace {

// Every frame's layout is stated once, as a field list: a generic lambda
// over a walker `w` and a message. Three walkers run the same list —
// ByteWriter encodes it, ByteReader decodes and checks it, ByteCounter
// (a ByteWriter that only counts) sums its size — so the codecs and the
// byte accounting cannot drift apart. The walker's vocabulary, encoded
// little-endian with doubles bit for bit:
//   magic(m) 4 bytes | version(v) u64 | u64 | f64 | flag u8 (0 or 1)
//   packed(v)        u64 n | n elements (f64 or u8)
//   registers(v, n)  n canonical ExactSum registers (tensor/exact_sum.h)
//   array(v, f)      u64 n | n * the fields f of one element
// and visit_metrics' (core/trainer.h): field(key, v) a count as u64, a
// double as f64 and an optional as f64 (0 when unset); optionals(group)
// one flag, set if any member of the group is, then the group.

constexpr char kBroadcastMagic[4] = {'F', 'P', 'B', '1'};
constexpr char kUpdateMagic[4] = {'F', 'P', 'U', '1'};
constexpr char kPartialMagic[4] = {'F', 'P', 'S', '2'};
constexpr char kCheckpointMagic[4] = {'F', 'P', 'C', '1'};
// Version 4 holds mu once and one mu controller's state; a file of an
// older layout, or fingerprinted without the local solver (version 2),
// is refused.
constexpr std::uint64_t kCheckpointVersion = 4;

// FPB1: a ModelBroadcast to encode, an OwnedBroadcast to decode into.
constexpr auto kBroadcastFields = [](auto& w, auto& m) {
  w.magic(kBroadcastMagic);
  w.u64(m.round);
  w.f64(m.config.mu);
  w.u64(m.config.batch_size);
  w.f64(m.config.learning_rate);
  w.flag(m.config.measure_gamma);
  w.u64(m.budget.device);
  w.flag(m.budget.straggler);
  w.u64(m.budget.epochs);
  w.u64(m.budget.iterations);
  w.packed(m.parameters);
  w.packed(m.correction);
};

// FPU1: a ClientUpdate.
constexpr auto kUpdateFields = [](auto& w, auto& m) {
  w.magic(kUpdateMagic);
  w.u64(m.round);
  w.u64(m.result.device);
  w.u64(m.result.num_samples);
  w.flag(m.result.straggler);
  w.u64(m.result.iterations);
  w.f64(m.result.gamma);
  w.flag(m.result.gamma_measured);
  w.f64(m.result.solve_seconds);
  w.packed(m.result.update);
};

// FPS2's view of a PartialSumUpdate: spans over the partial's registers
// to encode, over the frame's validated bytes after a decode (which hands
// them to PartialAggregate::restore).
struct PartialFrame {
  std::uint64_t round = 0;
  std::uint64_t shard = 0;
  bool simple = false;  // the scheme byte: 0 weighted, 1 simple average
  std::uint64_t contributors = 0;
  std::span<const std::uint8_t> weight;
  std::uint64_t dim = 0;
  std::span<const std::uint8_t> coordinates;
};

PartialFrame partial_frame(const PartialSumUpdate& m) {
  const PartialAggregate& p = m.partial;
  return {m.round, m.shard,
          p.scheme() == SamplingScheme::kWeightedThenSimpleAverage,
          p.contributors(), p.weight_register(), p.dim(),
          p.coordinate_registers()};
}

// FPS2: a PartialFrame.
constexpr auto kPartialFields = [](auto& w, auto& f) {
  w.magic(kPartialMagic);
  w.u64(f.round);
  w.u64(f.shard);
  w.flag(f.simple);
  w.u64(f.contributors);
  w.registers(f.weight, 1);
  w.u64(f.dim);
  w.registers(f.coordinates, f.dim);
};

// One FPC1 round record: a RoundMetrics, doubles bit-exact.
constexpr auto kRoundRecordFields = [](auto& w, auto& m) {
  visit_metrics(w, m);
};

// FPC1: a CheckpointState, before its u64 FNV-1a trailer over every
// preceding byte.
constexpr auto kCheckpointFields = [](auto& w, auto& s) {
  w.magic(kCheckpointMagic);
  w.version(kCheckpointVersion);
  w.u64(s.fingerprint);
  w.u64(s.seed);
  w.u64(s.next_round);
  w.f64(s.mu);
  w.f64(s.mu_state.last);  // the mu controller (core/mu_controller.h)
  w.flag(s.mu_state.has_last);
  w.u64(s.mu_state.streak);
  w.packed(s.parameters);
  w.u64(s.population);
  w.u64(s.churn_arrivals);
  w.u64(s.churn_departures);
  w.packed(s.active);
  w.array(s.rounds, kRoundRecordFields);
};

constexpr std::size_t kTrailerBytes = sizeof(std::uint64_t);

// Writes a field list, little-endian, into `Out`: the bytes themselves
// into a WireBuffer, or only their count into a std::size_t
// (ByteCounter). Both grow by the same amounts, so the count is the
// length of the encoding.
template <typename Out>
class ByteWriter {
 public:
  explicit ByteWriter(Out& out) : out_(out) {}
  static constexpr bool kBytes = std::is_same_v<Out, WireBuffer>;

  // Opens the frame. An insert into the empty buffer would draw a false
  // -Wstringop-overflow from GCC 12; assign does not.
  void magic(const char (&m)[4]) {
    if constexpr (kBytes) {
      out_.assign(m, m + sizeof(m));
    } else {
      raw(m, sizeof(m));
    }
  }
  void version(std::uint64_t v) { u64(v); }
  void u64(std::uint64_t v) { raw(&v, sizeof(v)); }
  void f64(double v) { raw(&v, sizeof(v)); }
  void flag(bool v) {
    const std::uint8_t byte = v ? 1 : 0;
    raw(&byte, sizeof(byte));
  }
  void packed(const auto& v) {  // a span or vector of doubles or bytes
    const std::span values(v);
    u64(values.size());
    raw(values.data(), values.size_bytes());
  }
  void registers(std::span<const std::uint8_t> v, std::uint64_t) {
    raw(v.data(), v.size());
  }
  template <typename T, typename Fields>
  void array(const std::vector<T>& v, const Fields& fields) {
    u64(v.size());
    for (const T& element : v) fields(*this, element);
  }
  void field(const char*, std::uint64_t v) { u64(v); }
  void field(const char*, double v) { f64(v); }
  void field(const char*, const std::optional<double>& v) {
    any_set_ = any_set_ || v.has_value();
    f64(v.value_or(0.0));
  }
  // The flag goes first: written as 0, then set once the group is.
  void optionals(const auto& group) {
    std::size_t at = 0;
    if constexpr (kBytes) at = out_.size();
    flag(false);
    any_set_ = false;
    group(*this);
    if constexpr (kBytes) out_[at] = any_set_ ? 1 : 0;
  }

 private:
  void raw(const void* p, std::size_t n) {
    if constexpr (kBytes) {
      const auto* bytes = static_cast<const std::uint8_t*>(p);
      out_.insert(out_.end(), bytes, bytes + n);
    } else {
      out_ += n;
    }
  }
  Out& out_;
  bool any_set_ = false;  // a member of the open optionals group is set
};

using ByteCounter = ByteWriter<std::size_t>;

// Bounds-checked cursor over an encoded buffer. Every read throws on
// truncation; finish() rejects trailing bytes.
class ByteReader {
 public:
  ByteReader(std::span<const std::uint8_t> buffer, const char* what)
      : buffer_(buffer), what_(what) {}

  void magic(const char (&m)[4]) {
    if (buffer_.size() < pos_ + sizeof(m) ||
        std::memcmp(buffer_.data() + pos_, m, sizeof(m)) != 0) {
      fail("bad magic");
    }
    pos_ += sizeof(m);
  }
  void version(std::uint64_t v) {
    std::uint64_t got = 0;
    u64(got);
    if (got != v) fail("unsupported version");
  }
  template <typename T>
  void u64(T& v) {
    std::uint64_t got = 0;
    raw(&got, sizeof(got));
    v = static_cast<T>(got);
  }
  void f64(double& v) { raw(&v, sizeof(v)); }
  void flag(bool& v) {
    std::uint8_t got = 0;
    raw(&got, sizeof(got));
    if (got > 1) fail("corrupt boolean flag");
    v = got == 1;
  }
  template <typename T>
  void packed(std::vector<T>& v) {
    std::uint64_t n = 0;
    u64(n);
    if ((buffer_.size() - pos_) / sizeof(T) < n) fail("truncated payload");
    v.resize(n);
    raw(v.data(), n * sizeof(T));
  }
  // `count` canonical registers, each validated (tensor/exact_sum.h);
  // `v` views their bytes.
  void registers(std::span<const std::uint8_t>& v, std::uint64_t count) {
    // Every register is at least two bytes: refuse an impossible count
    // before walking it.
    if ((buffer_.size() - pos_) / ExactSum::register_bytes(0) < count) {
      fail("truncated payload");
    }
    const std::size_t start = pos_;
    for (std::uint64_t i = 0; i < count; ++i) {
      std::size_t length = 0;
      const char* error =
          ExactSum::check_register(buffer_.subspan(pos_), length);
      if (error != nullptr) fail(error);
      pos_ += length;
    }
    v = buffer_.subspan(start, pos_ - start);
  }
  template <typename T, typename Fields>
  void array(std::vector<T>& v, const Fields& fields) {
    std::uint64_t n = 0;
    u64(n);
    v.clear();
    v.reserve(std::min<std::uint64_t>(n, 1 << 20));
    for (std::uint64_t i = 0; i < n; ++i) fields(*this, v.emplace_back());
  }
  void field(const char*, std::size_t& v) { u64(v); }
  void field(const char*, double& v) { f64(v); }
  void field(const char*, std::optional<double>& v) {
    double value = 0.0;
    f64(value);
    if (present_) v = value;
  }
  void optionals(const auto& group) {
    flag(present_);
    group(*this);
  }
  void finish() const {
    if (pos_ != buffer_.size()) fail("trailing bytes");
  }

 private:
  [[noreturn]] void fail(const char* why) const {
    throw std::runtime_error(std::string(what_) + ": " + why);
  }
  void raw(void* p, std::size_t n) {
    if (buffer_.size() - pos_ < n) fail("truncated");
    if (n > 0) {  // empty Vector::data() may be null; memcpy(null,..,0) is UB
      std::memcpy(p, buffer_.data() + pos_, n);
    }
    pos_ += n;
  }
  std::span<const std::uint8_t> buffer_;
  std::size_t pos_ = 0;
  bool present_ = false;  // the open optionals group's flag
  const char* what_;
};

template <typename Fields, typename M>
std::size_t wire_size(const Fields& fields, const M& message) {
  std::size_t size = 0;
  ByteCounter counter(size);
  fields(counter, message);
  return size;
}

// `extra` leaves room for a trailer the caller appends.
template <typename Fields, typename M>
WireBuffer encode(const Fields& fields, const M& message,
                  std::size_t extra = 0) {
  WireBuffer out;
  out.reserve(wire_size(fields, message) + extra);
  ByteWriter writer(out);
  fields(writer, message);
  return out;
}

template <typename M, typename Fields>
M decode(const Fields& fields, std::span<const std::uint8_t> buffer,
         const char* what) {
  ByteReader reader(buffer, what);
  M message;
  fields(reader, message);
  reader.finish();
  return message;
}

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
  return broadcast_wire_size(ModelBroadcast{}) +
         (param_dim + correction_dim) * sizeof(double);
}

std::size_t broadcast_wire_size(const ModelBroadcast& message) {
  return wire_size(kBroadcastFields, message);
}

std::size_t update_wire_size(std::size_t dim) {
  return update_wire_size(ClientUpdate{}) + dim * sizeof(double);
}

std::size_t update_wire_size(const ClientUpdate& message) {
  return wire_size(kUpdateFields, message);
}

std::size_t partial_sum_wire_size(const PartialSumUpdate& message) {
  return wire_size(kPartialFields, partial_frame(message));
}

WireBuffer encode_broadcast(const ModelBroadcast& message) {
  return encode(kBroadcastFields, message);
}

OwnedBroadcast decode_broadcast(std::span<const std::uint8_t> buffer) {
  return decode<OwnedBroadcast>(kBroadcastFields, buffer, "decode_broadcast");
}

WireBuffer encode_update(const ClientUpdate& message) {
  return encode(kUpdateFields, message);
}

ClientUpdate decode_update(std::span<const std::uint8_t> buffer) {
  return decode<ClientUpdate>(kUpdateFields, buffer, "decode_update");
}

WireBuffer encode_partial_sum(const PartialSumUpdate& message) {
  return encode(kPartialFields, partial_frame(message));
}

PartialSumUpdate decode_partial_sum(std::span<const std::uint8_t> buffer) {
  const PartialFrame f =
      decode<PartialFrame>(kPartialFields, buffer, "decode_partial_sum");
  return {f.round, f.shard,
          PartialAggregate::restore(
              f.simple ? SamplingScheme::kWeightedThenSimpleAverage
                       : SamplingScheme::kUniformThenWeightedAverage,
              f.dim, f.contributors, {f.weight.begin(), f.weight.end()},
              {f.coordinates.begin(), f.coordinates.end()})};
}

WireBuffer encode_checkpoint_state(const CheckpointState& state) {
  WireBuffer out = encode(kCheckpointFields, state, kTrailerBytes);
  ByteWriter(out).u64(fnv1a(out));
  return out;
}

CheckpointState decode_checkpoint_state(std::span<const std::uint8_t> buffer) {
  // Integrity first: the final u64 must be the FNV-1a of everything
  // before it. Any mutation — truncation, bit flip, trailing garbage —
  // invalidates the trailer before field parsing even starts.
  if (buffer.size() < kTrailerBytes) {
    throw std::runtime_error("decode_checkpoint_state: truncated");
  }
  const std::size_t body = buffer.size() - kTrailerBytes;
  std::uint64_t stored = 0;
  std::memcpy(&stored, buffer.data() + body, kTrailerBytes);
  if (stored != fnv1a(buffer.first(body))) {
    throw std::runtime_error("decode_checkpoint_state: checksum mismatch");
  }
  CheckpointState state = decode<CheckpointState>(
      kCheckpointFields, buffer.first(body), "decode_checkpoint_state");
  if (state.active.size() != (state.population + 7) / 8) {
    throw std::runtime_error(
        "decode_checkpoint_state: active bitmask does not match population");
  }
  return state;
}

}  // namespace fed
