#include "support/serialize.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstring>
#include <limits>
#include <span>
#include <utility>

#include "test_util.h"

namespace fed {
namespace {

// FNV-1a over a byte range, written independently of fed::fnv1a: the
// FPC1 trailer checksum, and the digest of pinned frames.
std::uint64_t reference_fnv1a(std::span<const std::uint8_t> bytes) {
  std::uint64_t hash = 1469598103934665603ull;
  for (const std::uint8_t byte : bytes) {
    hash ^= byte;
    hash *= 1099511628211ull;
  }
  return hash;
}

class SerializeTest : public ::testing::Test {
 protected:
  // A frame's body with the FNV-1a trailer recomputed: damage applied to
  // the body then reaches the structural checks instead of stopping at
  // the checksum.
  static WireBuffer reseal(WireBuffer body) {
    const std::uint64_t hash = reference_fnv1a(body);
    const auto* bytes = reinterpret_cast<const std::uint8_t*>(&hash);
    body.insert(body.end(), bytes, bytes + sizeof(hash));
    return body;
  }
  static WireBuffer body_of(const WireBuffer& frame) {
    return WireBuffer(frame.begin(), frame.end() - 8);
  }
  static CheckpointState decode(const WireBuffer& frame) {
    return decode_checkpoint_state(std::span<const std::uint8_t>(frame));
  }

  // A one-round FPC1 snapshot over a 10-device population.
  static CheckpointState small_state() {
    CheckpointState state;
    state.next_round = 2;
    state.parameters = Vector{1.0, 2.0, 3.0};
    state.population = 10;
    state.active = {0xff, 0x03};
    RoundMetrics m;
    m.train_loss = 1.5;
    m.train_accuracy = 0.5;
    m.test_accuracy = 0.25;
    state.rounds = {m};
    return state;
  }
};

// --- FPC1 checkpoint codec ------------------------------------------------

TEST_F(SerializeTest, CheckpointRoundTripsExactly) {
  CheckpointState state = small_state();
  state.mu = 0.1 + 0.2;  // not representable exactly
  state.parameters = Vector{1.5, -2.25, 0.0, -0.0, 1e-300, 1e300,
                            3.141592653589793};
  const CheckpointState back = decode(encode_checkpoint_state(state));
  EXPECT_EQ(back.mu, state.mu);
  ASSERT_EQ(back.parameters.size(), state.parameters.size());
  for (std::size_t i = 0; i < state.parameters.size(); ++i) {
    EXPECT_EQ(std::bit_cast<std::uint64_t>(back.parameters[i]),
              std::bit_cast<std::uint64_t>(state.parameters[i]));
  }
}

// A frame of the layouts in support/serialize.cpp's field lists, written
// field by field independently of them.
class FrameBuilder {
 public:
  explicit FrameBuilder(const char (&magic)[5]) {
    for (int i = 0; i < 4; ++i) u8(static_cast<std::uint8_t>(magic[i]));
  }
  FrameBuilder& u8(std::uint8_t v) {
    bytes_.push_back(v);
    return *this;
  }
  FrameBuilder& u64(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) u8(static_cast<std::uint8_t>(v >> (8 * i)));
    return *this;
  }
  FrameBuilder& f64(double v) { return u64(std::bit_cast<std::uint64_t>(v)); }
  const WireBuffer& bytes() const { return bytes_; }
  // Seals the frame with its FNV-1a trailer (FPC1).
  WireBuffer sealed() const {
    FrameBuilder out = *this;
    return out.u64(reference_fnv1a(bytes_)).bytes_;
  }

 private:
  WireBuffer bytes_;
};

// One frame per mu controller state: a fresh one (all zeros), the
// adaptive policy's last loss mid-streak, and the theory policy's B^2
// average.
enum class Controller { kNone, kAdaptive, kTheory };

WireBuffer pinned_checkpoint_frame(Controller controller) {
  FrameBuilder f("FPC1");
  f.u64(4).u64(0x0123456789abcdefull).u64(7).u64(3).f64(0.25);
  switch (controller) {  // last, has_last, streak
    case Controller::kNone: f.f64(0.0).u8(0).u64(0); break;
    case Controller::kAdaptive: f.f64(1.125).u8(1).u64(3); break;
    case Controller::kTheory: f.f64(2.5).u8(1).u64(0); break;
  }
  f.u64(2).f64(1.5).f64(-2.0);                 // parameters
  f.u64(10).u64(4).u64(2).u64(2).u8(0xfb).u8(0x02);  // population, mask
  f.u64(2);                                    // two round records
  f.u64(0).u8(1).f64(2.0).f64(0.5).f64(0.25);  // round 0, evaluated
  f.u8(1).f64(4.0).f64(1.5).f64(0.25).u8(0).f64(0.0).u64(0).u64(0);
  f.u64(1).u8(0).f64(0.0).f64(0.0).f64(0.0);   // round 1, not evaluated
  f.u8(0).f64(0.0).f64(0.0).f64(0.25).u8(1).f64(0.75).u64(4).u64(1);
  return f.sealed();
}

TEST_F(SerializeTest, CheckpointFrameBytesArePinned) {
  // Decoding a frame and encoding it again reproduces every byte, the
  // layout and a fresh controller's zeros included.
  const std::pair<Controller, std::uint64_t> cases[] = {
      {Controller::kNone, 0xe7c1409d8eb220f8ull},
      {Controller::kAdaptive, 0xeb0368c6e77f3c12ull},
      {Controller::kTheory, 0x6f6592a85e6a8825ull},
  };
  for (const auto& [controller, digest] : cases) {
    const WireBuffer frame = pinned_checkpoint_frame(controller);
    EXPECT_EQ(frame.size(), 301u);
    EXPECT_EQ(reference_fnv1a(frame), digest);
    EXPECT_EQ(encode_checkpoint_state(decode(frame)), frame)
        << "controller " << static_cast<int>(controller);
  }
}

TEST_F(SerializeTest, EmptyCheckpointSupported) {
  const CheckpointState back = decode(encode_checkpoint_state({}));
  EXPECT_TRUE(back.parameters.empty());
  EXPECT_TRUE(back.active.empty());
  EXPECT_TRUE(back.rounds.empty());
  EXPECT_EQ(back.population, 0u);
}

TEST_F(SerializeTest, DimensionValidation) {
  // The active bitmask must hold exactly (population + 7) / 8 bytes.
  CheckpointState state = small_state();
  EXPECT_NO_THROW((void)decode(encode_checkpoint_state(state)));
  state.population = 17;
  EXPECT_THROW((void)decode(encode_checkpoint_state(state)),
               std::runtime_error);
}

TEST_F(SerializeTest, BadMagicThrows) {
  WireBuffer body = body_of(encode_checkpoint_state(small_state()));
  body[3] = 'X';  // "FPCX"
  EXPECT_THROW((void)decode(reseal(body)), std::runtime_error);
}

TEST_F(SerializeTest, CheckpointVersionOneIsRejected) {
  // Version 1 frames carried one more header field; the version check
  // refuses them before any field is misread.
  WireBuffer body = body_of(encode_checkpoint_state(small_state()));
  EXPECT_EQ(body[4], 4u);  // u64 version, little-endian, after the magic
  // Version 2 fingerprinted the config without the local solver; version
  // 3 framed two optional mu controllers, each with its own mu.
  for (const std::uint8_t old_version : {1, 2, 3}) {
    body[4] = old_version;
    EXPECT_THROW((void)decode(reseal(body)), std::runtime_error);
  }
}

TEST_F(SerializeTest, TruncatedPayloadThrows) {
  WireBuffer body = body_of(encode_checkpoint_state(small_state()));
  body.erase(body.end() - 8, body.end());  // lose the last round's stragglers
  EXPECT_THROW((void)decode(reseal(body)), std::runtime_error);
}

TEST_F(SerializeTest, TrailingBytesThrow) {
  WireBuffer body = body_of(encode_checkpoint_state(small_state()));
  body.push_back(0x00);
  EXPECT_THROW((void)decode(reseal(body)), std::runtime_error);
}

TEST_F(SerializeTest, RoundRecordsRoundTrip) {
  // Every presence combination of the optional RoundMetrics fields.
  CheckpointState state = small_state();
  state.rounds.clear();
  for (std::size_t i = 0; i < 4; ++i) {
    RoundMetrics m;
    m.round = i;
    if (i % 2 == 0) {  // evaluated rounds carry the three eval metrics
      m.train_loss = 1.0 / (i + 1);
      m.train_accuracy = 0.25 * i;
      m.test_accuracy = 0.2 * i;
    }
    if (i == 2) {  // dissimilarity measured this round
      m.grad_variance = 10.0 * i;
      m.dissimilarity_b = 1.0 + 0.1 * i;
    }
    m.mu = 0.1 * i;
    if (i == 1) m.mean_gamma = 0.5;
    m.contributors = i;
    m.stragglers = 4 - i;
    state.rounds.push_back(m);
  }
  const CheckpointState back = decode(encode_checkpoint_state(state));
  ASSERT_EQ(back.rounds.size(), state.rounds.size());
  for (std::size_t i = 0; i < state.rounds.size(); ++i) {
    const RoundMetrics& got = back.rounds[i];
    const RoundMetrics& want = state.rounds[i];
    EXPECT_EQ(got.round, want.round);
    EXPECT_EQ(got.evaluated(), want.evaluated());
    EXPECT_EQ(got.train_loss, want.train_loss);
    EXPECT_EQ(got.train_accuracy, want.train_accuracy);
    EXPECT_EQ(got.test_accuracy, want.test_accuracy);
    EXPECT_EQ(got.grad_variance, want.grad_variance);
    EXPECT_EQ(got.dissimilarity_b, want.dissimilarity_b);
    EXPECT_EQ(got.mu, want.mu);
    EXPECT_EQ(got.mean_gamma, want.mean_gamma);
    EXPECT_EQ(got.contributors, want.contributors);
    EXPECT_EQ(got.stragglers, want.stragglers);
  }
}

TEST_F(SerializeTest, RoundRecordRejectsCorruptFlag) {
  // A round record opens with u64 round | u8 evaluated; its length is
  // what one more record adds to the frame.
  CheckpointState no_rounds = small_state();
  no_rounds.rounds.clear();
  const std::size_t record = encode_checkpoint_state(small_state()).size() -
                             encode_checkpoint_state(no_rounds).size();
  WireBuffer body = body_of(encode_checkpoint_state(small_state()));
  const std::size_t evaluated = body.size() - record + 8;
  ASSERT_EQ(body[evaluated], 1u);
  body[evaluated] = 2;  // neither false nor true
  EXPECT_THROW((void)decode(reseal(body)), std::runtime_error);
}

// --- Federation payload codecs -------------------------------------------

// A broadcast with every field off its default, including doubles that
// only survive a bit-exact round trip.
OwnedBroadcast sample_broadcast() {
  OwnedBroadcast b;
  b.round = 17;
  b.config = RoundConfig{.mu = 0.1 + 0.2,  // not representable exactly
                         .batch_size = 32,
                         .learning_rate = 1e-3,
                         .measure_gamma = true};
  b.budget = DeviceBudget{
      .device = 6, .straggler = true, .epochs = 3, .iterations = 41};
  b.parameters = Vector{1.5, -2.25, 0.0, 1e-300, 1e300, 3.141592653589793};
  b.correction = Vector{-0.5, 0.125};
  return b;
}

ClientUpdate sample_update() {
  ClientUpdate u;
  u.round = 17;
  u.result.device = 6;
  u.result.update = Vector{0.75, -1e-20, 42.0};
  u.result.num_samples = 128;
  u.result.straggler = true;
  u.result.iterations = 41;
  u.result.gamma = 0.01;
  u.result.gamma_measured = true;
  u.result.solve_seconds = 0.0025;
  return u;
}

TEST_F(SerializeTest, BroadcastRoundTripsExactly) {
  const OwnedBroadcast b = sample_broadcast();
  const WireBuffer wire = encode_broadcast(b.view());
  EXPECT_EQ(wire.size(), broadcast_wire_size(b.view()));
  const OwnedBroadcast back = decode_broadcast(wire);
  EXPECT_EQ(back.round, b.round);
  EXPECT_EQ(back.config.mu, b.config.mu);
  EXPECT_EQ(back.config.batch_size, b.config.batch_size);
  EXPECT_EQ(back.config.learning_rate, b.config.learning_rate);
  EXPECT_EQ(back.config.measure_gamma, b.config.measure_gamma);
  EXPECT_EQ(back.budget.device, b.budget.device);
  EXPECT_EQ(back.budget.straggler, b.budget.straggler);
  EXPECT_EQ(back.budget.epochs, b.budget.epochs);
  EXPECT_EQ(back.budget.iterations, b.budget.iterations);
  EXPECT_EQ(back.parameters, b.parameters);  // bit-exact doubles
  EXPECT_EQ(back.correction, b.correction);
}

TEST_F(SerializeTest, UpdateRoundTripsExactly) {
  const ClientUpdate u = sample_update();
  const WireBuffer wire = encode_update(u);
  EXPECT_EQ(wire.size(), update_wire_size(u));
  const ClientUpdate back = decode_update(wire);
  EXPECT_EQ(back.round, u.round);
  EXPECT_EQ(back.result.device, u.result.device);
  EXPECT_EQ(back.result.update, u.result.update);
  EXPECT_EQ(back.result.num_samples, u.result.num_samples);
  EXPECT_EQ(back.result.straggler, u.result.straggler);
  EXPECT_EQ(back.result.iterations, u.result.iterations);
  EXPECT_EQ(back.result.gamma, u.result.gamma);
  EXPECT_EQ(back.result.gamma_measured, u.result.gamma_measured);
  EXPECT_EQ(back.result.solve_seconds, u.result.solve_seconds);
}

// The FPB1 and FPU1 layouts, byte for byte. Each sample's two
// flags differ in one of the frames, so swapping them shows.
TEST_F(SerializeTest, BroadcastFrameBytesArePinned) {
  for (const bool measure_gamma : {true, false}) {
    OwnedBroadcast b = sample_broadcast();
    b.config.measure_gamma = measure_gamma;
    FrameBuilder want("FPB1");
    want.u64(17).f64(0.1 + 0.2).u64(32).f64(1e-3).u8(measure_gamma);
    want.u64(6).u8(1).u64(3).u64(41);  // budget
    want.u64(6).f64(1.5).f64(-2.25).f64(0.0).f64(1e-300).f64(1e300);
    want.f64(3.141592653589793);       // parameters
    want.u64(2).f64(-0.5).f64(0.125);  // correction
    EXPECT_EQ(encode_broadcast(b.view()), want.bytes())
        << "measure_gamma " << measure_gamma;
  }
}

TEST_F(SerializeTest, UpdateFrameBytesArePinned) {
  for (const bool gamma_measured : {true, false}) {
    ClientUpdate u = sample_update();
    u.result.gamma_measured = gamma_measured;
    FrameBuilder want("FPU1");
    want.u64(17).u64(6).u64(128).u8(1).u64(41);
    want.f64(0.01).u8(gamma_measured).f64(0.0025);
    want.u64(3).f64(0.75).f64(-1e-20).f64(42.0);  // update
    EXPECT_EQ(encode_update(u), want.bytes())
        << "gamma_measured " << gamma_measured;
  }
}

TEST_F(SerializeTest, WirePayloadMatchesOldAnalyticalEstimate) {
  // Regression for the byte-accounting switch: for the uncompressed
  // float64 wire format, the payload past the fixed envelope is exactly
  // the d * sizeof(double) proxy the traces used to estimate.
  for (const std::size_t d : {0u, 1u, 61u, 7850u}) {
    EXPECT_EQ(broadcast_wire_size(d, 0) - broadcast_wire_size(0, 0),
              d * sizeof(double));
    EXPECT_EQ(update_wire_size(d) - update_wire_size(0), d * sizeof(double));
  }
  // A FedDane correction rides as a second payload of the same shape.
  EXPECT_EQ(broadcast_wire_size(10, 10) - broadcast_wire_size(0, 0),
            2 * 10 * sizeof(double));
}

TEST_F(SerializeTest, WireSizesAreTheEncodedLengths) {
  // InProcessTransport charges these sizes without encoding; they must
  // be what SerializedTransport's encoders produce.
  for (const std::size_t d : {0u, 1u, 61u, 4020u}) {
    for (const bool feddane : {false, true}) {
      SCOPED_TRACE(::testing::Message() << "d=" << d << " feddane=" << feddane);
      OwnedBroadcast b = sample_broadcast();
      b.parameters = Vector(d, 0.5);
      b.correction = feddane ? Vector(d, -0.25) : Vector{};
      const ModelBroadcast view = b.view();
      EXPECT_EQ(broadcast_wire_size(view), encode_broadcast(view).size());
      EXPECT_EQ(broadcast_wire_size(d, b.correction.size()),
                encode_broadcast(view).size());
    }
    ClientUpdate u = sample_update();
    u.result.update = Vector(d, 1.5);
    EXPECT_EQ(update_wire_size(u), encode_update(u).size()) << d;
    EXPECT_EQ(update_wire_size(d), encode_update(u).size()) << d;
    PartialSumUpdate p;
    p.partial =
        PartialAggregate(SamplingScheme::kUniformThenWeightedAverage, d);
    const Vector update(d, 0.75);
    p.partial.accumulate({0, &update, 3.0});
    EXPECT_EQ(partial_sum_wire_size(p), encode_partial_sum(p).size()) << d;
  }
}

// A shard partial with cancellation-heavy state: only an exact register
// round trip reproduces the finalized model bit-for-bit.
PartialSumUpdate sample_partial() {
  PartialSumUpdate p;
  p.round = 17;
  p.shard = 3;
  p.partial = PartialAggregate(SamplingScheme::kUniformThenWeightedAverage, 4);
  const Vector a{1e16, -2.25, 1e-300, 3.141592653589793};
  const Vector b{1.0, 2.25, -1e-300, -3.141592653589793};
  p.partial.accumulate({0, &a, 30.0});
  p.partial.accumulate({1, &b, 10.0});
  return p;
}

TEST_F(SerializeTest, PartialSumRoundTripsExactly) {
  const PartialSumUpdate p = sample_partial();
  const WireBuffer wire = encode_partial_sum(p);
  EXPECT_EQ(wire.size(), partial_sum_wire_size(p));
  const PartialSumUpdate back = decode_partial_sum(wire);
  EXPECT_EQ(back.round, p.round);
  EXPECT_EQ(back.shard, p.shard);
  EXPECT_EQ(back.partial.scheme(), p.partial.scheme());
  EXPECT_EQ(back.partial.dim(), p.partial.dim());
  EXPECT_EQ(back.partial.contributors(), p.partial.contributors());
  // The canonical registers round-trip byte for byte (a canonical
  // register is unique per exact value, so this pins every coordinate's
  // exact sum and the weight total)...
  EXPECT_TRUE(std::ranges::equal(back.partial.weight_register(),
                                 p.partial.weight_register()));
  EXPECT_TRUE(std::ranges::equal(back.partial.coordinate_registers(),
                                 p.partial.coordinate_registers()));
  const auto sent = p.partial.coordinate_registers();
  const auto got = back.partial.coordinate_registers();
  for (std::size_t i = 0, at = 0; i < p.partial.dim(); ++i) {
    const std::size_t len = ExactSum::register_size(sent.data() + at);
    EXPECT_TRUE(std::equal(sent.begin() + at, sent.begin() + at + len,
                           got.begin() + at))
        << i;
    at += len;
  }
  // ...so the finalized model is bit-identical.
  Vector expected(p.partial.dim()), decoded(p.partial.dim());
  ASSERT_TRUE(p.partial.finalize(expected));
  ASSERT_TRUE(back.partial.finalize(decoded));
  EXPECT_EQ(expected, decoded);
}

// FPS2 registers are sized by their content, so the frame is pinned by
// size and digest rather than field by field.
TEST_F(SerializeTest, PartialSumFrameIsPinned) {
  const WireBuffer wire = encode_partial_sum(sample_partial());
  EXPECT_EQ(wire.size(), 87u);
  EXPECT_EQ(reference_fnv1a(wire), 0xf4ef052309360079ull);
}

TEST_F(SerializeTest, EmptyPartialSumRoundTrips) {
  PartialSumUpdate p;
  p.partial = PartialAggregate(SamplingScheme::kWeightedThenSimpleAverage, 2);
  const PartialSumUpdate back = decode_partial_sum(encode_partial_sum(p));
  EXPECT_EQ(back.partial.scheme(), p.partial.scheme());
  EXPECT_EQ(back.partial.contributors(), 0u);
  Vector w{5.0, 6.0};
  EXPECT_FALSE(back.partial.finalize(w));  // still degraded after the wire
}

TEST_F(SerializeTest, DecodePartialSumRejectsCorruptBuffers) {
  const WireBuffer wire = encode_partial_sum(sample_partial());

  for (const std::size_t keep :
       {std::size_t{0}, std::size_t{3}, std::size_t{19}, wire.size() / 2,
        wire.size() - 1}) {
    WireBuffer cut(wire.begin(), wire.begin() + keep);
    EXPECT_THROW(decode_partial_sum(cut), std::runtime_error) << keep;
  }

  WireBuffer bad_magic = wire;
  bad_magic[2] = 'Q';
  EXPECT_THROW(decode_partial_sum(bad_magic), std::runtime_error);

  WireBuffer trailing = wire;
  trailing.push_back(0);
  EXPECT_THROW(decode_partial_sum(trailing), std::runtime_error);

  WireBuffer bad_scheme = wire;
  bad_scheme[4 + 8 + 8] = 9;  // scheme byte: not 0/1
  EXPECT_THROW(decode_partial_sum(bad_scheme), std::runtime_error);
}

// A register that sets the non-finite marker must carry ±inf or NaN:
// a finite payload there would make value() silently return it.
TEST_F(SerializeTest, PartialSumDecoderRejectsFiniteNonfinitePayload) {
  const auto frames = testing::malformed_partial_frames();
  const auto it = std::ranges::find_if(frames, [](const auto& f) {
    return f.first == "finite value behind the non-finite marker";
  });
  ASSERT_NE(it, frames.end());
  EXPECT_THROW(decode_partial_sum(it->second), std::runtime_error);
  // The same frame with an infinite payload is fine.
  WireBuffer reg{0, ExactSum::kNonfiniteMarker, 0, 0, 0, 0, 0, 0, 0, 0};
  const double inf = std::numeric_limits<double>::infinity();
  std::memcpy(reg.data() + 2, &inf, sizeof(inf));
  const PartialSumUpdate ok =
      decode_partial_sum(testing::partial_frame_with_register(1, reg));
  Vector w(3);
  ASSERT_TRUE(ok.partial.finalize(w));
  EXPECT_EQ(w[1], inf);
}

// A register marked finite has no side-channel payload; one spliced in
// after it cannot be read as anything but a malformed frame.
TEST_F(SerializeTest, PartialSumDecoderRejectsPayloadOnFiniteRegister) {
  const auto frames = testing::malformed_partial_frames();
  const auto it = std::ranges::find_if(frames, [](const auto& f) {
    return f.first == "payload on a finite register";
  });
  ASSERT_NE(it, frames.end());
  EXPECT_THROW(decode_partial_sum(it->second), std::runtime_error);
}

TEST_F(SerializeTest, DecodePartialSumRejectsMalformedWindows) {
  for (const auto& [what, frame] : testing::malformed_partial_frames()) {
    EXPECT_THROW(decode_partial_sum(frame), std::runtime_error) << what;
  }
  // The splice is faithful: putting a register back gives the pristine
  // frame, which decodes.
  const WireBuffer pristine =
      encode_partial_sum(testing::three_coordinate_partial());
  EXPECT_EQ(testing::partial_frame_with_register(
                2, testing::partial_frame_register(2)),
            pristine);
  EXPECT_NO_THROW(decode_partial_sum(pristine));
}

TEST_F(SerializeTest, PartialSumWireSizeMatchesTheEncodingAndReencodes) {
  PartialSumUpdate nonfinite;
  nonfinite.partial =
      PartialAggregate(SamplingScheme::kUniformThenWeightedAverage, 3);
  const Vector u{std::numeric_limits<double>::quiet_NaN(), -1e308, 5e-324};
  nonfinite.partial.accumulate({0, &u, 2.0});
  PartialSumUpdate empty;
  empty.partial = PartialAggregate(SamplingScheme::kWeightedThenSimpleAverage, 5);
  for (const PartialSumUpdate& p : {sample_partial(), nonfinite, empty}) {
    const WireBuffer wire = encode_partial_sum(p);
    EXPECT_EQ(wire.size(), partial_sum_wire_size(p));
    // encode(decode(frame)) gives back the same bytes.
    EXPECT_EQ(encode_partial_sum(decode_partial_sum(wire)), wire);
  }
}

TEST_F(SerializeTest, DenseFps1FramesAreRefused) {
  WireBuffer old = encode_partial_sum(sample_partial());
  old[3] = '1';  // the dense-register layout's magic
  EXPECT_THROW(decode_partial_sum(old), std::runtime_error);
}

TEST_F(SerializeTest, DecodeBroadcastRejectsCorruptBuffers) {
  const WireBuffer wire = encode_broadcast(sample_broadcast().view());

  // Truncation: every proper prefix must throw, never read past the end.
  for (const std::size_t keep :
       {std::size_t{0}, std::size_t{3}, std::size_t{11}, wire.size() / 2,
        wire.size() - 1}) {
    WireBuffer cut(wire.begin(), wire.begin() + keep);
    EXPECT_THROW(decode_broadcast(cut), std::runtime_error) << keep;
  }

  WireBuffer bad_magic = wire;
  bad_magic[0] = 'X';
  EXPECT_THROW(decode_broadcast(bad_magic), std::runtime_error);

  WireBuffer trailing = wire;
  trailing.push_back(0);
  EXPECT_THROW(decode_broadcast(trailing), std::runtime_error);

  WireBuffer bad_flag = wire;
  bad_flag[4 + 8 + 8 + 8 + 8] = 7;  // measure_gamma byte: not 0/1
  EXPECT_THROW(decode_broadcast(bad_flag), std::runtime_error);
}

TEST_F(SerializeTest, DecodeUpdateRejectsCorruptBuffers) {
  const WireBuffer wire = encode_update(sample_update());

  for (const std::size_t keep :
       {std::size_t{0}, std::size_t{3}, wire.size() / 2, wire.size() - 1}) {
    WireBuffer cut(wire.begin(), wire.begin() + keep);
    EXPECT_THROW(decode_update(cut), std::runtime_error) << keep;
  }

  WireBuffer bad_magic = wire;
  bad_magic[3] = '9';
  EXPECT_THROW(decode_update(bad_magic), std::runtime_error);

  WireBuffer trailing = wire;
  trailing.push_back(1);
  EXPECT_THROW(decode_update(trailing), std::runtime_error);

  WireBuffer bad_flag = wire;
  bad_flag[4 + 8 + 8 + 8] = 0xFF;  // straggler byte: not 0/1
  EXPECT_THROW(decode_update(bad_flag), std::runtime_error);
}

}  // namespace
}  // namespace fed
