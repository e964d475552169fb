// Corruption fuzz for the FPB1/FPU1/FPS2/FPC1 wire decoders: feed
// thousands of randomly mutated (bit-flipped, truncated, extended,
// spliced) valid encodings through decode_broadcast/decode_update/
// decode_partial_sum/decode_checkpoint_state and require that every
// outcome is either a successful decode or a clean std::runtime_error —
// never any other exception type, crash, or sanitizer finding. The
// ASan/UBSan and TSan CI jobs run this test, so out-of-bounds reads in
// the decoders' length handling fail loudly. The checkpoint frame is
// held to a stricter bar: its FNV-1a trailer covers the whole frame, so
// EVERY mutation that changes the bytes must be rejected (a silently
// accepted mutation could resume training from corrupt state).

#include <gtest/gtest.h>

#include <span>
#include <stdexcept>

#include "support/rng.h"
#include "support/serialize.h"
#include "test_util.h"

namespace fed {
namespace {

// What happened when a mutated buffer hit a decoder.
enum class DecodeOutcome { kAccepted, kRejected };

template <typename Decoder>
DecodeOutcome run_decoder(const Decoder& decode, const WireBuffer& buffer) {
  try {
    decode(std::span<const std::uint8_t>(buffer));
    return DecodeOutcome::kAccepted;
  } catch (const std::runtime_error&) {
    return DecodeOutcome::kRejected;  // the only acceptable failure mode
  }
  // Any other exception type propagates and fails the test.
}

// One deterministic mutation of `wire`, chosen and parameterized by `rng`.
WireBuffer mutate(const WireBuffer& wire, Rng& rng) {
  WireBuffer out = wire;
  switch (rng.uniform_int(std::uint64_t{5})) {
    case 0: {  // flip 1..8 random bits
      const std::uint64_t flips = 1 + rng.uniform_int(std::uint64_t{8});
      for (std::uint64_t i = 0; i < flips; ++i) {
        const std::uint64_t bit = rng.uniform_int(out.size() * 8);
        out[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
      }
      break;
    }
    case 1:  // truncate to a strictly shorter prefix (possibly empty)
      out.resize(rng.uniform_int(out.size()));
      break;
    case 2: {  // append trailing garbage
      const std::uint64_t extra = 1 + rng.uniform_int(std::uint64_t{64});
      for (std::uint64_t i = 0; i < extra; ++i) {
        out.push_back(
            static_cast<std::uint8_t>(rng.uniform_int(std::uint64_t{256})));
      }
      break;
    }
    case 3: {  // overwrite a random 8-byte window (length fields, magic)
      const std::uint64_t at =
          rng.uniform_int(std::uint64_t{out.size()});
      for (std::uint64_t i = at; i < out.size() && i < at + 8; ++i) {
        out[i] = static_cast<std::uint8_t>(rng.uniform_int(std::uint64_t{256}));
      }
      break;
    }
    default: {  // random cut-and-shift splice: drop a middle chunk
      const std::uint64_t begin = rng.uniform_int(out.size());
      const std::uint64_t len =
          1 + rng.uniform_int(std::uint64_t{out.size() - begin});
      out.erase(out.begin() + static_cast<std::ptrdiff_t>(begin),
                out.begin() + static_cast<std::ptrdiff_t>(begin + len));
      break;
    }
  }
  return out;
}

class SerializeFuzzTest : public ::testing::Test {
 protected:
  static constexpr std::size_t kSeeds = 4000;

  static WireBuffer valid_broadcast() {
    ModelBroadcast b;
    b.round = 3;
    b.config = RoundConfig{.mu = 0.5,
                           .batch_size = 10,
                           .learning_rate = 0.05,
                           .measure_gamma = true};
    b.budget = DeviceBudget{.device = 4,
                            .straggler = true,
                            .epochs = 2,
                            .iterations = 17};
    static const Vector params = [] {
      Vector v(37);
      for (std::size_t i = 0; i < v.size(); ++i) {
        v[i] = 0.25 * static_cast<double>(i) - 3.0;
      }
      return v;
    }();
    b.parameters = params;
    b.correction = std::span<const double>(params).subspan(0, 5);
    return encode_broadcast(b);
  }

  static WireBuffer valid_update() {
    ClientUpdate u;
    u.round = 3;
    u.result.device = 4;
    u.result.num_samples = 123;
    u.result.straggler = true;
    u.result.iterations = 17;
    u.result.gamma = 0.125;
    u.result.gamma_measured = true;
    u.result.solve_seconds = 0.001;
    u.result.update = Vector(37);
    for (std::size_t i = 0; i < u.result.update.size(); ++i) {
      u.result.update[i] = -1.5 + 0.5 * static_cast<double>(i);
    }
    return encode_update(u);
  }

  static WireBuffer valid_partial() {
    PartialSumUpdate p;
    p.round = 3;
    p.shard = 2;
    p.partial =
        PartialAggregate(SamplingScheme::kUniformThenWeightedAverage, 9);
    static const Vector update = [] {
      Vector v(9);
      for (std::size_t i = 0; i < v.size(); ++i) {
        v[i] = 0.75 - 0.3 * static_cast<double>(i);
      }
      return v;
    }();
    p.partial.accumulate({4, &update, 123.0});
    p.partial.accumulate({5, &update, 7.0});
    return encode_partial_sum(p);
  }

  static WireBuffer valid_checkpoint() {
    CheckpointState state;
    state.fingerprint = 0xfeedfacecafebeefull;
    state.seed = 7;
    state.next_round = 41;
    state.mu = 0.5;
    state.mu_state = {.last = 1.5, .has_last = true, .streak = 2};
    state.parameters = Vector(23);
    for (std::size_t i = 0; i < state.parameters.size(); ++i) {
      state.parameters[i] = 0.5 * static_cast<double>(i) - 4.0;
    }
    state.population = 30;
    state.churn_arrivals = 11;
    state.churn_departures = 9;
    state.active = std::vector<std::uint8_t>(4, 0xB7);
    RoundMetrics m;
    m.round = 40;
    m.train_loss = 0.75;
    m.train_accuracy = 0.5;
    m.test_accuracy = 0.625;
    m.mu = 0.5;
    m.contributors = 8;
    m.stragglers = 3;
    RoundMetrics first;
    first.round = 39;
    first.mu = 0.5;
    state.rounds = {first, m};
    return encode_checkpoint_state(state);
  }
};

TEST_F(SerializeFuzzTest, MutatedBroadcastsDecodeOrRejectCleanly) {
  const WireBuffer wire = valid_broadcast();
  std::size_t rejected = 0;
  for (std::size_t seed = 0; seed < kSeeds; ++seed) {
    Rng rng(seed, {static_cast<std::uint64_t>(StreamKind::kTest), 1});
    const WireBuffer damaged = mutate(wire, rng);
    const auto outcome = run_decoder(
        [](std::span<const std::uint8_t> b) { return decode_broadcast(b); },
        damaged);
    if (outcome == DecodeOutcome::kRejected) ++rejected;
  }
  // Structural mutations (truncation, splices, magic damage) dominate;
  // most of the corpus must be rejected, and none may escape as another
  // exception type (which would have failed the decode call above).
  EXPECT_GT(rejected, kSeeds / 2);
}

TEST_F(SerializeFuzzTest, MutatedUpdatesDecodeOrRejectCleanly) {
  const WireBuffer wire = valid_update();
  std::size_t rejected = 0;
  for (std::size_t seed = 0; seed < kSeeds; ++seed) {
    Rng rng(seed, {static_cast<std::uint64_t>(StreamKind::kTest), 2});
    const WireBuffer damaged = mutate(wire, rng);
    const auto outcome = run_decoder(
        [](std::span<const std::uint8_t> b) { return decode_update(b); },
        damaged);
    if (outcome == DecodeOutcome::kRejected) ++rejected;
  }
  EXPECT_GT(rejected, kSeeds / 2);
}

TEST_F(SerializeFuzzTest, MutatedPartialSumsDecodeOrRejectCleanly) {
  const WireBuffer wire = valid_partial();
  std::size_t rejected = 0;
  for (std::size_t seed = 0; seed < kSeeds; ++seed) {
    Rng rng(seed, {static_cast<std::uint64_t>(StreamKind::kTest), 3});
    const WireBuffer damaged = mutate(wire, rng);
    const auto outcome = run_decoder(
        [](std::span<const std::uint8_t> b) { return decode_partial_sum(b); },
        damaged);
    if (outcome == DecodeOutcome::kRejected) ++rejected;
  }
  EXPECT_GT(rejected, kSeeds / 2);
}

// Seeds aimed at the FPS2 register validation: every way a register can
// be malformed (a window past the register, a redundant sign digit, a
// zero low digit, a truncated digit run, an inconsistent non-finite side
// channel). Each seed is rejected as it is, and its mutations must still
// decode or reject cleanly.
TEST_F(SerializeFuzzTest, MalformedRegisterSeedsAreRejected) {
  std::uint64_t stream = 0;
  for (const auto& [what, seed] : testing::malformed_partial_frames()) {
    EXPECT_EQ(run_decoder([](std::span<const std::uint8_t> b) {
                return decode_partial_sum(b);
              }, seed),
              DecodeOutcome::kRejected)
        << what;
    ++stream;
    for (std::size_t i = 0; i < kSeeds / 8; ++i) {
      Rng rng(i, {static_cast<std::uint64_t>(StreamKind::kTest), 5, stream});
      (void)run_decoder(
          [](std::span<const std::uint8_t> b) { return decode_partial_sum(b); },
          mutate(seed, rng));
    }
  }
}

TEST_F(SerializeFuzzTest, MutatedCheckpointsAreAlwaysRejected) {
  // Unlike the channel frames, the checkpoint trailer checksums the
  // whole frame, so NO byte-changing mutation may survive: a mutation
  // either leaves the buffer bit-identical or the decode throws.
  const WireBuffer wire = valid_checkpoint();
  std::size_t unchanged = 0;
  for (std::size_t seed = 0; seed < kSeeds; ++seed) {
    Rng rng(seed, {static_cast<std::uint64_t>(StreamKind::kTest), 4});
    const WireBuffer damaged = mutate(wire, rng);
    if (damaged == wire) {
      ++unchanged;  // e.g. an 8-byte window overwritten with itself
      continue;
    }
    EXPECT_THROW((void)decode_checkpoint_state(
                     std::span<const std::uint8_t>(damaged)),
                 std::runtime_error)
        << "mutation seed " << seed << " survived the checksum";
  }
  EXPECT_LT(unchanged, kSeeds / 10);
}

TEST_F(SerializeFuzzTest, CheckpointChecksumTrailerCatchesTargetedFlips) {
  // Flip exactly one bit in the trailer itself and in the first payload
  // byte after the header — the two cheapest-to-miss spots.
  const WireBuffer wire = valid_checkpoint();
  for (const std::size_t byte :
       {wire.size() - 1, wire.size() - 8, std::size_t{12}, std::size_t{4}}) {
    for (int bit = 0; bit < 8; ++bit) {
      WireBuffer damaged = wire;
      damaged[byte] ^= static_cast<std::uint8_t>(1 << bit);
      EXPECT_THROW((void)decode_checkpoint_state(
                       std::span<const std::uint8_t>(damaged)),
                   std::runtime_error)
          << "flip at byte " << byte << " bit " << bit;
    }
  }
}

TEST_F(SerializeFuzzTest, CheckpointTruncationsAreAllRejected) {
  const WireBuffer wire = valid_checkpoint();
  for (std::size_t len = 0; len < wire.size(); ++len) {
    WireBuffer prefix(wire.begin(),
                      wire.begin() + static_cast<std::ptrdiff_t>(len));
    EXPECT_THROW((void)decode_checkpoint_state(
                     std::span<const std::uint8_t>(prefix)),
                 std::runtime_error)
        << "prefix of " << len << " bytes decoded";
  }
}

TEST_F(SerializeFuzzTest, DegenerateBuffersAreRejected) {
  for (const WireBuffer& buffer :
       {WireBuffer{}, WireBuffer{0x00}, WireBuffer{'F', 'P', 'B', '1'},
        WireBuffer{'F', 'P', 'U', '1'}, WireBuffer{'F', 'P', 'S', '1'},
        WireBuffer{'F', 'P', 'C', '1'}, WireBuffer(3, 0xFF),
        WireBuffer(11, 0xAB)}) {
    EXPECT_THROW((void)decode_broadcast(buffer), std::runtime_error);
    EXPECT_THROW((void)decode_update(buffer), std::runtime_error);
    EXPECT_THROW((void)decode_partial_sum(buffer), std::runtime_error);
    EXPECT_THROW((void)decode_checkpoint_state(buffer), std::runtime_error);
  }
}

TEST_F(SerializeFuzzTest, IntactBuffersStillRoundTrip) {
  // The fuzz corpus is anchored on these encodings; make sure they are
  // actually valid, so a rejection above means the mutation was caught.
  const OwnedBroadcast b =
      decode_broadcast(std::span<const std::uint8_t>(valid_broadcast()));
  EXPECT_EQ(b.round, 3u);
  EXPECT_EQ(b.parameters.size(), 37u);
  EXPECT_EQ(b.correction.size(), 5u);
  const ClientUpdate u =
      decode_update(std::span<const std::uint8_t>(valid_update()));
  EXPECT_EQ(u.result.device, 4u);
  EXPECT_EQ(u.result.update.size(), 37u);
  const PartialSumUpdate p =
      decode_partial_sum(std::span<const std::uint8_t>(valid_partial()));
  EXPECT_EQ(p.shard, 2u);
  EXPECT_EQ(p.partial.dim(), 9u);
  EXPECT_EQ(p.partial.contributors(), 2u);
  const CheckpointState s =
      decode_checkpoint_state(std::span<const std::uint8_t>(valid_checkpoint()));
  EXPECT_EQ(s.next_round, 41u);
  EXPECT_EQ(s.parameters.size(), 23u);
  EXPECT_EQ(s.rounds.size(), 2u);
}

}  // namespace
}  // namespace fed
