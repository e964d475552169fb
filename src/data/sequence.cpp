#include "data/sequence.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <stdexcept>

#include "tensor/ops.h"

namespace fed {

void softmax_inplace(std::span<double> logits) {
  assert(!logits.empty());
  const double m = *std::max_element(logits.begin(), logits.end());
  double total = 0.0;
  for (double& v : logits) {
    v = std::exp(v - m);
    total += v;
  }
  for (double& v : logits) v /= total;
}

NextCharConfig shakespeare_like_config(std::uint64_t seed, double scale) {
  NextCharConfig c;
  c.seed = seed;
  c.num_devices = std::max<std::size_t>(
      8, static_cast<std::size_t>(std::llround(32 * scale)));
  return c;
}

SentimentConfig sent140_like_config(std::uint64_t seed, double scale) {
  SentimentConfig c;
  c.seed = seed;
  c.num_devices = std::max<std::size_t>(
      8, static_cast<std::size_t>(std::llround(96 * scale)));
  return c;
}

FederatedDataset make_next_char(const NextCharConfig& config) {
  if (config.num_devices == 0 || config.vocab_size < 2 || config.seq_len == 0) {
    throw std::invalid_argument("make_next_char: bad config");
  }
  const std::size_t v = config.vocab_size;

  FederatedDataset fed;
  fed.name = config.name;
  fed.num_classes = v;  // predict the next character
  fed.vocab_size = v;
  fed.clients.resize(config.num_devices);

  Rng meta = make_stream(config.seed, StreamKind::kDataGeneration);

  // Global transition logits and character popularity shared by every
  // device.
  Matrix global_logits(v, v);
  for (double& x : global_logits.storage()) x = meta.normal(0.0, 1.0);
  Vector popularity(v);
  for (double& x : popularity) x = meta.normal(0.0, config.popularity_scale);

  const auto stream_lens =
      power_law_sample_counts(config.num_devices, config.min_stream,
                              config.mean_log, config.sigma_log, meta);

  for (std::size_t k = 0; k < config.num_devices; ++k) {
    Rng rng = make_stream(config.seed, StreamKind::kDataGeneration, k + 1);

    // Device transition matrix: softmax rows of G + het * D_k.
    Matrix probs(v, v);
    for (std::size_t r = 0; r < v; ++r) {
      auto row = probs.row(r);
      for (std::size_t c = 0; c < v; ++c) {
        row[c] = popularity[c] + config.sharpness * global_logits(r, c) +
                 config.heterogeneity * rng.normal(0.0, 1.0);
      }
      softmax_inplace(row);
    }

    // Emit the character stream.
    const std::size_t len = stream_lens[k] + config.seq_len;
    std::vector<std::int32_t> stream(len);
    stream[0] = static_cast<std::int32_t>(rng.uniform_int(v));
    for (std::size_t t = 1; t < len; ++t) {
      auto row = probs.row(static_cast<std::size_t>(stream[t - 1]));
      stream[t] = static_cast<std::int32_t>(rng.categorical(row));
    }

    // Sliding windows: tokens [t, t+seq_len) -> label stream[t+seq_len].
    Dataset all;
    const std::size_t n = len - config.seq_len;
    all.tokens.reserve(n);
    all.labels.reserve(n);
    for (std::size_t t = 0; t + config.seq_len < len; ++t) {
      all.tokens.emplace_back(stream.begin() + static_cast<long>(t),
                              stream.begin() +
                                  static_cast<long>(t + config.seq_len));
      all.labels.push_back(stream[t + config.seq_len]);
    }
    all.validate(v);

    Rng split_rng = make_stream(config.seed, StreamKind::kPartition, k + 1);
    fed.clients[k] = train_test_split(all, config.train_fraction, split_rng);
  }
  return fed;
}

FederatedDataset make_sentiment(const SentimentConfig& config) {
  if (config.num_devices == 0 || config.seq_len == 0 ||
      config.num_sentiment_tokens % 2 != 0 ||
      config.num_sentiment_tokens + 2 > config.vocab_size) {
    throw std::invalid_argument("make_sentiment: bad config");
  }
  const std::size_t v = config.vocab_size;
  const std::size_t n_sent = config.num_sentiment_tokens;
  const std::size_t n_pos = n_sent / 2;          // token ids [0, n_pos)
  const std::size_t n_neutral = v - n_sent;      // ids [n_sent, v)

  FederatedDataset fed;
  fed.name = config.name;
  fed.num_classes = 2;
  fed.vocab_size = v;
  fed.clients.resize(config.num_devices);

  Rng meta = make_stream(config.seed, StreamKind::kDataGeneration);
  const auto counts =
      power_law_sample_counts(config.num_devices, config.min_samples,
                              config.mean_log, config.sigma_log, meta);

  for (std::size_t k = 0; k < config.num_devices; ++k) {
    Rng rng = make_stream(config.seed, StreamKind::kDataGeneration, k + 1);

    // Device topic distribution over neutral tokens.
    Vector topic(n_neutral);
    for (double& x : topic) {
      x = config.topic_heterogeneity * rng.normal(0.0, 1.0);
    }
    softmax_inplace(topic);

    // Device class prior, centred on 0.5 with spread.
    const double prior =
        std::clamp(0.5 + 0.25 * rng.normal(0.0, 1.0), 0.1, 0.9);

    Dataset all;
    all.tokens.reserve(counts[k]);
    all.labels.reserve(counts[k]);
    for (std::size_t i = 0; i < counts[k]; ++i) {
      const std::int32_t label = rng.bernoulli(prior) ? 1 : 0;
      std::vector<std::int32_t> seq(config.seq_len);
      for (auto& tok : seq) {
        if (rng.bernoulli(config.sentiment_token_rate)) {
          // Sentiment-bearing token, occasionally of the wrong polarity.
          const bool positive =
              (label == 1) != rng.bernoulli(config.flip_rate);
          const std::size_t offset = positive ? 0 : n_pos;
          tok = static_cast<std::int32_t>(offset + rng.uniform_int(n_pos));
        } else {
          tok = static_cast<std::int32_t>(n_sent + rng.categorical(topic));
        }
      }
      all.tokens.push_back(std::move(seq));
      all.labels.push_back(label);
    }
    all.validate(2);

    Rng split_rng = make_stream(config.seed, StreamKind::kPartition, k + 1);
    fed.clients[k] = train_test_split(all, config.train_fraction, split_rng);
  }
  return fed;
}

}  // namespace fed
