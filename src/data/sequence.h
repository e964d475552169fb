// Synthetic stand-ins for the paper's text tasks.
//
// Shakespeare (next-character prediction, one device per speaking role):
// each device k emits characters from its own Markov chain whose
// transition logits are G + het * D_k, where G is a global logits matrix
// and D_k is device-specific. Training samples are sliding windows of
// `seq_len` characters labelled with the next character. This reproduces
// the essential statistic — per-device conditional next-char
// distributions that differ across devices — on the same 2-layer-LSTM
// code path.
//
// Sent140 (binary sentiment, one device per account): a fixed vocabulary
// contains positive-sentiment tokens, negative-sentiment tokens, and
// neutral "topic" tokens. Device k has its own topic preference (how it
// talks) and class prior (how often it is positive). A sample of label y
// mixes sentiment tokens of polarity y with topic tokens; a small flip
// rate injects contradictory tokens so the task is not separable by a
// single token. The model reads these through a frozen embedding
// (GloVe stand-in), as in the paper.

#pragma once

#include <cstdint>
#include <span>
#include <string>

#include "data/dataset.h"

namespace fed {

struct NextCharConfig {
  std::string name = "shakespeare_like";
  std::size_t num_devices = 32;  // paper: 143 roles; scaled for CPU budget
  std::size_t vocab_size = 40;   // paper task uses 80 chars; scaled
  std::size_t seq_len = 12;      // paper: 80; scaled
  // Stream length per device follows a power law (Table 1 shows a very
  // heavy tail: mean 3616, stdev 6808 samples per role; scaled down so a
  // 20-epoch round stays CPU-affordable).
  std::size_t min_stream = 60;
  double mean_log = 3.6;
  double sigma_log = 0.8;
  // Transition logits are popularity(c) + sharpness*G(r,c) + het*D_k(r,c):
  // `popularity` (a shared per-character bias, N(0, popularity_scale))
  // skews the unigram distribution the way real text is skewed — learning
  // it produces the fast initial loss drop the paper's curves show;
  // `sharpness` controls how predictable the shared language is;
  // `heterogeneity` how far each role's style drifts.
  double popularity_scale = 1.5;
  double sharpness = 2.0;
  double heterogeneity = 0.8;
  double train_fraction = 0.8;
  std::uint64_t seed = 1;
};

struct SentimentConfig {
  std::string name = "sent140_like";
  std::size_t num_devices = 96;  // paper: 772 accounts; scaled
  std::size_t vocab_size = 200;
  std::size_t num_sentiment_tokens = 24;  // split evenly positive/negative
  std::size_t seq_len = 12;               // paper: 25; scaled
  // Samples (tweets) per device: Table 1 gives mean 53, stdev 32.
  std::size_t min_samples = 20;
  double mean_log = 3.3;
  double sigma_log = 0.6;
  // Calibrated so an LSTM lands near the paper's Sent140 accuracy
  // (~0.75-0.8) instead of saturating: sparse sentiment tokens, a quarter
  // of which carry the wrong polarity (sarcasm/negation stand-in).
  double topic_heterogeneity = 1.5;  // device topic-preference spread
  double sentiment_token_rate = 0.25;  // fraction of sentiment positions
  double flip_rate = 0.25;  // chance a sentiment token has wrong polarity
  double train_fraction = 0.8;
  std::uint64_t seed = 1;
};

NextCharConfig shakespeare_like_config(std::uint64_t seed = 1,
                                       double scale = 1.0);
SentimentConfig sent140_like_config(std::uint64_t seed = 1,
                                    double scale = 1.0);

FederatedDataset make_next_char(const NextCharConfig& config);
FederatedDataset make_sentiment(const SentimentConfig& config);

// In-place softmax over `logits` (max-shifted, host libm exp). The
// generators' per-device distributions; part of data generation, not of
// any model.
void softmax_inplace(std::span<double> logits);

}  // namespace fed
