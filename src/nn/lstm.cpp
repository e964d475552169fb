#include "nn/lstm.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <optional>
#include <stdexcept>

#include "nn/batch.h"
#include "nn/loss.h"
#include "tensor/ops.h"
#include "tensor/vmath.h"

namespace fed {

namespace {
// Gate block offsets within the 4H pre-activation vector.
enum Gate { kInput = 0, kForget = 1, kCandidate = 2, kOutput = 3 };

// Most rows (samples x steps) one run holds. Training keeps about 2 KB of
// activations per row (hidden 16, two layers) on every pool thread at
// once, so this bounds the process's peak memory. Sequences longer than
// this run one sample at a time.
constexpr std::size_t kRunRows = 64;

std::size_t layer_input_dim(const LstmConfig& c, std::size_t layer) {
  return layer == 0 ? c.embed_dim : c.hidden_dim;
}

std::size_t layer_param_count(const LstmConfig& c, std::size_t layer) {
  const std::size_t h = c.hidden_dim;
  return 4 * h * layer_input_dim(c, layer) + 4 * h * h + 4 * h;
}

Matrix transposed(const ConstMatrixView& a) {
  Matrix at(a.cols(), a.rows());
  transpose(a, at);
  return at;
}

// Calls fn(run, length) for each run of `batch`: consecutive samples of
// equal sequence length, at most kRunRows rows of them, in batch order.
template <class Fn>
void for_each_run(const Dataset& data, std::span<const std::size_t> batch,
                  Fn&& fn) {
  std::size_t begin = 0;
  while (begin < batch.size()) {
    const std::size_t length = data.tokens[batch[begin]].size();
    if (length == 0) {
      throw std::invalid_argument("LstmClassifier: empty token sequence");
    }
    const std::size_t cap = std::max<std::size_t>(1, kRunRows / length);
    std::size_t end = begin + 1;
    while (end < batch.size() && end - begin < cap &&
           data.tokens[batch[end]].size() == length) {
      ++end;
    }
    fn(batch.subspan(begin, end - begin), length);
    begin = end;
  }
}

// One call's weights and scratch, reused by every run of the call.
//
// Row layout of a run of B samples of length T: row s*T + (T-1-t) holds
// sample s at step t, so each sample's rows run newest step first. That
// is the order BPTT accumulates parameter gradients in (sample
// ascending, timestep descending), which lets one ger_batch over all
// rows reproduce the sample-by-sample sums bit for bit.
class LstmPass {
 public:
  LstmPass(const LstmConfig& config, std::span<const double> w, bool train);

  // Forward pass over one run; returns its B x C logits.
  MatrixView forward(const Dataset& data, std::span<const std::size_t> run,
                     std::size_t length);
  // After forward(): adds the run's losses to `total` sample by sample
  // and its gradient sums to `grad`.
  void backward(const Dataset& data, std::span<const std::size_t> run,
                std::span<double> grad, double& total);

 private:
  struct Layer {
    std::size_t in;      // input width
    std::size_t offset;  // of [Wx | Wh | b] in the flat vector
    ConstMatrixView wx;  // 4H x in
    ConstMatrixView wh;  // 4H x H
    std::span<const double> b;
    Matrix wx_t, wh_t;  // transposed copies: the forward's B operands
    Vector h, c;        // B x H: recurrent state
    // Training only: the run's activations, rows x width in the layout
    // above, for BPTT. `hidden` is also the input the next layer's Wx
    // gradient needs.
    Vector gates, cell, tanh_cell, hidden;
  };

  std::size_t row(std::size_t s, std::size_t t) const {
    return s * steps_ + (steps_ - 1 - t);
  }
  std::span<const double> embedding_row(std::int32_t token) const;

  const LstmConfig& config_;
  const bool train_;
  std::span<const double> embedding_;  // trainable table, else empty
  std::vector<Layer> layers_;
  std::size_t out_offset_ = 0;
  ConstMatrixView w_out_;  // C x H
  std::span<const double> b_out_;
  Matrix w_out_t_;

  std::size_t samples_ = 0, steps_ = 0;  // shape of the current run
  Vector inputs_;      // rows x E: token embeddings (training only)
  Vector x_step_;      // B x E: token embeddings of one step
  Vector zx_, zh_;     // B x 4H: Wx x and Wh h of one step
  Vector logits_;      // B x C
  Vector dz_step_;     // B x 4H: gate pre-activation gradients of one step
  Vector dh_, dc_;     // B x H: BPTT running gradients
  Vector below_[2];    // rows x in: gradients sent to the layer below
  Vector zeros_;       // H zeros: c_{-1}
};

LstmPass::LstmPass(const LstmConfig& config, std::span<const double> w,
                   bool train)
    : config_(config),
      train_(train),
      w_out_({}, 0, 0),
      zeros_(config.hidden_dim, 0.0) {
  const std::size_t h = config.hidden_dim;
  std::size_t off = 0;
  if (config.trainable_embedding) {
    embedding_ = w.subspan(0, config.vocab_size * config.embed_dim);
    off += embedding_.size();
  }
  layers_.reserve(config.num_layers);
  for (std::size_t l = 0; l < config.num_layers; ++l) {
    const std::size_t in = layer_input_dim(config, l);
    ConstMatrixView wx(w.subspan(off, 4 * h * in), 4 * h, in);
    ConstMatrixView wh(w.subspan(off + 4 * h * in, 4 * h * h), 4 * h, h);
    auto b = w.subspan(off + 4 * h * in + 4 * h * h, 4 * h);
    layers_.push_back(Layer{.in = in,
                            .offset = off,
                            .wx = wx,
                            .wh = wh,
                            .b = b,
                            .wx_t = transposed(wx),
                            .wh_t = transposed(wh),
                            .h = {},
                            .c = {},
                            .gates = {},
                            .cell = {},
                            .tanh_cell = {},
                            .hidden = {}});
    off += layer_param_count(config, l);
  }
  out_offset_ = off;
  w_out_ = ConstMatrixView(w.subspan(off, config.num_classes * h),
                           config.num_classes, h);
  b_out_ = w.subspan(off + config.num_classes * h, config.num_classes);
  w_out_t_ = transposed(w_out_);
}

std::span<const double> LstmPass::embedding_row(std::int32_t token) const {
  if (token < 0 || static_cast<std::size_t>(token) >= config_.vocab_size) {
    throw std::out_of_range("LstmClassifier: token out of range");
  }
  if (config_.trainable_embedding) {
    return embedding_.subspan(
        static_cast<std::size_t>(token) * config_.embed_dim,
        config_.embed_dim);
  }
  return config_.frozen_embedding->lookup(token);
}

MatrixView LstmPass::forward(const Dataset& data,
                             std::span<const std::size_t> run,
                             std::size_t length) {
  const std::size_t h = config_.hidden_dim;
  samples_ = run.size();
  steps_ = length;
  const std::size_t rows = train_ ? samples_ * steps_ : 0;

  MatrixView x = shape(inputs_, rows, config_.embed_dim);
  MatrixView x_step = shape(x_step_, samples_, config_.embed_dim);
  MatrixView zx = shape(zx_, samples_, 4 * h);
  MatrixView zh = shape(zh_, samples_, 4 * h);
  for (Layer& lay : layers_) {
    zero(shape(lay.h, samples_, h).flat());
    zero(shape(lay.c, samples_, h).flat());
  }
  for (std::size_t t = 0; t < steps_; ++t) {
    for (std::size_t s = 0; s < samples_; ++s) {
      copy(embedding_row(data.tokens[run[s]][t]), x_step.row(s));
      if (train_) copy(x_step.row(s), x.row(row(s, t)));
    }
    ConstMatrixView in = x_step;
    for (Layer& lay : layers_) {
      // z = (Wx x) + (Wh h) + b, the two sums kept apart.
      MatrixView hs = shape(lay.h, samples_, h);
      MatrixView cs = shape(lay.c, samples_, h);
      gemm(in, lay.wx_t, zx);
      gemm(hs, lay.wh_t, zh);
      MatrixView gates = shape(lay.gates, rows, 4 * h);
      MatrixView cell = shape(lay.cell, rows, h);
      MatrixView tanh_cell = shape(lay.tanh_cell, rows, h);
      MatrixView hidden = shape(lay.hidden, rows, h);
      for (std::size_t s = 0; s < samples_; ++s) {
        // z over Wx x in place, then the gates as span passes: sigmoid
        // over i and f, tanh over g, sigmoid over o.
        const std::span<double> z = zx.row(s);
        const std::span<const double> zh_s = zh.row(s);
        for (std::size_t k = 0; k < 4 * h; ++k) {
          z[k] = (z[k] + zh_s[k]) + lay.b[k];
        }
        const std::size_t r = train_ ? row(s, t) : 0;
        const std::span<double> act = train_ ? gates.row(r) : z;
        vmath::sigmoid(z.first(2 * h), act.first(2 * h));
        vmath::tanh(z.subspan(kCandidate * h, h),
                    act.subspan(kCandidate * h, h));
        vmath::sigmoid(z.subspan(kOutput * h, h), act.subspan(kOutput * h, h));
        const double* gi = act.data() + kInput * h;
        const double* gf = act.data() + kForget * h;
        const double* gg = act.data() + kCandidate * h;
        const double* go = act.data() + kOutput * h;
        const std::span<double> c_s = cs.row(s);
        const std::span<double> h_s = hs.row(s);
        for (std::size_t j = 0; j < h; ++j) {
          c_s[j] = gf[j] * c_s[j] + gi[j] * gg[j];
        }
        // tanh(c) goes to the stored activations, or straight into h.
        const std::span<double> tc = train_ ? tanh_cell.row(r) : h_s;
        vmath::tanh(c_s, tc);
        for (std::size_t j = 0; j < h; ++j) h_s[j] = go[j] * tc[j];
        if (train_) {
          copy(c_s, cell.row(r));
          copy(h_s, hidden.row(r));
        }
      }
      in = hs;  // feeds the next layer
    }
  }

  MatrixView logits = shape(logits_, samples_, config_.num_classes);
  gemm(shape(layers_.back().h, samples_, h), w_out_t_, logits);
  for (std::size_t s = 0; s < samples_; ++s) {
    add(logits.row(s), b_out_, logits.row(s));
  }
  return logits;
}

void LstmPass::backward(const Dataset& data,
                        std::span<const std::size_t> run,
                        std::span<double> grad, double& total) {
  const std::size_t h = config_.hidden_dim;
  const std::size_t c_out = config_.num_classes;
  const std::size_t rows = samples_ * steps_;

  // Output head. logits become dL/dlogits in place.
  MatrixView dlogits = shape(logits_, samples_, c_out);
  for (std::size_t s = 0; s < samples_; ++s) {
    total += softmax_cross_entropy_grad(dlogits.row(s), data.labels[run[s]]);
  }
  ger_batch(dlogits, shape(layers_.back().h, samples_, h),
            MatrixView(grad.subspan(out_offset_, c_out * h), c_out, h));
  auto g_bout = grad.subspan(out_offset_ + c_out * h, c_out);
  for (std::size_t s = 0; s < samples_; ++s) {
    add(g_bout, dlogits.row(s), g_bout);
  }

  // Seed BPTT: dh of the top layer at the final step.
  MatrixView dh = shape(dh_, samples_, h);
  MatrixView dc = shape(dc_, samples_, h);
  gemm(dlogits, w_out_, dh);

  // Gradient arriving at each step's output from the layer above; none
  // for the top layer.
  std::optional<ConstMatrixView> above;
  for (std::size_t lq = layers_.size(); lq > 0; --lq) {
    const std::size_t l = lq - 1;
    Layer& lay = layers_[l];
    const ConstMatrixView cell = shape(lay.cell, rows, h);
    const ConstMatrixView tanh_cell = shape(lay.tanh_cell, rows, h);
    const ConstMatrixView hidden = shape(lay.hidden, rows, h);
    const ConstMatrixView in =
        shape(l == 0 ? inputs_ : layers_[l - 1].hidden, rows, lay.in);
    // dz overwrites the gate values in place: each element is read just
    // before its gradient is written.
    MatrixView dz = shape(lay.gates, rows, 4 * h);
    MatrixView dz_step = shape(dz_step_, samples_, 4 * h);
    if (above) zero(dh.flat());
    zero(dc.flat());

    for (std::size_t tq = steps_; tq > 0; --tq) {
      const std::size_t t = tq - 1;
      for (std::size_t s = 0; s < samples_; ++s) {
        const std::size_t r = row(s, t);
        const double* from_above = above ? above->row(r).data() : nullptr;
        // Step t-1 is the next row; c_{-1} = 0.
        const double* cprev = t > 0 ? cell.row(r + 1).data() : zeros_.data();
        double* dh_s = dh.row(s).data();
        double* dc_s = dc.row(s).data();
        double* dz_r = dz.row(r).data();
        for (std::size_t j = 0; j < h; ++j) {
          const double gi = dz_r[kInput * h + j];
          const double gf = dz_r[kForget * h + j];
          const double gg = dz_r[kCandidate * h + j];
          const double go = dz_r[kOutput * h + j];
          const double tc = tanh_cell(r, j);
          const double dht =
              from_above != nullptr ? dh_s[j] + from_above[j] : dh_s[j];
          const double dct = dc_s[j] + dht * go * (1.0 - tc * tc);
          const double d_go = dht * tc;
          const double d_gi = dct * gg;
          const double d_gg = dct * gi;
          const double d_gf = dct * cprev[j];
          dz_r[kInput * h + j] = d_gi * gi * (1.0 - gi);
          dz_r[kForget * h + j] = d_gf * gf * (1.0 - gf);
          dz_r[kCandidate * h + j] = d_gg * (1.0 - gg * gg);
          dz_r[kOutput * h + j] = d_go * go * (1.0 - go);
          dc_s[j] = dct * gf;  // flows to c_{t-1}
        }
        copy(dz.row(r), dz_step.row(s));
      }
      // dh_{t-1} through Wh.
      gemm(dz_step, lay.wh, dh);
    }

    // Parameter gradients, sample by sample and newest step first.
    MatrixView g_wx(grad.subspan(lay.offset, 4 * h * lay.in), 4 * h, lay.in);
    MatrixView g_wh(grad.subspan(lay.offset + 4 * h * lay.in, 4 * h * h),
                    4 * h, h);
    auto g_b = grad.subspan(lay.offset + 4 * h * lay.in + 4 * h * h, 4 * h);
    ger_batch(dz, in, g_wx);
    // Wh sees h_{t-1}, the next row; h_{-1} = 0 adds nothing at t = 0.
    for (std::size_t s = 0; s < samples_ && steps_ > 1; ++s) {
      ger_batch(row_range(dz, s * steps_, steps_ - 1),
                row_range(hidden, s * steps_ + 1, steps_ - 1), g_wh);
    }
    for (std::size_t r = 0; r < rows; ++r) add(g_b, dz.row(r), g_b);

    // Input gradients, to the layer below or the embedding.
    if (l == 0 && !config_.trainable_embedding) break;
    MatrixView below = shape(below_[l % 2], rows, lay.in);
    gemm(dz, lay.wx, below);
    above = below;
  }

  if (config_.trainable_embedding) {
    for (std::size_t s = 0; s < samples_; ++s) {
      const auto& seq = data.tokens[run[s]];
      for (std::size_t t = 0; t < steps_; ++t) {
        auto g_row = grad.subspan(
            static_cast<std::size_t>(seq[t]) * config_.embed_dim,
            config_.embed_dim);
        add(g_row, above->row(row(s, t)), g_row);
      }
    }
  }
}

// Calls fn(k, logits of sample k) for each sample k of `batch`, in
// order, running its forward passes through `pass`.
template <class Fn>
void for_each_logits(LstmPass& pass, const Dataset& data,
                     std::span<const std::size_t> batch, Fn&& fn) {
  for_each_run(data, batch,
               [&](std::span<const std::size_t> run, std::size_t length) {
                 const MatrixView logits = pass.forward(data, run, length);
                 for (std::size_t s = 0; s < run.size(); ++s) {
                   fn(run[s], logits.row(s));
                 }
               });
}

class LstmEvaluation final : public Model::Evaluation {
 public:
  LstmEvaluation(const LstmConfig& config, std::span<const double> w)
      : config_(config), w_(w) {}

  // One pass, so one copy of the transposed weights, serves both
  // splits.
  ClientEval client(const ClientData& client) const override {
    LstmPass pass(config_, w_, /*train=*/false);
    return score_client(client, [&](const Dataset& split, auto&& fn) {
      for_each_logits(pass, split, full_batch(split.size()), fn);
    });
  }

 private:
  const LstmConfig& config_;
  std::span<const double> w_;
};

}  // namespace

LstmClassifier::LstmClassifier(LstmConfig config) : config_(std::move(config)) {
  const auto& c = config_;
  if (c.vocab_size == 0 || c.embed_dim == 0 || c.hidden_dim == 0 ||
      c.num_layers == 0 || c.num_classes < 2) {
    throw std::invalid_argument("LstmClassifier: bad config");
  }
  if (!c.trainable_embedding) {
    if (!c.frozen_embedding) {
      throw std::invalid_argument(
          "LstmClassifier: frozen_embedding required when not trainable");
    }
    if (c.frozen_embedding->vocab_size() != c.vocab_size ||
        c.frozen_embedding->dim() != c.embed_dim) {
      throw std::invalid_argument(
          "LstmClassifier: frozen embedding shape mismatch");
    }
  }
  param_count_ = c.trainable_embedding ? c.vocab_size * c.embed_dim : 0;
  for (std::size_t l = 0; l < c.num_layers; ++l) {
    param_count_ += layer_param_count(c, l);
  }
  param_count_ += c.num_classes * c.hidden_dim + c.num_classes;
}

void LstmClassifier::init_parameters(std::span<double> w, Rng& rng) const {
  assert(w.size() == param_count_);
  const std::size_t h = config_.hidden_dim;
  std::size_t off = 0;
  if (config_.trainable_embedding) {
    for (std::size_t i = 0; i < config_.vocab_size * config_.embed_dim; ++i) {
      w[off++] = rng.normal(0.0, 0.1);
    }
  }
  for (std::size_t l = 0; l < config_.num_layers; ++l) {
    const std::size_t in = layer_input_dim(config_, l);
    const double sx = 1.0 / std::sqrt(static_cast<double>(in));
    const double sh = 1.0 / std::sqrt(static_cast<double>(h));
    for (std::size_t i = 0; i < 4 * h * in; ++i) {
      w[off++] = rng.uniform(-sx, sx);
    }
    for (std::size_t i = 0; i < 4 * h * h; ++i) {
      w[off++] = rng.uniform(-sh, sh);
    }
    for (std::size_t g = 0; g < 4; ++g) {
      // Forget-gate bias 1 (the standard trick for gradient flow).
      const double bias = (g == kForget) ? 1.0 : 0.0;
      for (std::size_t i = 0; i < h; ++i) w[off++] = bias;
    }
  }
  const double so = 1.0 / std::sqrt(static_cast<double>(h));
  for (std::size_t i = 0; i < config_.num_classes * h; ++i) {
    w[off++] = rng.uniform(-so, so);
  }
  for (std::size_t i = 0; i < config_.num_classes; ++i) w[off++] = 0.0;
  assert(off == param_count_);
}

double LstmClassifier::loss_and_grad(std::span<const double> w,
                                     const Dataset& data,
                                     std::span<const std::size_t> batch,
                                     std::span<double> grad) const {
  assert(w.size() == param_count_ && grad.size() == param_count_);
  assert(!batch.empty());
  zero(grad);
  LstmPass pass(config_, w, /*train=*/true);
  double total_loss = 0.0;
  for_each_run(data, batch,
               [&](std::span<const std::size_t> run, std::size_t length) {
                 pass.forward(data, run, length);
                 pass.backward(data, run, grad, total_loss);
               });
  const double inv = 1.0 / static_cast<double>(batch.size());
  scale(grad, inv);
  return total_loss * inv;
}

double LstmClassifier::loss(std::span<const double> w, const Dataset& data,
                            std::span<const std::size_t> batch) const {
  assert(!batch.empty());
  LstmPass pass(config_, w, /*train=*/false);
  double total = 0.0;
  for_each_logits(pass, data, batch,
                  [&](std::size_t k, std::span<const double> z) {
                    total += softmax_cross_entropy(z, data.labels[k]);
                  });
  return total / static_cast<double>(batch.size());
}

void LstmClassifier::predict(std::span<const double> w, const Dataset& data,
                             std::span<const std::size_t> batch,
                             std::vector<std::int32_t>& out) const {
  LstmPass pass(config_, w, /*train=*/false);
  out.resize(batch.size());
  std::size_t next = 0;
  for_each_logits(pass, data, batch,
                  [&](std::size_t, std::span<const double> z) {
                    out[next++] = static_cast<std::int32_t>(argmax(z));
                  });
}

std::unique_ptr<const Model::Evaluation> LstmClassifier::evaluation(
    std::span<const double> w) const {
  return std::make_unique<LstmEvaluation>(config_, w);
}

}  // namespace fed
