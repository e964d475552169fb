#include "nn/lstm.h"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>

#include "grad_check.h"
#include "nn/loss.h"
#include "tensor/ops.h"
#include "tensor/vmath.h"
#include "test_util.h"

namespace fed {
namespace {

LstmConfig tiny_config(std::size_t layers, bool trainable) {
  LstmConfig c;
  c.vocab_size = 7;
  c.embed_dim = 3;
  c.hidden_dim = 4;
  c.num_layers = layers;
  c.num_classes = 3;
  c.trainable_embedding = trainable;
  if (!trainable) {
    c.frozen_embedding = std::make_shared<EmbeddingTable>(7, 3, /*seed=*/9);
  }
  return c;
}

TEST(LstmModel, ParameterCountTrainableEmbedding) {
  LstmClassifier model(tiny_config(2, true));
  const std::size_t h = 4, e = 3, v = 7, c = 3;
  const std::size_t layer0 = 4 * h * e + 4 * h * h + 4 * h;
  const std::size_t layer1 = 4 * h * h + 4 * h * h + 4 * h;
  EXPECT_EQ(model.parameter_count(), v * e + layer0 + layer1 + c * h + c);
}

TEST(LstmModel, ParameterCountFrozenEmbedding) {
  LstmClassifier trainable(tiny_config(1, true));
  LstmClassifier frozen(tiny_config(1, false));
  EXPECT_EQ(trainable.parameter_count() - frozen.parameter_count(), 7u * 3u);
}

class LstmGradCheck
    : public ::testing::TestWithParam<std::tuple<std::size_t, bool,
                                                 std::size_t>> {};

TEST_P(LstmGradCheck, AnalyticMatchesNumeric) {
  const auto [layers, trainable, seq_len] = GetParam();
  LstmClassifier model(tiny_config(layers, trainable));
  Rng gen = make_stream(21, StreamKind::kTest, layers, seq_len);
  Dataset data = testing::make_random_sequences(3, seq_len, 7, 3, gen);
  Vector w(model.parameter_count());
  model.init_parameters(w, gen);
  const auto batch = full_batch(3);
  // Probe a subset of coordinates: full probing of every weight is slow
  // and redundant — the probe set includes the largest-gradient entries.
  const auto result = check_gradients(model, w, data, batch, 1e-5, 160);
  EXPECT_TRUE(result.passed(1e-5))
      << "max rel err " << result.max_relative_error << " at index "
      << result.worst_index << " (analytic " << result.analytic_at_worst
      << " numeric " << result.numeric_at_worst << ")";
}

INSTANTIATE_TEST_SUITE_P(
    Configs, LstmGradCheck,
    ::testing::Values(std::make_tuple(1, true, 1),
                      std::make_tuple(1, true, 5),
                      std::make_tuple(2, true, 4),
                      std::make_tuple(1, false, 5),
                      std::make_tuple(2, false, 6)));

// ---- sample-by-sample oracle ------------------------------------------------
//
// The classifier runs whole runs of samples at once. This is the plain
// per-sample formulation it replaced: one GEMV per layer per timestep,
// BPTT sample by sample. The batched model must match it bit for bit.
class ReferenceLstm {
 public:
  explicit ReferenceLstm(const LstmConfig& config) : c_(config) {}

  double loss_and_grad(std::span<const double> w, const Dataset& data,
                       std::span<const std::size_t> batch,
                       std::span<double> grad) const {
    zero(grad);
    const std::size_t h = c_.hidden_dim, c_out = c_.num_classes;
    const Views p = view(w);
    std::span<double> g_embed =
        c_.trainable_embedding
            ? grad.subspan(0, c_.vocab_size * c_.embed_dim)
            : std::span<double>{};
    MatrixView g_wout(grad.subspan(p.out_offset, c_out * h), c_out, h);
    auto g_bout = grad.subspan(p.out_offset + c_out * h, c_out);

    std::vector<Trace> traces;
    Vector final_hidden(h), logits(c_out), dz(4 * h);
    double total_loss = 0.0;
    for (std::size_t idx : batch) {
      const auto& seq = data.tokens[idx];
      const std::size_t t_len = seq.size();
      forward(p, seq, &traces, final_hidden);
      gemv(p.w_out, final_hidden, logits);
      add(logits, p.b_out, logits);
      total_loss += softmax_cross_entropy_grad(logits, data.labels[idx]);
      ger(1.0, logits, final_hidden, g_wout);
      add(g_bout, logits, g_bout);

      Vector dh_top(h);
      gemv_transposed(p.w_out, logits, dh_top);
      Matrix from_above;  // empty for the top layer
      for (std::size_t lq = c_.num_layers; lq > 0; --lq) {
        const std::size_t l = lq - 1;
        const Layer& lay = p.layers[l];
        const Trace& tr = traces[l];
        const std::size_t in_dim = lay.wx.cols();
        MatrixView g_wx(grad.subspan(lay.offset, 4 * h * in_dim), 4 * h,
                        in_dim);
        MatrixView g_wh(grad.subspan(lay.offset + 4 * h * in_dim, 4 * h * h),
                        4 * h, h);
        auto g_b = grad.subspan(lay.offset + 4 * h * in_dim + 4 * h * h, 4 * h);
        Matrix to_below(t_len, in_dim);
        Vector dh_run = l + 1 == c_.num_layers ? dh_top : Vector(h, 0.0);
        Vector dc_run(h, 0.0), zeros(h, 0.0);
        for (std::size_t tq = t_len; tq > 0; --tq) {
          const std::size_t t = tq - 1;
          if (from_above.rows() == t_len) {
            add(dh_run, from_above.row(t), dh_run);
          }
          const auto cprev = t > 0 ? tr.cell.row(t - 1) : std::span(zeros);
          for (std::size_t j = 0; j < h; ++j) {
            const double gi = tr.gate_i(t, j), gf = tr.gate_f(t, j);
            const double gg = tr.gate_g(t, j), go = tr.gate_o(t, j);
            const double tc = vmath::tanh(tr.cell(t, j));
            const double dht = dh_run[j];
            const double dct = dc_run[j] + dht * go * (1.0 - tc * tc);
            const double d_go = dht * tc;
            const double d_gi = dct * gg;
            const double d_gg = dct * gi;
            const double d_gf = dct * cprev[j];
            dz[j] = d_gi * gi * (1.0 - gi);
            dz[h + j] = d_gf * gf * (1.0 - gf);
            dz[2 * h + j] = d_gg * (1.0 - gg * gg);
            dz[3 * h + j] = d_go * go * (1.0 - go);
            dc_run[j] = dct * gf;
          }
          ger(1.0, dz, tr.input.row(t), g_wx);
          if (t > 0) ger(1.0, dz, tr.hidden.row(t - 1), g_wh);
          add(g_b, dz, g_b);
          gemv_transposed(lay.wx, dz, to_below.row(t));
          gemv_transposed(lay.wh, dz, dh_run);
        }
        from_above = std::move(to_below);
      }
      if (c_.trainable_embedding) {
        for (std::size_t t = 0; t < t_len; ++t) {
          auto row = g_embed.subspan(
              static_cast<std::size_t>(seq[t]) * c_.embed_dim, c_.embed_dim);
          add(row, from_above.row(t), row);
        }
      }
    }
    const double inv = 1.0 / static_cast<double>(batch.size());
    scale(grad, inv);
    return total_loss * inv;
  }

  double loss(std::span<const double> w, const Dataset& data,
              std::span<const std::size_t> batch) const {
    const Views p = view(w);
    Vector final_hidden(c_.hidden_dim), logits(c_.num_classes);
    double total = 0.0;
    for (std::size_t idx : batch) {
      forward(p, data.tokens[idx], nullptr, final_hidden);
      gemv(p.w_out, final_hidden, logits);
      add(logits, p.b_out, logits);
      total += softmax_cross_entropy(logits, data.labels[idx]);
    }
    return total / static_cast<double>(batch.size());
  }

  std::vector<std::int32_t> predict(std::span<const double> w,
                                    const Dataset& data,
                                    std::span<const std::size_t> batch) const {
    const Views p = view(w);
    Vector final_hidden(c_.hidden_dim), logits(c_.num_classes);
    std::vector<std::int32_t> out;
    for (std::size_t idx : batch) {
      forward(p, data.tokens[idx], nullptr, final_hidden);
      gemv(p.w_out, final_hidden, logits);
      add(logits, p.b_out, logits);
      out.push_back(static_cast<std::int32_t>(argmax(logits)));
    }
    return out;
  }

 private:
  struct Layer {
    ConstMatrixView wx, wh;
    std::span<const double> b;
    std::size_t offset;
  };
  struct Views {
    std::span<const double> embedding;
    std::vector<Layer> layers;
    ConstMatrixView w_out;
    std::span<const double> b_out;
    std::size_t out_offset;
  };
  // One layer's per-timestep activations (row t = step t).
  struct Trace {
    Matrix gate_i, gate_f, gate_g, gate_o, cell, hidden, input;
  };

  Views view(std::span<const double> w) const {
    const std::size_t h = c_.hidden_dim;
    std::size_t off = c_.trainable_embedding ? c_.vocab_size * c_.embed_dim : 0;
    Views v{.embedding = w.subspan(0, off),
            .layers = {},
            .w_out = ConstMatrixView({}, 0, 0),
            .b_out = {},
            .out_offset = 0};
    for (std::size_t l = 0; l < c_.num_layers; ++l) {
      const std::size_t in = l == 0 ? c_.embed_dim : h;
      v.layers.push_back({ConstMatrixView(w.subspan(off, 4 * h * in), 4 * h, in),
                          ConstMatrixView(w.subspan(off + 4 * h * in, 4 * h * h),
                                          4 * h, h),
                          w.subspan(off + 4 * h * in + 4 * h * h, 4 * h), off});
      off += 4 * h * in + 4 * h * h + 4 * h;
    }
    v.out_offset = off;
    v.w_out = ConstMatrixView(w.subspan(off, c_.num_classes * h),
                              c_.num_classes, h);
    v.b_out = w.subspan(off + c_.num_classes * h, c_.num_classes);
    return v;
  }

  void forward(const Views& p, std::span<const std::int32_t> seq,
               std::vector<Trace>* traces,
               std::span<double> final_hidden) const {
    const std::size_t h = c_.hidden_dim, t_len = seq.size();
    if (traces) {
      traces->assign(c_.num_layers, {});
      for (std::size_t l = 0; l < c_.num_layers; ++l) {
        Trace& tr = (*traces)[l];
        for (Matrix* m : {&tr.gate_i, &tr.gate_f, &tr.gate_g, &tr.gate_o,
                          &tr.cell, &tr.hidden}) {
          *m = Matrix(t_len, h);
        }
        tr.input = Matrix(t_len, l == 0 ? c_.embed_dim : h);
      }
    }
    std::vector<Vector> h_prev(c_.num_layers, Vector(h, 0.0));
    std::vector<Vector> c_prev(c_.num_layers, Vector(h, 0.0));
    Vector z(4 * h), layer_in;
    for (std::size_t t = 0; t < t_len; ++t) {
      const auto tok = static_cast<std::size_t>(seq[t]);
      if (c_.trainable_embedding) {
        const auto row = p.embedding.subspan(tok * c_.embed_dim, c_.embed_dim);
        layer_in.assign(row.begin(), row.end());
      } else {
        const auto row = c_.frozen_embedding->lookup(seq[t]);
        layer_in.assign(row.begin(), row.end());
      }
      for (std::size_t l = 0; l < c_.num_layers; ++l) {
        const Layer& lay = p.layers[l];
        gemv(lay.wx, layer_in, z);
        gemv_accumulate(lay.wh, h_prev[l], z);
        add(z, lay.b, z);
        if (traces) copy(layer_in, (*traces)[l].input.row(t));
        for (std::size_t j = 0; j < h; ++j) {
          const double gi = vmath::sigmoid(z[j]);
          const double gf = vmath::sigmoid(z[h + j]);
          const double gg = vmath::tanh(z[2 * h + j]);
          const double go = vmath::sigmoid(z[3 * h + j]);
          const double c_new = gf * c_prev[l][j] + gi * gg;
          const double h_new = go * vmath::tanh(c_new);
          if (traces) {
            Trace& tr = (*traces)[l];
            tr.gate_i(t, j) = gi;
            tr.gate_f(t, j) = gf;
            tr.gate_g(t, j) = gg;
            tr.gate_o(t, j) = go;
            tr.cell(t, j) = c_new;
            tr.hidden(t, j) = h_new;
          }
          c_prev[l][j] = c_new;
          h_prev[l][j] = h_new;
        }
        layer_in = h_prev[l];
      }
    }
    copy(h_prev.back(), final_hidden);
  }

  LstmConfig c_;
};

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

// layers, trainable embedding, batch size, ragged lengths.
using OracleParam = std::tuple<std::size_t, bool, std::size_t, bool>;

class LstmOracleTest : public ::testing::TestWithParam<OracleParam> {};

TEST_P(LstmOracleTest, BatchedPassIsBitwiseTheSampleBySampleOracle) {
  const auto [layers, trainable, batch_size, ragged] = GetParam();
  // Odd widths, so no gemm or ger_batch tile divides them evenly.
  LstmConfig config;
  config.vocab_size = 11;
  config.embed_dim = 5;
  config.hidden_dim = 7;
  config.num_layers = layers;
  config.num_classes = 4;
  config.trainable_embedding = trainable;
  if (!trainable) {
    config.frozen_embedding = std::make_shared<EmbeddingTable>(11, 5, 3);
  }
  const LstmClassifier model(config);
  const ReferenceLstm oracle(config);

  Rng gen = make_stream(31, StreamKind::kTest, layers * 10 + trainable,
                        batch_size * 2 + ragged);
  const std::size_t n = batch_size + 7;
  Dataset data = testing::make_random_sequences(n, 4, 11, 4, gen);
  if (ragged) {
    // Lengths 1..5 in short stretches, so runs of equal length break up
    // at varied places.
    std::size_t length = 1;
    for (std::size_t i = 0; i < n; ++i) {
      if (gen.uniform_int(3) == 0) length = 1 + gen.uniform_int(5);
      data.tokens[i].resize(length);
      for (auto& t : data.tokens[i]) {
        t = static_cast<std::int32_t>(gen.uniform_int(11));
      }
    }
  }
  Vector w(model.parameter_count());
  model.init_parameters(w, gen);
  for (double& v : w) v += gen.normal(0.0, 0.3);  // off the init symmetry
  // An unordered batch with a repeated sample.
  std::vector<std::size_t> batch(batch_size);
  for (auto& idx : batch) idx = gen.uniform_int(n);
  batch.front() = batch.back();

  Vector grad(w.size(), 7.0), want_grad(w.size());
  const double loss = model.loss_and_grad(w, data, batch, grad);
  const double want_loss = oracle.loss_and_grad(w, data, batch, want_grad);
  EXPECT_EQ(bits(loss), bits(want_loss));
  for (std::size_t i = 0; i < w.size(); ++i) {
    ASSERT_EQ(bits(grad[i]), bits(want_grad[i]))
        << "gradient " << i << ": " << grad[i] << " vs " << want_grad[i];
  }

  const double eval_loss = oracle.loss(w, data, batch);
  const std::vector<std::int32_t> want_pred = oracle.predict(w, data, batch);
  EXPECT_EQ(bits(model.loss(w, data, batch)), bits(eval_loss));
  std::vector<std::int32_t> pred;
  model.predict(w, data, batch, pred);
  EXPECT_EQ(pred, want_pred);
  // The evaluation entry sees the batch as a client's whole splits.
  const ClientEval e =
      model.evaluation(w)->client(testing::client_of(data, batch));
  EXPECT_EQ(bits(e.train_loss_sum),
            bits(eval_loss * static_cast<double>(batch.size())));
  const std::size_t want_correct =
      testing::count_correct(data, batch, want_pred);
  EXPECT_EQ(e.train_correct, want_correct);
  EXPECT_EQ(e.test_correct, want_correct);
}

// Batch sizes cross the gemm row block (2), the ger_batch block (4) and
// the 32-sample run cap.
INSTANTIATE_TEST_SUITE_P(
    Shapes, LstmOracleTest,
    ::testing::Combine(::testing::Values(1u, 2u), ::testing::Bool(),
                       ::testing::Values(1u, 3u, 10u, 65u),
                       ::testing::Bool()));

TEST(LstmModel, ForgetBiasInitialized) {
  LstmClassifier model(tiny_config(1, false));
  Vector w(model.parameter_count());
  Rng rng = make_stream(22, StreamKind::kTest);
  model.init_parameters(w, rng);
  // Layer 0 biases start after Wx (4h x e) and Wh (4h x h).
  const std::size_t h = 4;
  const std::size_t bias_off = 4 * h * 3 + 4 * h * h;
  // Forget-gate block is the second quarter of the bias vector.
  for (std::size_t j = 0; j < h; ++j) {
    EXPECT_DOUBLE_EQ(w[bias_off + h + j], 1.0);   // forget
    EXPECT_DOUBLE_EQ(w[bias_off + j], 0.0);       // input
  }
}

TEST(LstmModel, LearnsLastTokenRule) {
  // Task: the label equals the last token's class bucket — learnable by
  // an LSTM reading the sequence.
  LstmConfig config;
  config.vocab_size = 6;
  config.embed_dim = 4;
  config.hidden_dim = 8;
  config.num_layers = 1;
  config.num_classes = 3;
  config.trainable_embedding = true;
  LstmClassifier model(config);

  Rng gen = make_stream(23, StreamKind::kTest);
  Dataset data;
  for (std::size_t i = 0; i < 90; ++i) {
    std::vector<std::int32_t> seq(4);
    for (auto& t : seq) t = static_cast<std::int32_t>(gen.uniform_int(6));
    data.labels.push_back(seq.back() / 2);  // buckets {0,1},{2,3},{4,5}
    data.tokens.push_back(std::move(seq));
  }
  Vector w(model.parameter_count()), grad(w.size());
  model.init_parameters(w, gen);
  const double initial = model.dataset_loss(w, data);
  for (int step = 0; step < 150; ++step) {
    model.dataset_loss_and_grad(w, data, grad);
    axpy(-0.5, grad, w);
  }
  EXPECT_LT(model.dataset_loss(w, data), initial);
  EXPECT_GT(model.accuracy(w, data), 0.9);
}

TEST(LstmModel, RejectsEmptySequence) {
  LstmClassifier model(tiny_config(1, true));
  Dataset data;
  data.tokens = {{}};
  data.labels = {0};
  Vector w(model.parameter_count(), 0.0), grad(w.size());
  const std::vector<std::size_t> batch{0};
  EXPECT_THROW(model.loss_and_grad(w, data, batch, grad),
               std::invalid_argument);
}

TEST(LstmModel, RejectsOutOfRangeToken) {
  LstmClassifier model(tiny_config(1, true));
  Dataset data;
  data.tokens = {{99}};
  data.labels = {0};
  Vector w(model.parameter_count(), 0.0);
  const std::vector<std::size_t> batch{0};
  EXPECT_THROW(model.loss(w, data, batch), std::out_of_range);
}

TEST(LstmModel, RejectsBadConfig) {
  LstmConfig config = tiny_config(1, false);
  config.frozen_embedding.reset();
  EXPECT_THROW(LstmClassifier{config}, std::invalid_argument);
  LstmConfig mismatch = tiny_config(1, false);
  mismatch.frozen_embedding = std::make_shared<EmbeddingTable>(7, 5, 1);
  EXPECT_THROW(LstmClassifier{mismatch}, std::invalid_argument);
}

TEST(EmbeddingTableTest, DeterministicAndBounded) {
  EmbeddingTable a(10, 4, 5), b(10, 4, 5), c(10, 4, 6);
  for (std::int32_t t = 0; t < 10; ++t) {
    auto ra = a.lookup(t), rb = b.lookup(t);
    for (std::size_t j = 0; j < 4; ++j) EXPECT_DOUBLE_EQ(ra[j], rb[j]);
  }
  EXPECT_NE(a.lookup(0)[0], c.lookup(0)[0]);
  EXPECT_THROW(a.lookup(-1), std::out_of_range);
  EXPECT_THROW(a.lookup(10), std::out_of_range);
}

}  // namespace
}  // namespace fed
