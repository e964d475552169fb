// Speed gate for the model kernels' AVX2 variant (tensor/kernels.h).
//
// Runs one LSTM training step's kernel calls at the lstm_kernels shapes
// (embedding 8, hidden 16, 5 sequences of 12 steps): the two gate GEMMs
// 5x8 . 8x64 and 5x16 . 16x64, the 60-row ger_batch weight gradients into
// 64x8 and 64x16, and the 32-wide sigmoid and tanh spans. It times them
// through the dispatching entry points (ops.h, vmath.h) and through the
// sse2 variant, alternately in this one process. The dispatched calls
// must take at most kMaxRatio of the sse2 time (min of kReps runs each)
// and write the same bytes. Host speed cancels out of the ratio; a
// dispatch that fell back to sse2 reads about 1.0.
//
//   model_kernels_perf_gate   # exit 0 when the gate holds, 77 (skipped)
//                             # on a CPU or build without the avx2 variant

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <random>
#include <vector>

#include "tensor/kernels.h"
#include "tensor/ops.h"
#include "tensor/vmath.h"

namespace {

constexpr int kReps = 30;
constexpr int kStepsPerRep = 100;
constexpr double kMaxRatio = 0.8;
constexpr int kSkip = 77;

using Span = void (*)(std::span<const double>, std::span<double>);

// One variant's entry points.
struct Kernels {
  void (*gemm)(const fed::ConstMatrixView&, const fed::ConstMatrixView&,
               fed::MatrixView);
  void (*ger_batch)(const fed::ConstMatrixView&, const fed::ConstMatrixView&,
                    fed::MatrixView);
  Span sigmoid;
  Span tanh;
};

fed::Matrix random_matrix(std::size_t rows, std::size_t cols,
                          std::mt19937_64& rng) {
  std::normal_distribution<double> normal;
  fed::Matrix m(rows, cols);
  for (double& v : m.storage()) v = normal(rng);
  return m;
}

// The kernel calls of one step, and every output they write.
struct Step {
  fed::Matrix x, h, wx_t, wh_t, dz, in, hs;
  fed::Matrix zx, zh, g_wx, g_wh;
  std::vector<double> z, act;

  explicit Step(std::mt19937_64& rng)
      : x(random_matrix(5, 8, rng)),
        h(random_matrix(5, 16, rng)),
        wx_t(random_matrix(8, 64, rng)),
        wh_t(random_matrix(16, 64, rng)),
        dz(random_matrix(60, 64, rng)),
        in(random_matrix(60, 8, rng)),
        hs(random_matrix(60, 16, rng)),
        zx(5, 64),
        zh(5, 64),
        g_wx(64, 8),
        g_wh(64, 16),
        z(32),
        act(32) {
    std::normal_distribution<double> normal;
    for (double& v : z) v = 3.0 * normal(rng);
  }

  void run(const Kernels& k) {
    k.gemm(x, wx_t, zx);
    k.gemm(h, wh_t, zh);
    k.ger_batch(dz, in, g_wx);
    k.ger_batch(dz, hs, g_wh);
    k.sigmoid(z, act);
    k.tanh(act, act);
  }

  std::vector<double> outputs() const {
    std::vector<double> out;
    for (const fed::Matrix* m : {&zx, &zh, &g_wx, &g_wh}) {
      out.insert(out.end(), m->storage().begin(), m->storage().end());
    }
    out.insert(out.end(), act.begin(), act.end());
    return out;
  }
};

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

// Min over kReps of kStepsPerRep steps, each rep from the same start so
// ger_batch's accumulators stay bounded.
double best_time(Step& step, const Kernels& k, const Step& start) {
  double best = 1e300;
  for (int rep = 0; rep < kReps; ++rep) {
    step.g_wx = start.g_wx;
    step.g_wh = start.g_wh;
    const auto t0 = std::chrono::steady_clock::now();
    for (int s = 0; s < kStepsPerRep; ++s) step.run(k);
    best = std::min(best, seconds_since(t0));
  }
  return best;
}

}  // namespace

int main() {
#ifndef FEDPROX_KERNELS_AVX2
  std::printf("SKIP: no avx2 variant in this build (x86-64 only)\n");
  return kSkip;
#else
  // Asks the CPU, not kCpuHasAvx2: a dispatch that runs sse2 on an AVX2
  // CPU must fail this gate, not skip it.
  __builtin_cpu_init();
  if (!__builtin_cpu_supports("avx2")) {
    std::printf("SKIP: this CPU has no AVX2, so gemm and vmath run sse2\n");
    return kSkip;
  }
  const Kernels dispatched{fed::gemm, fed::ger_batch, fed::vmath::sigmoid,
                           fed::vmath::tanh};
  const Kernels sse2{fed::kernels::sse2::gemm, fed::kernels::sse2::ger_batch,
                     fed::kernels::sse2::sigmoid, fed::kernels::sse2::tanh};

  std::mt19937_64 rng(30);
  const Step start(rng);
  Step fast = start, plain = start;
  double best_fast = 1e300, best_plain = 1e300;
  for (int round = 0; round < 2; ++round) {  // alternate, twice
    best_fast = std::min(best_fast, best_time(fast, dispatched, start));
    best_plain = std::min(best_plain, best_time(plain, sse2, start));
  }

  const double ratio = best_fast / best_plain;
  std::printf(
      "LSTM step kernels: dispatched %.1f us, sse2 %.1f us per step (min of "
      "%d x %d steps): ratio %.2f, gate %.2f\n",
      best_fast / kStepsPerRep * 1e6, best_plain / kStepsPerRep * 1e6,
      2 * kReps, kStepsPerRep, ratio, kMaxRatio);
  const std::vector<double> a = fast.outputs(), b = plain.outputs();
  if (a.size() != b.size() ||
      std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) != 0) {
    std::printf("FAIL: the dispatched kernels wrote different bytes\n");
    return 1;
  }
  if (ratio > kMaxRatio) {
    std::printf("FAIL: ratio %.2f is above %.2f\n", ratio, kMaxRatio);
    return 1;
  }
  return 0;
#endif
}
