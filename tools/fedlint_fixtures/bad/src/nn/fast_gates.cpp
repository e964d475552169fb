// fedlint bad fixture: an instruction-set target outside src/tensor/,
// and one that names FMA, which rounds a multiply-add once.

namespace fixture {

__attribute__((target("avx2,fma"))) inline double gate(double a, double b,
                                                       double c) {
  return a * b + c;  // isa-target
}

}  // namespace fixture
