// fedlint bad fixture: a libm transcendental on the model path.

#include <cmath>

namespace fixture {

inline double gate(double z) {
  return 1.0 / (1.0 + std::exp(-z));  // libm-in-model
}

}  // namespace fixture
