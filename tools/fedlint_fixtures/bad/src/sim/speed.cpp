// fedlint bad fixture: a libm transcendental in the simulator, which
// draws none (the rule's scope covers sim/, core/ and comm/ too).

#include <cmath>

namespace fixture {

inline double speed_factor(double draw) {
  return std::exp(draw);  // libm-in-model
}

}  // namespace fixture
