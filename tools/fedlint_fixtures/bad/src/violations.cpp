// fedlint bad fixture: one seeded violation per rule (except
// float-accumulation, which lives in ../tensor/, and libm-in-model, in
// ../nn/). The fedlint_bad ctest asserts fedlint exits non-zero on this
// tree and names each rule.

#include <chrono>
#include <cstdlib>
#include <random>
#include <unordered_map>

namespace fixture {

inline int nondeterministic_seed() {
  std::random_device rd;  // randomness
  return static_cast<int>(rd()) + rand();
}

inline long long wall_now() {
  return std::chrono::system_clock::now()  // wall-clock
      .time_since_epoch()
      .count();
}

inline std::unordered_map<int, int> unordered() {  // unordered-container
  return {};
}

inline int* leak() { return new int(7); }  // raw-new

}  // namespace fixture
