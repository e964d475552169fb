// One figure driver: bench/CMakeLists.txt builds this file once per row
// of the figure table, naming the row in FEDPROX_FIGURE.

#include "figures.h"

int main(int argc, char** argv) {
  using namespace fed::bench;
  return run_figure(figure(FEDPROX_FIGURE), parse_options(argc, argv));
}
