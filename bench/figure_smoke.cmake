# Runs a figure driver with --trace-out/--metrics-out as a ctest.
#
# Invoked by bench/CMakeLists.txt as
#   cmake "-DCMD=driver;arg;..." -DOUT=dir -DLINT=trace_lint
#         -P figure_smoke.cmake
#
# Passes only when the driver exits 0, wrote OUT/trace.jsonl and
# OUT/metrics.prom, and trace_lint accepts both: the trace (one run
# header per variant the figure trains), the exposition, and the
# counters the exposition shares with the trace's round lines.

foreach(var CMD OUT LINT)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "figure_smoke.cmake: missing -D${var}=...")
  endif()
endforeach()

set(trace ${OUT}/trace.jsonl)
set(prom ${OUT}/metrics.prom)
file(REMOVE ${trace} ${prom})
execute_process(COMMAND ${CMD} --trace-out ${trace} --metrics-out ${prom}
                RESULT_VARIABLE rc)
if(NOT rc STREQUAL "0")
  message(FATAL_ERROR "driver exited with '${rc}'")
endif()
foreach(file ${trace} ${prom})
  if(NOT EXISTS ${file})
    message(FATAL_ERROR "driver did not write ${file}")
  endif()
endforeach()
execute_process(COMMAND ${LINT} --jsonl ${trace} --metrics ${prom}
                RESULT_VARIABLE rc)
if(NOT rc STREQUAL "0")
  message(FATAL_ERROR
          "trace_lint --jsonl ${trace} --metrics ${prom} exited with '${rc}'")
endif()
