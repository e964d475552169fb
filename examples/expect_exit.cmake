# Runs one command and checks its exit code and stderr, as a ctest: that
# it fails cleanly, or that it warns and runs on.
#
# Invoked by examples/CMakeLists.txt as
#   cmake "-DCMD=prog;arg;..." -DEXPECT_RC=1 -DEXPECT_ERR=regex
#         -P expect_exit.cmake
#
# Passes only when the command exits with EXPECT_RC (a crash or signal
# yields no exit code, so it fails) and its stderr matches EXPECT_ERR.

foreach(var CMD EXPECT_RC EXPECT_ERR)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "expect_exit.cmake: missing -D${var}=...")
  endif()
endforeach()

execute_process(COMMAND ${CMD} RESULT_VARIABLE rc OUTPUT_QUIET
                ERROR_VARIABLE err)

if(NOT rc STREQUAL EXPECT_RC)
  message(FATAL_ERROR "expected exit code ${EXPECT_RC}, got '${rc}':\n${err}")
endif()
if(NOT err MATCHES "${EXPECT_ERR}")
  message(FATAL_ERROR "stderr does not match '${EXPECT_ERR}':\n${err}")
endif()
