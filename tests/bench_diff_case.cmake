# One tools/bench_diff.py case, run by ctest as
#   cmake -DPYTHON=<python3> -DTOOL=<bench_diff.py> -DARGS=<a|b|c>
#         -DEXPECT_EXIT=<code> [-DEXPECT_OUTPUT=<regex>] -P bench_diff_case.cmake
#
# ARGS is '|'-separated, so the value survives ctest's list splitting. The
# case passes when the exit code is EXPECT_EXIT and stdout+stderr match
# EXPECT_OUTPUT.

string(REPLACE "|" ";" argv "${ARGS}")
execute_process(
  COMMAND "${PYTHON}" "${TOOL}" ${argv}
  RESULT_VARIABLE exit_code
  OUTPUT_VARIABLE out
  ERROR_VARIABLE out)

if(NOT "${exit_code}" STREQUAL "${EXPECT_EXIT}")
  message(FATAL_ERROR
    "bench_diff.py ${ARGS}: exit ${exit_code}, expected ${EXPECT_EXIT}\n${out}")
endif()
if(DEFINED EXPECT_OUTPUT AND NOT out MATCHES "${EXPECT_OUTPUT}")
  message(FATAL_ERROR
    "bench_diff.py ${ARGS}: output does not match '${EXPECT_OUTPUT}'\n${out}")
endif()
