# Runs one bench and compares its stdout byte for byte with a golden file.
#
#   cmake -DBENCH=<binary> [-DARGS=<arg;arg;...>] -DGOLDEN=<file> \
#         -DACTUAL=<file> -P golden_stdout.cmake
#
# ARGS is a CMake list of command-line arguments for the bench.
# The model benches print only modeled figures, so two runs are identical;
# a difference means a cost-model change. Such a change updates the golden
# file (copy ACTUAL over it) and EXPERIMENTS.md together.
execute_process(COMMAND ${BENCH} ${ARGS} OUTPUT_VARIABLE actual
                RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "${BENCH} exited with ${rc}")
endif()
file(READ ${GOLDEN} expected)
if(NOT actual STREQUAL expected)
  file(WRITE ${ACTUAL} "${actual}")
  message(FATAL_ERROR "stdout of ${BENCH} differs from ${GOLDEN}; "
                      "the actual output is in ${ACTUAL}")
endif()
