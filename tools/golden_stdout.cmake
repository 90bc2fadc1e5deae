# Runs one command and compares its stdout byte for byte with a committed
# golden file. Fails on a non-zero exit or on any difference; the actual
# output is then written to ACTUAL so it can be diffed against GOLDEN.
#
#   cmake -DCMD=path/to/exe [-DARGS=arg] -DGOLDEN=expected.txt \
#         -DACTUAL=actual.txt -P golden_stdout.cmake
execute_process(COMMAND "${CMD}" ${ARGS}
                RESULT_VARIABLE code OUTPUT_VARIABLE out)
if(NOT code EQUAL 0)
  message(FATAL_ERROR "${CMD} ${ARGS} exited with ${code}:\n${out}")
endif()
file(READ "${GOLDEN}" expected)
if(NOT out STREQUAL expected)
  file(WRITE "${ACTUAL}" "${out}")
  message(FATAL_ERROR "${CMD} ${ARGS}: stdout differs from ${GOLDEN}\n"
                      "actual output: ${ACTUAL}")
endif()
