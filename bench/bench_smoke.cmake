# Smoke-runs one paper bench: cmake -DBENCH=path/to/bench -P bench_smoke.cmake
# Passes when the bench exits 0 and prints its title line.
execute_process(COMMAND "${BENCH}" RESULT_VARIABLE code OUTPUT_VARIABLE out)
if(NOT code EQUAL 0)
  message(FATAL_ERROR "${BENCH} exited with ${code}:\n${out}")
endif()
if(NOT out MATCHES "(^|\n)(Table|Figure|Ablation|Discussion)")
  message(FATAL_ERROR "${BENCH} printed no title line:\n${out}")
endif()
