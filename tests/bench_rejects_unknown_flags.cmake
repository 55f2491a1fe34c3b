# Runs the bench binary BENCH with command lines it must reject before
# doing any work, and fails unless each exits with status 2 (usage) and
# prints a usage line to stderr: a bench that ignored a misspelled flag
# such as `--max_n 16` would silently run its default range instead.  A
# missing or non-numeric `--max-n` value is rejected too (`figure1_flows`
# takes no flag at all and rejects every case).
#
#   cmake -DBENCH=<path> -P bench_rejects_unknown_flags.cmake

foreach(case "--max_n 16" "--help" "--max-n sixteen" "--max-n")
  separate_arguments(args UNIX_COMMAND "${case}")
  execute_process(COMMAND "${BENCH}" ${args}
    RESULT_VARIABLE status
    OUTPUT_QUIET
    ERROR_VARIABLE usage)
  if(NOT status STREQUAL "2")
    message(FATAL_ERROR "${BENCH} ${case} exited with '${status}', expected 2")
  endif()
  if(NOT usage MATCHES "usage:")
    message(FATAL_ERROR "${BENCH} ${case} printed no usage to stderr")
  endif()
endforeach()
