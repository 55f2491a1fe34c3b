# Runs `bench_dse --help` in the empty directory WORK_DIR and fails unless
# it exits with status 2 (usage) and leaves no BENCH_dse.json there: a
# bench_dse that ignored the flag would run in full and write its JSON
# baseline into the current directory.
#
#   cmake -DBENCH_DSE=<path> -DWORK_DIR=<dir> -P bench_dse_help_writes_nothing.cmake

file(REMOVE_RECURSE "${WORK_DIR}")
file(MAKE_DIRECTORY "${WORK_DIR}")
execute_process(COMMAND "${BENCH_DSE}" --help
  WORKING_DIRECTORY "${WORK_DIR}"
  RESULT_VARIABLE status
  OUTPUT_QUIET
  ERROR_VARIABLE usage)
if(NOT status STREQUAL "2")
  message(FATAL_ERROR "bench_dse --help exited with '${status}', expected 2")
endif()
if(NOT usage MATCHES "usage:")
  message(FATAL_ERROR "bench_dse --help printed no usage to stderr")
endif()
if(EXISTS "${WORK_DIR}/BENCH_dse.json")
  message(FATAL_ERROR "bench_dse --help wrote BENCH_dse.json")
endif()
file(REMOVE_RECURSE "${WORK_DIR}")
