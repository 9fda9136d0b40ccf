# cmake -DBENCH=<bench binary> -DJSON=<scratch path> -P bench_count_args.cmake
# Each malformed count must exit 2 and leave no JSON.  The usage lines are
# echoed only after every case passed, for ctest's PASS_REGULAR_EXPRESSION.
foreach(arg -5 abc 0)
  file(REMOVE "${JSON}")
  execute_process(COMMAND "${BENCH}" ${arg} "${JSON}" RESULT_VARIABLE rc
                  OUTPUT_QUIET ERROR_VARIABLE err)
  if(NOT rc STREQUAL "2" OR EXISTS "${JSON}")
    message(FATAL_ERROR "count '${arg}': exit ${rc}, expected 2 and no JSON")
  endif()
  string(APPEND usage "${err}")
endforeach()
message("${usage}")
