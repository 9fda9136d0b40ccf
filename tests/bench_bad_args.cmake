# cmake -DBENCH=<bench binary> -DCASES=<a,b,...> [-DLEAD=<arg>]
#       [-DJSON=<scratch path>] -P bench_bad_args.cmake
# Runs `BENCH [LEAD] <case> [JSON]` for each malformed case.  Each must exit
# 2, print nothing on stdout (nothing was simulated) and leave no JSON.  The
# usage lines are echoed only after every case passed, for ctest's
# PASS_REGULAR_EXPRESSION.
string(REPLACE "," ";" cases "${CASES}")
foreach(arg IN LISTS cases)
  if(DEFINED JSON)
    file(REMOVE "${JSON}")
  endif()
  execute_process(COMMAND "${BENCH}" ${LEAD} ${arg} ${JSON}
                  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
  if(NOT rc STREQUAL "2" OR NOT out STREQUAL "" OR
     (DEFINED JSON AND EXISTS "${JSON}"))
    message(FATAL_ERROR "argument '${arg}': exit ${rc}, stdout '${out}'; "
                        "expected 2, no output and no JSON")
  endif()
  string(APPEND usage "${err}")
endforeach()
message("${usage}")
