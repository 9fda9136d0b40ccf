# cmake -DSIM=<ahbp_sim> -DDIR=<scratch dir> -P trace_tools.cmake
# Captures table1/rt-1 (40 items per master, TLM) into DIR, then checks
# that `trace info` counts master0's 40 records and that `trace slice
# --first 10 --count 5` writes exactly records 10..14 as a 5-record trace.
function(sim)
  execute_process(COMMAND "${SIM}" ${ARGN} RESULT_VARIABLE rc
                  OUTPUT_VARIABLE out ERROR_VARIABLE err)
  if(NOT rc STREQUAL "0")
    message(FATAL_ERROR "ahbp_sim ${ARGN}: exit ${rc}\n${out}${err}")
  endif()
  set(out "${out}" PARENT_SCOPE)
endfunction()

file(REMOVE_RECURSE "${DIR}")
sim(run table1/rt-1 --items 40 --model tlm --quiet --capture-trace "${DIR}")
sim(trace info "${DIR}/master0.trace")
if(NOT out MATCHES "\nrecords: 40 \\(")
  message(FATAL_ERROR "trace info on the capture:\n${out}")
endif()

sim(trace slice "${DIR}/master0.trace" --first 10 --count 5
    --out "${DIR}/slice.trace")
sim(trace info "${DIR}/slice.trace")
if(NOT out MATCHES "\nrecords: 5 \\(")
  message(FATAL_ERROR "trace info on the slice:\n${out}")
endif()

# Line 0 of both files is the format comment; records follow in order.
file(STRINGS "${DIR}/master0.trace" full)
file(STRINGS "${DIR}/slice.trace" slice)
list(SUBLIST full 11 5 want)
list(SUBLIST slice 1 -1 got)
if(NOT got STREQUAL want)
  message(FATAL_ERROR "slice holds\n${got}\nexpected\n${want}")
endif()
file(REMOVE_RECURSE "${DIR}")
message("trace info/slice OK")
