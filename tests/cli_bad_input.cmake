# Table-driven bad-input check for firefly_cli, or for bench_scale.
#
#   cmake -DCLI=/path/to/firefly_cli -P cli_bad_input.cmake
#   cmake -DBENCH_SCALE=/path/to/bench_scale -P cli_bad_input.cmake
#
# Each row is one argument string that must make the program exit
# with status 2 and print a message on stderr.  A crash (abort, SIGFPE)
# or a run past the timeout reports a non-numeric result and fails the row
# like any other status.
if(DEFINED BENCH_SCALE)
  set(program "${BENCH_SCALE}")
  set(fixed_args "")
  set(cases
    "--trials -1"
  )
else()
  set(program "${CLI}")
  set(fixed_args --protocol st --periods 5)
  set(cases
    "--n -5"
    "--n 0"
    "--n 70000"
    "--period 0"
    "--period 5000000000"
    "--periods 0"
    "--trials 0"
    "--epsilon nan"
    "--epsilon -3"
    "--epsilon inf"
    "--drop 1.5"
    "--downtime 0"
    "--mobility -1"
    "--scheduler heap"
    "--device-core struct"
  )
endif()
get_filename_component(name "${program}" NAME)

set(failures 0)
foreach(case IN LISTS cases)
  separate_arguments(args UNIX_COMMAND "${case}")
  execute_process(
    COMMAND "${program}" ${fixed_args} ${args}
    RESULT_VARIABLE status
    OUTPUT_QUIET
    ERROR_VARIABLE stderr
    TIMEOUT 60)
  string(STRIP "${stderr}" stderr)
  if(NOT status STREQUAL "2" OR stderr STREQUAL "")
    message(SEND_ERROR "${name} ${case}: exit '${status}', stderr '${stderr}' "
                       "(want exit 2 and a message)")
    math(EXPR failures "${failures} + 1")
  else()
    message(STATUS "${name} ${case}: exit 2 — ${stderr}")
  endif()
endforeach()
if(failures GREATER 0)
  message(FATAL_ERROR "${failures} bad-input case(s) not rejected with exit 2")
endif()
