# Table-driven bad-input check for firefly_cli.
#
#   cmake -DCLI=/path/to/firefly_cli -P cli_bad_input.cmake
#
# Each row is one argument string that must make the CLI exit
# with status 2 and print a message on stderr.  A crash (abort, SIGFPE)
# reports a non-numeric result and fails the row like any other status.
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

set(failures 0)
foreach(case IN LISTS cases)
  separate_arguments(args UNIX_COMMAND "${case}")
  execute_process(
    COMMAND "${CLI}" --protocol st --periods 5 ${args}
    RESULT_VARIABLE status
    OUTPUT_QUIET
    ERROR_VARIABLE stderr
    TIMEOUT 60)
  string(STRIP "${stderr}" stderr)
  if(NOT status STREQUAL "2" OR stderr STREQUAL "")
    message(SEND_ERROR "firefly_cli ${case}: exit '${status}', stderr '${stderr}' "
                       "(want exit 2 and a message)")
    math(EXPR failures "${failures} + 1")
  else()
    message(STATUS "firefly_cli ${case}: exit 2 — ${stderr}")
  endif()
endforeach()
if(failures GREATER 0)
  message(FATAL_ERROR "${failures} bad-input case(s) not rejected with exit 2")
endif()
