# Runs BIN with `OPTION VALUE` (a malformed or out-of-range value) and
# checks that it fails the way qc::run_main makes a binary fail: a normal
# nonzero exit code — a signal exit, such as SIGABRT from std::terminate,
# fails the check — with the option named on stderr.
#
#   cmake -DBIN=<binary> -DOPTION=--qubits -DVALUE=abc -P cli_exit.cmake
execute_process(COMMAND "${BIN}" "${OPTION}" "${VALUE}"
                RESULT_VARIABLE rc
                OUTPUT_QUIET
                ERROR_VARIABLE err)
if(NOT rc MATCHES "^[0-9]+$")
  message(FATAL_ERROR "${BIN} ${OPTION} ${VALUE}: ended by '${rc}', not by an exit code")
endif()
if(rc EQUAL 0)
  message(FATAL_ERROR "${BIN} ${OPTION} ${VALUE}: exited 0 on a bad option value")
endif()
string(FIND "${err}" "${OPTION}" at)
if(at EQUAL -1)
  message(FATAL_ERROR "${BIN} ${OPTION} ${VALUE}: stderr does not name ${OPTION}: '${err}'")
endif()
message(STATUS "exit code ${rc}; stderr: ${err}")
