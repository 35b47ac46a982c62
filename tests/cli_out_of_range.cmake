# Drives dynamic_kcore_cli's single-service mode with out-of-range vertex
# ids (cli_out_of_range.txt): every such command must print an `error:`
# line, and the session must survive to answer `stats` and exit 0.
#
#   cmake -DCLI=<dynamic_kcore_cli> -DSCRIPT=<input> -P cli_out_of_range.cmake
execute_process(
  COMMAND ${CLI} -
  INPUT_FILE ${SCRIPT}
  OUTPUT_VARIABLE out
  ERROR_VARIABLE err
  RESULT_VARIABLE rc)
message("${out}${err}")
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "dynamic_kcore_cli exited with '${rc}', expected 0")
endif()
string(REGEX MATCHALL "error: [^\n]*" errors "${out}")
list(LENGTH errors num_errors)
if(NOT num_errors EQUAL 5)
  message(FATAL_ERROR "expected 5 'error:' lines, got ${num_errors}")
endif()
if(NOT out MATCHES "n=100 m=")
  message(FATAL_ERROR "session did not survive to answer 'stats'")
endif()
