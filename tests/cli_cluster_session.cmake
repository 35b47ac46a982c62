# Drives dynamic_kcore_cli's cluster mode (2 write shards x 1 replica)
# through cli_cluster_session.txt: the group must come up, a routed write
# and fan-out reads must go through, and `stats` must show reads served by
# replicas (0 would mean routing never reached the replica plane).
#
#   cmake -DCLI=<dynamic_kcore_cli> -DSCRIPT=<input> \
#         -P cli_cluster_session.cmake
execute_process(
  COMMAND ${CLI} --write-shards 2 --replicas 1 -
  INPUT_FILE ${SCRIPT}
  OUTPUT_VARIABLE out
  ERROR_VARIABLE err
  RESULT_VARIABLE rc)
message("${out}${err}")
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "dynamic_kcore_cli exited with '${rc}', expected 0")
endif()
if(NOT out MATCHES "cluster ready: ")
  message(FATAL_ERROR "no 'cluster ready:' line")
endif()
if(NOT out MATCHES "replica_serves=([0-9]+)")
  message(FATAL_ERROR "session did not survive to answer 'stats'")
endif()
if(CMAKE_MATCH_1 EQUAL 0)
  message(FATAL_ERROR "replica_serves=0: no read reached a replica")
endif()
