# Checks that earthplus_tile_serverd rejects malformed numeric flags:
# each case below must print the usage text and exit with status 2.
# `--selftest` rides along so that a daemon which wrongly accepts a
# value runs its loopback round trip and exits 0 instead of serving.
#
#   cmake -DSERVERD=<path to earthplus_tile_serverd> \
#         -P tools/serverd_flag_check.cmake
if(NOT SERVERD)
  message(FATAL_ERROR "pass -DSERVERD=<path to earthplus_tile_serverd>")
endif()

foreach(flags IN ITEMS
        "--port;70000" "--port;abc" "--port;-1" "--port;1e3"
        "--cache-mb;-1" "--max-pending;12x" "--drain-ms;4294967296")
  execute_process(
    COMMAND "${SERVERD}" ${flags} --selftest
    RESULT_VARIABLE rc
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err
    TIMEOUT 30)
  if(NOT rc EQUAL 2 OR NOT err MATCHES "usage:")
    message(FATAL_ERROR
      "'${flags}' gave exit status '${rc}', expected 2 with usage text\n"
      "stdout: ${out}\nstderr: ${err}")
  endif()
endforeach()
message(STATUS "all malformed flags rejected")
