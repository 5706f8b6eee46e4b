# ctest fixture for the README walkthrough: rebuild DIR/demo.epar from
# an empty DIR with `GROUND_QUERY --demo demo.epar`.
file(REMOVE_RECURSE "${DIR}")
file(MAKE_DIRECTORY "${DIR}")
execute_process(COMMAND "${GROUND_QUERY}" --demo demo.epar
                WORKING_DIRECTORY "${DIR}" RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "ground_query --demo gave exit status '${rc}'")
endif()
