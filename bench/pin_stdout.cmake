# Runs BIN with ARGS in a fresh working directory DIR, its stdout and
# stderr going to DIR/stdout and DIR/stderr, and fails unless it exits 0
# and DIR then holds exactly the files of the committed directory GOLDEN,
# byte for byte: stdout, stderr and every file the run wrote. With
# MASK_WALL_MS set, stdout's host-timed `"wall_ms": <n>` fields read
# `"wall_ms": <masked>` before the comparison. DIR is left in place, so
# regenerating a golden is copying DIR over it.
#
#   cmake -DBIN=<exe> [-DARGS=<args>] -DDIR=<dir> -DGOLDEN=<dir>
#         [-DMASK_WALL_MS=ON] -P pin_stdout.cmake
string(STRIP "${BIN} ${ARGS}" run)
file(REMOVE_RECURSE ${DIR})
file(MAKE_DIRECTORY ${DIR})
execute_process(COMMAND ${BIN} ${ARGS} WORKING_DIRECTORY ${DIR}
                OUTPUT_FILE ${DIR}/stdout ERROR_FILE ${DIR}/stderr
                RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "${run} exited with ${rc}; see ${DIR}/stderr")
endif()
if(MASK_WALL_MS)
  file(READ ${DIR}/stdout out)
  string(REGEX REPLACE "\"wall_ms\": [0-9.]+" "\"wall_ms\": <masked>"
         out "${out}")
  file(WRITE ${DIR}/stdout "${out}")
endif()

file(GLOB_RECURSE got RELATIVE ${DIR} ${DIR}/*)
file(GLOB_RECURSE want RELATIVE ${GOLDEN} ${GOLDEN}/*)
list(SORT got)
list(SORT want)
if(NOT got STREQUAL want)
  message(FATAL_ERROR "${run} left files [${got}] in ${DIR}; "
                      "${GOLDEN} has [${want}]")
endif()
foreach(f IN LISTS want)
  execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files
                          ${DIR}/${f} ${GOLDEN}/${f}
                  RESULT_VARIABLE differ)
  if(NOT differ EQUAL 0)
    list(APPEND moved ${f})
  endif()
endforeach()
if(moved)
  message(FATAL_ERROR "${run}: [${moved}] differ from ${GOLDEN}; "
                      "diff -r ${DIR} ${GOLDEN}")
endif()
