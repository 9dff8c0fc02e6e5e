# Runs BIN and fails unless its stdout is byte-identical to the committed
# file GOLDEN. The run's stdout is kept at OUT for inspection.
#
#   cmake -DBIN=<exe> -DGOLDEN=<file> -DOUT=<file> -P pin_stdout.cmake
get_filename_component(out_dir ${OUT} DIRECTORY)
file(MAKE_DIRECTORY ${out_dir})
execute_process(COMMAND ${BIN} OUTPUT_FILE ${OUT} RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "${BIN} exited with ${rc}")
endif()
execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files ${OUT} ${GOLDEN}
                RESULT_VARIABLE differ)
if(NOT differ EQUAL 0)
  message(FATAL_ERROR "stdout of ${BIN} differs from ${GOLDEN}; "
                      "diff ${OUT} against it")
endif()
