# Golden-output check for one paper-reproduction bench: runs BENCH in
# WORKDIR and compares one of its outputs byte for byte with GOLDEN —
# stdout, or the file named by OUTPUT that the bench writes into its
# working directory. On a mismatch it prints a unified diff and fails.
#
#   cmake -DBENCH=<exe> -DGOLDEN=<file> -DWORKDIR=<dir> [-DOUTPUT=<file>]
#         -P bench/golden_diff.cmake
#
# Re-bless a golden only for an intended output change, and say why.
foreach(var BENCH GOLDEN WORKDIR)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "golden_diff.cmake: ${var} is not set")
  endif()
endforeach()

file(REMOVE_RECURSE "${WORKDIR}")
file(MAKE_DIRECTORY "${WORKDIR}")
execute_process(COMMAND "${BENCH}"
                WORKING_DIRECTORY "${WORKDIR}"
                OUTPUT_FILE "${WORKDIR}/stdout.txt"
                RESULT_VARIABLE status)
if(NOT status EQUAL 0)
  message(FATAL_ERROR "${BENCH} exited with ${status}")
endif()

if(DEFINED OUTPUT)
  set(actual "${WORKDIR}/${OUTPUT}")
else()
  set(actual "${WORKDIR}/stdout.txt")
endif()
execute_process(COMMAND "${CMAKE_COMMAND}" -E compare_files
                        "${GOLDEN}" "${actual}"
                RESULT_VARIABLE differs)
if(differs)
  find_program(DIFF_PROGRAM diff)
  if(DIFF_PROGRAM)
    execute_process(COMMAND "${DIFF_PROGRAM}" -u "${GOLDEN}" "${actual}")
  else()
    file(READ "${actual}" content)
    message("${actual}:\n${content}")
  endif()
  message(FATAL_ERROR "${actual} differs from ${GOLDEN}")
endif()
