# Checks that each native pstlb_cli kernel runs the algorithm it is named
# after: one run per kernel with PSTLB_STATS_FILE set, whose stats dump must
# hold a row for that algorithm.
#
#   cmake -DCLI=<path to pstlb_cli> -DWORK=<scratch dir> -P cli_kernel_names.cmake
foreach(kernel count min_element transform exclusive_scan)
  set(stats "${WORK}/cli_kernel_${kernel}.json")
  file(REMOVE "${stats}")
  execute_process(
    COMMAND ${CMAKE_COMMAND} -E env "PSTLB_STATS_FILE=${stats}"
            "${CLI}" --mode=native --kernel=${kernel} --backend=steal
            --threads=4 --size=4096 --reps=1
    RESULT_VARIABLE rc
    OUTPUT_QUIET)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "pstlb_cli --kernel=${kernel} exited with ${rc}")
  endif()
  file(READ "${stats}" dump)
  string(FIND "${dump}" "\"op\":\"${kernel}\"" at)
  if(at EQUAL -1)
    message(FATAL_ERROR "--kernel=${kernel} made no pstlb::${kernel} call")
  endif()
endforeach()
