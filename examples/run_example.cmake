# Runs one example for ctest: it passes when the example exits 0 and prints
# every line of its expectation file, each as a whole line.
#
#   cmake -DEXAMPLE=<binary> -DEXPECTED=<file> -P run_example.cmake
execute_process(COMMAND "${EXAMPLE}"
                OUTPUT_VARIABLE output
                ERROR_VARIABLE errors
                RESULT_VARIABLE result)
if(NOT result EQUAL 0)
  message(FATAL_ERROR "${EXAMPLE} exited with '${result}'\n${output}${errors}")
endif()
file(STRINGS "${EXPECTED}" expected_lines ENCODING UTF-8)
foreach(line IN LISTS expected_lines)
  string(FIND "\n${output}" "\n${line}\n" at)
  if(at EQUAL -1)
    message(FATAL_ERROR "${EXAMPLE} did not print the line\n${line}\n"
                        "output:\n${output}")
  endif()
endforeach()
