# Runs the command after "--" and passes only when it exits with status 2
# AND prints a line matching USAGE: a usage error. A ctest
# PASS_REGULAR_EXPRESSION alone cannot check this, because it makes ctest
# ignore the exit code.
#
#   cmake "-DUSAGE=<regex>" -P expect_usage_error.cmake -- <program> [args...]

set(command)
set(after_separator FALSE)
math(EXPR last "${CMAKE_ARGC} - 1")
foreach(i RANGE ${last})
  if(after_separator)
    list(APPEND command "${CMAKE_ARGV${i}}")
  elseif("${CMAKE_ARGV${i}}" STREQUAL "--")
    set(after_separator TRUE)
  endif()
endforeach()
if(NOT command)
  message(FATAL_ERROR "no command after --")
endif()

execute_process(COMMAND ${command} RESULT_VARIABLE status
                OUTPUT_VARIABLE out ERROR_VARIABLE out)
if(NOT status EQUAL 2)
  message(FATAL_ERROR "exit status '${status}', not 2, from ${command}:\n${out}")
endif()
if(NOT out MATCHES "${USAGE}")
  message(FATAL_ERROR "no line matching '${USAGE}' from ${command}:\n${out}")
endif()
