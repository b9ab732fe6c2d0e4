# cmake -DEXIT=<code> -DREGEX=<regex> -P expect_exit.cmake -- <command>...
#
# Runs the command and fails unless it exits with <code> and its stdout
# and stderr together match <regex>. ctest's PASS_REGULAR_EXPRESSION alone
# ignores the exit code.
set(cmd)
set(after_separator FALSE)
math(EXPR last "${CMAKE_ARGC} - 1")
foreach(i RANGE ${last})
  if(after_separator)
    list(APPEND cmd "${CMAKE_ARGV${i}}")
  elseif(CMAKE_ARGV${i} STREQUAL "--")
    set(after_separator TRUE)
  endif()
endforeach()
execute_process(COMMAND ${cmd} RESULT_VARIABLE rc OUTPUT_VARIABLE out
                ERROR_VARIABLE out)
if(NOT rc STREQUAL "${EXIT}" OR NOT out MATCHES "${REGEX}")
  message(FATAL_ERROR "expected exit ${EXIT} and output matching "
                      "'${REGEX}', got exit ${rc}:\n${out}")
endif()
