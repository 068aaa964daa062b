# Runs one example and fails on a nonzero exit or on stdout that differs
# from its golden file by a single byte. On a mismatch the actual stdout is
# kept next to the binary as <binary>.stdout for diffing.
#
#   cmake -DEXE=<example binary> -DEXPECTED=<golden .txt> -P check_stdout.cmake
execute_process(COMMAND "${EXE}" OUTPUT_VARIABLE actual RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "${EXE} exited with ${rc}")
endif()
file(READ "${EXPECTED}" expected)
if(NOT actual STREQUAL expected)
  file(WRITE "${EXE}.stdout" "${actual}")
  message(FATAL_ERROR "${EXE}: stdout differs from ${EXPECTED} (actual in ${EXE}.stdout)")
endif()
