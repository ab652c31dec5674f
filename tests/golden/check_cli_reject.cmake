# Asserts a CLI invocation is REJECTED: exit code EXPECT_RC (default 2,
# the usage error; 3 for a bad input file) and a diagnostic on stderr.
# Guards the strict flag and input parsing — a bare atoi() regression
# would make "--hosts banana" run a 0-host sim instead of failing fast.
# Driven by tests/CMakeLists.txt; variables: TOOL (binary), ARGS
# (semicolon-separated argv tail), EXPECT_RC (optional), EXPECT_STDERR
# (optional regex the diagnostic must match, naming the refused field).
if(NOT DEFINED EXPECT_RC)
    set(EXPECT_RC 2)
endif()
execute_process(
    COMMAND ${TOOL} ${ARGS}
    OUTPUT_QUIET
    ERROR_VARIABLE tool_stderr
    RESULT_VARIABLE run_rc)
if(NOT run_rc EQUAL EXPECT_RC)
    message(FATAL_ERROR
        "${TOOL} ${ARGS}: expected exit ${EXPECT_RC}, got rc=${run_rc}")
endif()
if(tool_stderr STREQUAL "")
    message(FATAL_ERROR
        "${TOOL} ${ARGS}: rejected silently — expected a diagnostic on "
        "stderr naming the bad flag value")
endif()
if(DEFINED EXPECT_STDERR AND NOT tool_stderr MATCHES "${EXPECT_STDERR}")
    message(FATAL_ERROR
        "${TOOL} ${ARGS}: diagnostic does not match '${EXPECT_STDERR}': "
        "${tool_stderr}")
endif()
