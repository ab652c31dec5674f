# Runs a bench with --trace and --timeseries, then asks vpm_top --query
# for every series named in the trace's .csv, and fails unless the two
# CSVs are the same bytes: the trace export and vpm_top share one bucket
# CSV writer over the same store.
# Driven by tests/CMakeLists.txt; variables: BENCH, VPM_TOP, DIR.
file(REMOVE_RECURSE ${DIR})
file(MAKE_DIRECTORY ${DIR})
execute_process(
    COMMAND ${BENCH} --quick --trace ${DIR}/run.json
            --timeseries ${DIR}/run.vpmts
    OUTPUT_QUIET
    RESULT_VARIABLE run_rc)
if(NOT run_rc EQUAL 0)
    message(FATAL_ERROR "${BENCH} --trace --timeseries failed (rc=${run_rc})")
endif()
file(STRINGS ${DIR}/run.csv rows)
list(POP_FRONT rows header)
if(NOT header STREQUAL "series,start_us,min,max,mean,sum,count,last")
    message(FATAL_ERROR "unexpected trace CSV header '${header}'")
endif()
set(names)
foreach(row IN LISTS rows)
    string(REGEX REPLACE ",.*" "" name "${row}")
    list(APPEND names ${name})
endforeach()
list(REMOVE_DUPLICATES names)
list(FIND names cluster.power.watts have_power)
if(have_power EQUAL -1)
    message(FATAL_ERROR "trace CSV ${DIR}/run.csv holds no cluster.power.watts rows")
endif()
string(JOIN "," query ${names})
execute_process(
    COMMAND ${VPM_TOP} ${DIR}/run.vpmts --query ${query}
    OUTPUT_FILE ${DIR}/query.csv
    RESULT_VARIABLE top_rc)
if(NOT top_rc EQUAL 0)
    message(FATAL_ERROR "vpm_top --query failed (rc=${top_rc})")
endif()
execute_process(
    COMMAND ${CMAKE_COMMAND} -E compare_files ${DIR}/run.csv
            ${DIR}/query.csv
    RESULT_VARIABLE cmp_rc)
if(NOT cmp_rc EQUAL 0)
    message(FATAL_ERROR
        "trace CSV ${DIR}/run.csv differs from vpm_top --query over the "
        "same store (${DIR}/query.csv)")
endif()
