# ctest driver for zkperfd's flag checks: every value below is not a
# positive decimal integer where one is required, so zkperfd must print
# its usage and exit 2 before it builds a service, starts a thread or
# binds a socket.
#
#   cmake -DZKPERFD=path/to/zkperfd -DSOCKET=path/to/unused.sock \
#         -P zkperfd_flags.cmake
#
# --no-prewarm and the TIMEOUT bound a regression that accepts one of
# these values: the daemon would start serving instead of exiting, and
# the timeout reports that as a failure.

function(expect_usage flag value)
    execute_process(
        COMMAND ${ZKPERFD} --socket ${SOCKET} --no-prewarm
            ${flag} "${value}"
        RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err
        TIMEOUT 30)
    if(NOT rc EQUAL 2)
        message(FATAL_ERROR
            "zkperfd ${flag} '${value}' exited '${rc}', expected 2\n"
            "${out}\n${err}")
    endif()
    string(FIND "${err}" "usage:" pos)
    if(pos EQUAL -1)
        message(FATAL_ERROR
            "zkperfd ${flag} '${value}' printed no usage\n${err}")
    endif()
endfunction()

foreach(value 8x -3 abc "")
    expect_usage(--log2 "${value}")
endforeach()
foreach(value -1 0 abc 2x 99999999999999999999999)
    expect_usage(--workers "${value}")
endforeach()
expect_usage(--queue -1)
expect_usage(--queue 0)
expect_usage(--prove-threads -1)
expect_usage(--prove-threads +4)
foreach(value poseidon:-5 poseidon: poseidon:abc poseidon:0)
    expect_usage(--circuit "${value}")
endforeach()
foreach(value mimc:abc fib:-64 mimc:)
    expect_usage(--stark "${value}")
endforeach()
