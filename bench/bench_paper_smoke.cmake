# ctest driver for bench_paper: run every artifact at one small size and
# check that it exits 0 (so every proof verified) and prints each
# artifact's title blocks, run the zoo artifacts where the small zoo
# instances fit, then check that an unknown artifact name and a
# malformed or out-of-range size setting exit 2.
#
#   cmake -DBENCH_PAPER=path/to/bench_paper -P bench_paper_smoke.cmake

set(ENV{ZKP_MIN_LOG_N} 8)
set(ENV{ZKP_MAX_LOG_N} 8)
set(ENV{ZKP_REPEATS} 1)
set(ENV{ZKP_WS_BASE_LOG_N} 5)

execute_process(COMMAND ${BENCH_PAPER}
    RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
    message(FATAL_ERROR "bench_paper exited ${rc}\n${out}\n${err}")
endif()

set(per_curve
    "E0 execution time per stage"
    "E0 stage share of total time"
    "Fig.4 top-down slot classification"
    "Fig.4 dominant bucket per CPU (largest n)"
    "Fig.6 strong-scaling speedup on the i9 model"
    "Fig.7 weak-scaling speedup on the i9 model"
    "Table IV: time-consuming functions"
    "E11 PlonK vs Groth16 proving time")
set(titles
    "Fig.5 loads per stage"
    "Fig.5 stores per stage"
    "Fig.5 headline ratios at largest n"
    "Table II: LLC load MPKI (simulated hierarchies)"
    "Table II (paper, for comparison)"
    "Table III: maximum memory bandwidth"
    "Table V: opcode-type percentages"
    "Table V (paper, for comparison)"
    "Table VI: serial/parallel percentages"
    "Table VI (paper, for comparison)"
    "E10 A4 counting probe cost (Fq multiply, BN128)"
    "E11 Groth16 vs PlonK vs transparent STARK, BN128"
    "E12 zoo prove-stage characterization (i9 model), BN128"
    "E12 zoo pipeline times, BN128"
    "E13 zoo memory footprint by circuit, scheme and phase (1 thread), BN128"
    "E14 STARK vs Groth16 prover opcode mix and LLC MPKI")
foreach(prefix IN LISTS per_curve)
    list(APPEND titles "${prefix}, BN128" "${prefix}, BLS12-381")
endforeach()
foreach(title IN LISTS titles)
    string(FIND "${out}" "== ${title} ==" pos)
    if(pos EQUAL -1)
        message(FATAL_ERROR "missing title block '${title}'\n${out}")
    endif()
endforeach()

# At 2^10 the exp, mimc, poseidon and range instances run (merkle,
# sha256 and schnorr are larger and print as skipped): each has a timed
# pipeline row with its gate count and Groth16 footprint rows.
set(ENV{ZKP_MIN_LOG_N} 10)
set(ENV{ZKP_MAX_LOG_N} 10)
execute_process(COMMAND ${BENCH_PAPER} zoo footprint
    RESULT_VARIABLE rc OUTPUT_VARIABLE zoo ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
    message(FATAL_ERROR
        "bench_paper zoo footprint exited ${rc}\n${zoo}\n${err}")
endif()
foreach(circuit exp mimc poseidon range)
    foreach(row "${circuit} +[0-9]+ +[0-9]+ +[0-9]+ "
            "${circuit} +groth16 +prove ")
        if(NOT zoo MATCHES "\n${row}")
            message(FATAL_ERROR "no '${row}' row at 2^10\n${zoo}")
        endif()
    endforeach()
endforeach()

# A cell must not depend on what ran before it in the process: the
# 2^9 load/store rows of Fig. 5 are the same whether or not the 2^8
# cells ran first (StageRunner derives one-time tables up front).
set(ENV{ZKP_MAX_LOG_N} 9)
foreach(lo 8 9)
    set(ENV{ZKP_MIN_LOG_N} ${lo})
    execute_process(COMMAND ${BENCH_PAPER} fig5
        RESULT_VARIABLE rc OUTPUT_VARIABLE fig5 ERROR_QUIET)
    if(NOT rc EQUAL 0)
        message(FATAL_ERROR "bench_paper fig5 exited ${rc}")
    endif()
    string(REGEX MATCHALL "[a-z]+ +2\\^9 [^\n]*" rows_${lo} "${fig5}")
endforeach()
list(LENGTH rows_9 count)
if(NOT count EQUAL 10 OR NOT rows_8 STREQUAL rows_9)
    message(FATAL_ERROR "Fig. 5 2^9 rows depend on the sweep start:\n"
        "from 2^8: ${rows_8}\nfrom 2^9: ${rows_9}")
endif()

execute_process(COMMAND ${BENCH_PAPER} nosuch
    RESULT_VARIABLE rc OUTPUT_QUIET ERROR_QUIET)
if(NOT rc EQUAL 2)
    message(FATAL_ERROR "bench_paper nosuch exited ${rc}, expected 2")
endif()

# Settings are checked before anything runs, the weak-scaling base too,
# though schemes does not read it. Only values that are safe to hand to
# an unchecked reader are tried: a repeat count of 0 and a malformed or
# oversized log size.
foreach(setting "ZKP_REPEATS=0" "ZKP_MAX_LOG_N=abc" "ZKP_MAX_LOG_N=64"
        "ZKP_WS_BASE_LOG_N=abc")
    execute_process(COMMAND ${CMAKE_COMMAND} -E env ${setting}
            ${BENCH_PAPER} schemes
        RESULT_VARIABLE rc OUTPUT_QUIET ERROR_VARIABLE err)
    if(NOT rc EQUAL 2)
        message(FATAL_ERROR
            "bench_paper with ${setting} exited ${rc}, expected 2\n${err}")
    endif()
endforeach()
