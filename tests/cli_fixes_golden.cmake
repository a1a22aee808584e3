# Fails unless `sqlcheck --fixes --format json --apply <out> <input>` writes
# the recorded report and rewritten workload, byte for byte. The goldens pin
# the fix layer end to end: proposals, verification tiers, rank order and the
# --apply rewrite. Run as:
#   cmake -DSQLCHECK=<path to sqlcheck> -DINPUT=<examples/sample_workload.sql> \
#         -DGOLDEN_JSON=<tests/golden/sample_workload_fixes.json> \
#         -DGOLDEN_SQL=<tests/golden/sample_workload_applied.sql> \
#         -DWORK_DIR=<writable dir> -P tests/cli_fixes_golden.cmake
set(applied "${WORK_DIR}/cli_fixes_golden_out.sql")
file(REMOVE "${applied}")
execute_process(COMMAND "${SQLCHECK}" --fixes --format json --apply "${applied}" "${INPUT}"
                OUTPUT_VARIABLE report
                ERROR_VARIABLE diagnostics
                RESULT_VARIABLE status)
# Exit 1 means findings were reported; anything else is a failure.
if(NOT status EQUAL 1)
  message(FATAL_ERROR "sqlcheck --fixes --format json --apply exited with ${status}\n"
                      "${diagnostics}")
endif()

file(READ "${GOLDEN_JSON}" expected_report)
if(NOT report STREQUAL expected_report)
  file(WRITE "${WORK_DIR}/cli_fixes_golden_out.json" "${report}")
  message(FATAL_ERROR "the --fixes JSON report differs from ${GOLDEN_JSON}; "
                      "the actual output is in ${WORK_DIR}/cli_fixes_golden_out.json")
endif()

if(NOT EXISTS "${applied}")
  message(FATAL_ERROR "--apply wrote no file at ${applied}")
endif()
file(READ "${applied}" applied_sql)
file(READ "${GOLDEN_SQL}" expected_sql)
if(NOT applied_sql STREQUAL expected_sql)
  message(FATAL_ERROR "the --apply output ${applied} differs from ${GOLDEN_SQL}")
endif()
