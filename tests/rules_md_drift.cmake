# Fails when docs/RULES.md differs, byte for byte, from what the built CLI
# generates. Run as:
#   cmake -DSQLCHECK=<path to sqlcheck> -DRULES_MD=<path to docs/RULES.md> \
#         -P tests/rules_md_drift.cmake
execute_process(COMMAND "${SQLCHECK}" --explain-all --format md
                OUTPUT_VARIABLE generated
                RESULT_VARIABLE status)
if(NOT status EQUAL 0)
  message(FATAL_ERROR "sqlcheck --explain-all --format md exited with ${status}")
endif()
file(READ "${RULES_MD}" committed)
if(NOT generated STREQUAL committed)
  message(FATAL_ERROR "docs/RULES.md is stale; regenerate it with "
                      "'sqlcheck --explain-all --format md > docs/RULES.md'")
endif()
