# Pipes statements through `sqlcheck --follow --format json` and fails unless
# every output line parses as JSON with the fields statement, sql and
# findings, and the sql field round-trips a literal holding a quote, a
# backslash, a tab and a newline. Run as:
#   cmake -DSQLCHECK=<path to sqlcheck> -DWORK_DIR=<writable dir> \
#         -P tests/cli_follow_json.cmake
string(ASCII 9 tab)
set(literal "say \"hi\"\\there${tab}and\nbye")
set(input "${WORK_DIR}/cli_follow_json.sql")
file(WRITE "${input}"
     "CREATE TABLE notes (id INT PRIMARY KEY, body TEXT);\n"
     "INSERT INTO notes VALUES (1, '${literal}');\n"
     "SELECT * FROM notes WHERE body = '${literal}';\n")
execute_process(COMMAND "${SQLCHECK}" --follow --format json
                INPUT_FILE "${input}"
                OUTPUT_VARIABLE output
                RESULT_VARIABLE status)
# Exit 1 means findings were streamed; anything else is a failure.
if(NOT status EQUAL 0 AND NOT status EQUAL 1)
  message(FATAL_ERROR "sqlcheck --follow --format json exited with ${status}")
endif()

# Walk the lines by hand: JSON holds `;` and `[`, which CMake lists mangle.
set(lines 0)
set(literal_seen 0)
string(LENGTH "${output}" remaining)
while(remaining GREATER 0)
  string(FIND "${output}" "\n" end)
  if(end EQUAL -1)
    message(FATAL_ERROR "output does not end in a newline")
  endif()
  string(SUBSTRING "${output}" 0 ${end} line)
  math(EXPR next "${end} + 1")
  string(SUBSTRING "${output}" ${next} -1 output)
  string(LENGTH "${output}" remaining)
  math(EXPR lines "${lines} + 1")

  string(JSON statement ERROR_VARIABLE error GET "${line}" statement)
  if(error)
    message(FATAL_ERROR "line ${lines} is not JSON with a statement field: ${error}\n${line}")
  endif()
  if(NOT statement MATCHES "^[0-9]+$")
    message(FATAL_ERROR "line ${lines}: statement is not an index: ${statement}")
  endif()
  string(JSON sql ERROR_VARIABLE error GET "${line}" sql)
  if(error)
    message(FATAL_ERROR "line ${lines} has no sql field: ${error}\n${line}")
  endif()
  string(JSON findings_type ERROR_VARIABLE error TYPE "${line}" findings)
  if(error OR NOT findings_type STREQUAL "ARRAY")
    message(FATAL_ERROR "line ${lines}: findings is not an array\n${line}")
  endif()
  string(FIND "${sql}" "${literal}" at)
  if(NOT at EQUAL -1)
    math(EXPR literal_seen "${literal_seen} + 1")
  endif()
endwhile()

if(NOT lines EQUAL 3)
  message(FATAL_ERROR "expected 3 NDJSON lines, got ${lines}")
endif()
if(NOT literal_seen EQUAL 2)
  message(FATAL_ERROR "the literal round-tripped through ${literal_seen} sql fields, not 2")
endif()
