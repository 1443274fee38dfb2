# Shipped-binary acceptance for the run ledger (ISSUE 6): one --jobs 4
# batch run over the 20-unit LU workload must produce
#   - a --metrics-out file with the serve latency histograms and their
#     p50/p90/p99 percentiles,
#   - an .events.jsonl covering every unit's full 5-stage lifecycle
#     (queued/started/cache_miss/summarized/linked), and
#   - a non-empty folded profile of the run's span paths;
# and a second run must reproduce the event sequence byte-identically
# modulo t_ns/lane (the measurements).
#   cmake -DARAC=... -DWORKLOADS=... -DOUT=... -P run_ledger_cli.cmake
file(REMOVE_RECURSE "${OUT}")
file(MAKE_DIRECTORY "${OUT}")
file(GLOB LU_SOURCES "${WORKLOADS}/lu/*.f")
list(SORT LU_SOURCES)
list(LENGTH LU_SOURCES N_UNITS)

execute_process(
  COMMAND "${ARAC}" --quiet --name lu --jobs 4
          --metrics-out "${OUT}/m.json"
          --profile "${OUT}/p.folded"
          --export-dir "${OUT}/export" ${LU_SOURCES}
  RESULT_VARIABLE RC
  ERROR_VARIABLE RUN_ERR)
if(NOT RC EQUAL 0)
  message(FATAL_ERROR "ledger run failed (rc=${RC}):\n${RUN_ERR}")
endif()

# --- metrics: valid percentiles for the per-unit latency histograms -------
if(NOT EXISTS "${OUT}/m.json")
  message(FATAL_ERROR "--metrics-out wrote nothing")
endif()
file(READ "${OUT}/m.json" METRICS)
if(NOT METRICS MATCHES "\"schema\": \"ara.metrics.v1\"")
  message(FATAL_ERROR "m.json has no ara.metrics.v1 schema header:\n${METRICS}")
endif()
foreach(hist serve.queue_wait_ns serve.unit_parse_ns serve.unit_summarize_ns
             serve.unit_link_ns)
  if(NOT METRICS MATCHES "\"${hist}\"")
    message(FATAL_ERROR "m.json is missing the ${hist} histogram:\n${METRICS}")
  endif()
endforeach()
foreach(field p50 p90 p99 count mean)
  if(NOT METRICS MATCHES "\"${field}\": [0-9]")
    message(FATAL_ERROR "m.json carries no numeric ${field} field:\n${METRICS}")
  endif()
endforeach()
# Every unit parsed once, so the parse histogram saw all of them.
if(NOT METRICS MATCHES "\"serve\\.unit_parse_ns\": {[^}]*\"count\": ${N_UNITS}[,.]")
  message(FATAL_ERROR "unit_parse_ns count != ${N_UNITS} units:\n${METRICS}")
endif()

# --- event log: every unit's complete lifecycle ---------------------------
# With --metrics-out and no explicit --events, the engine derives
# m.events.jsonl next to the metrics file.
if(NOT EXISTS "${OUT}/m.events.jsonl")
  message(FATAL_ERROR "derived event log m.events.jsonl was not written")
endif()
file(STRINGS "${OUT}/m.events.jsonl" EVENT_LINES)
list(GET EVENT_LINES 0 HEADER)
if(NOT HEADER MATCHES "\"schema\": \"ara.events.v1\"")
  message(FATAL_ERROR "event log header is not ara.events.v1: ${HEADER}")
endif()
math(EXPR WANT_EVENTS "${N_UNITS} * 5")
if(NOT HEADER MATCHES "\"events\": ${WANT_EVENTS}")
  message(FATAL_ERROR "expected ${WANT_EVENTS} events (5 per unit): ${HEADER}")
endif()
list(LENGTH EVENT_LINES N_LINES)
math(EXPR WANT_LINES "${WANT_EVENTS} + 1")
if(NOT N_LINES EQUAL ${WANT_LINES})
  message(FATAL_ERROR "event log has ${N_LINES} lines, expected ${WANT_LINES}")
endif()
# Cold run: every unit goes queued -> started -> cache_miss -> summarized
# -> linked, and the events come in (unit, stage) order.
set(STAGES "queued;started;cache_miss;summarized;linked")
set(LINE_IDX 1)
math(EXPR LAST_UNIT "${N_UNITS} - 1")
foreach(unit RANGE ${LAST_UNIT})
  foreach(stage_event IN LISTS STAGES)
    list(GET EVENT_LINES ${LINE_IDX} LINE)
    if(NOT LINE MATCHES "\"unit\": ${unit},.*\"event\": \"${stage_event}\"")
      message(FATAL_ERROR
        "event ${LINE_IDX}: expected unit ${unit} '${stage_event}', got: ${LINE}")
    endif()
    math(EXPR LINE_IDX "${LINE_IDX} + 1")
  endforeach()
endforeach()

# --- profile: non-empty collapsed stacks in folded format -----------------
if(NOT EXISTS "${OUT}/p.folded")
  message(FATAL_ERROR "--profile wrote nothing")
endif()
file(STRINGS "${OUT}/p.folded" FOLDED_LINES)
list(LENGTH FOLDED_LINES N_STACKS)
if(N_STACKS EQUAL 0)
  message(FATAL_ERROR "p.folded is empty — the run recorded no spans")
endif()
foreach(line IN LISTS FOLDED_LINES)
  if(NOT line MATCHES "^[^ ]+ [0-9]+$")
    message(FATAL_ERROR "p.folded line is not 'stack count': ${line}")
  endif()
endforeach()

# --- determinism: rerun and compare the event sequence --------------------
execute_process(
  COMMAND "${ARAC}" --quiet --name lu --jobs 4
          --metrics-out "${OUT}/m2.json" --events "${OUT}/e2.jsonl"
          --export-dir "${OUT}/export2" ${LU_SOURCES}
  RESULT_VARIABLE RC2)
if(NOT RC2 EQUAL 0)
  message(FATAL_ERROR "ledger rerun failed (rc=${RC2})")
endif()
# Strip the measurements (t_ns, lane) from both logs; what remains — the
# (unit, name, event, detail) sequence — must be byte-identical.
foreach(log m.events e2)
  file(STRINGS "${OUT}/${log}.jsonl" LINES)
  set(STRIPPED "")
  foreach(line IN LISTS LINES)
    string(REGEX REPLACE ", \"lane\": [0-9]+, \"t_ns\": [0-9]+" "" line "${line}")
    string(APPEND STRIPPED "${line}\n")
  endforeach()
  file(WRITE "${OUT}/${log}.stripped" "${STRIPPED}")
endforeach()
execute_process(
  COMMAND "${CMAKE_COMMAND}" -E compare_files
          "${OUT}/m.events.stripped" "${OUT}/e2.stripped"
  RESULT_VARIABLE RC_CMP)
if(NOT RC_CMP EQUAL 0)
  message(FATAL_ERROR "event sequence differs between identical runs")
endif()

# --- event details across cache states -------------------------------------
# Four --jobs 4 runs: cold into an empty --cache-dir, a warm rerun, a rerun
# after a comment edit of exact.f, and a run with an extra unit that does
# not compile. Each pins the events' `detail` values; the edit re-analyzes
# exact.f alone. `resident` needs warm daemon state and `invalidated` a C
# unit whose imported global changed shape, so test_eventlog covers both.
set(CACHE_DIR "${OUT}/cache")
set(EDIT_DIR "${OUT}/lu_edit")
file(MAKE_DIRECTORY "${EDIT_DIR}")
file(COPY ${LU_SOURCES} DESTINATION "${EDIT_DIR}")
file(GLOB EDIT_SOURCES "${EDIT_DIR}/*.f")
list(SORT EDIT_SOURCES)

# Runs arac over the given sources with --events OUT/<tag>.jsonl; sets
# <tag>_EVENTS to the log text after checking the exit code.
function(events_run tag want_rc)
  execute_process(
    COMMAND "${ARAC}" --quiet --name lu --jobs 4 --cache-dir "${CACHE_DIR}"
            --events "${OUT}/${tag}.jsonl" --export-dir "${OUT}/${tag}_export" ${ARGN}
    RESULT_VARIABLE rc
    ERROR_VARIABLE err)
  if(NOT rc EQUAL ${want_rc})
    message(FATAL_ERROR "${tag} run: rc=${rc}, expected ${want_rc}:\n${err}")
  endif()
  file(READ "${OUT}/${tag}.jsonl" text)
  set(${tag}_EVENTS "${text}" PARENT_SCOPE)
endfunction()

# Sets `out` to how many times `regex` matches `text`.
function(count_matches out regex text)
  string(REGEX MATCHALL "${regex}" hits "${text}")
  list(LENGTH hits n)
  set(${out} ${n} PARENT_SCOPE)
endfunction()

function(expect_count tag what regex want)
  count_matches(n "${regex}" "${${tag}_EVENTS}")
  if(NOT n EQUAL ${want})
    message(FATAL_ERROR "${tag} run: ${n} ${what}, expected ${want}:\n${${tag}_EVENTS}")
  endif()
endfunction()

set(PLAIN ", \"lane\": [0-9]+, \"t_ns\": [0-9]+}")
set(DETAIL ", \"lane\": [0-9]+, \"t_ns\": [0-9]+, \"detail\": ")

events_run(cold 0 ${EDIT_SOURCES})
expect_count(cold "plain cache_miss events" "\"cache_miss\"${PLAIN}" ${N_UNITS})
expect_count(cold "plain summarized events" "\"summarized\"${PLAIN}" ${N_UNITS})
expect_count(cold "events with a detail" "\"detail\"" 0)

events_run(warm 0 ${EDIT_SOURCES})
expect_count(warm "plain cache_hit events" "\"cache_hit\"${PLAIN}" ${N_UNITS})
expect_count(warm "cached summaries" "\"summarized\"${DETAIL}\"cached\"}" ${N_UNITS})
expect_count(warm "cache_miss events" "\"cache_miss\"" 0)
expect_count(warm "linked events" "\"linked\"${PLAIN}" ${N_UNITS})

file(APPEND "${EDIT_DIR}/exact.f" "\n! edited\n")
events_run(edit 0 ${EDIT_SOURCES})
expect_count(edit "cache_miss events" "\"cache_miss\"" 1)
expect_count(edit "invalidated misses" "\"invalidated\"" 0)
expect_count(edit "plain exact.f miss" "\"exact.f\", \"event\": \"cache_miss\"${PLAIN}" 1)
expect_count(edit "plain summarized events" "\"summarized\"${PLAIN}" 1)
math(EXPR N_CACHED "${N_UNITS} - 1")
expect_count(edit "cached summaries" "\"summarized\"${DETAIL}\"cached\"}" ${N_CACHED})

file(WRITE "${OUT}/broken.f" "subroutine broken(\n")
events_run(fail 2 ${EDIT_SOURCES} "${OUT}/broken.f")
math(EXPR BROKEN "${N_UNITS}")
expect_count(fail "broken.f events" "\"name\": \"broken.f\"" 4)
expect_count(fail "compile failures"
             "\"unit\": ${BROKEN}, \"name\": \"broken.f\", \"event\": \"failed\"${DETAIL}\"compile\"}" 1)
expect_count(fail "failed events" "\"failed\"" 1)
expect_count(fail "linked events" "\"linked\"" ${N_UNITS})
expect_count(fail "summarized events" "\"summarized\"" ${N_UNITS})
