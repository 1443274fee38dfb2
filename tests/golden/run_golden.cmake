# Whole-file goldens: every committed workload is analyzed by the shipped
# arac in five modes, and each export must equal the committed file byte
# for byte.
#   plain  no --jobs: one worker
#   jobs1  --jobs 1
#   jobs4  --jobs 4
#   cold   --jobs 4 --cache-dir on an empty cache
#   warm   the same command again: every unit must replay from the cache
# Every mode runs the batch engine (per-unit summaries + link_units), so
# the .rgn/.dgn/.cfg files and <name>.prov.jsonl are identical in all five.
# The provenance export includes the loop_not_parallel verdicts, which arac
# computes per unit whenever --provenance-out is given; they are never
# cached, so the warm run recomputes them.
#
#   cmake -DARAC=... -DWORKLOADS=... -DGOLDEN=... -DOUT=... -P run_golden.cmake
#
# To re-bless after a deliberate output change, run arac with the same
# arguments as below and copy the exports over the files in tests/golden.
file(REMOVE_RECURSE "${OUT}")

file(GLOB LU_SOURCES "${WORKLOADS}/lu/*.f")
file(GLOB HEAT_SOURCES "${WORKLOADS}/heat/*.c")
list(SORT LU_SOURCES)
list(SORT HEAT_SOURCES)
set(SOURCES_lu ${LU_SOURCES})
set(SOURCES_heat ${HEAT_SOURCES})
set(SOURCES_fig1_add "${WORKLOADS}/fig1_add.f")
set(SOURCES_fig10_matrix "${WORKLOADS}/fig10_matrix.c")
set(SOURCES_caf_halo "${WORKLOADS}/caf_halo.f")

function(expect_same actual expected)
  execute_process(COMMAND "${CMAKE_COMMAND}" -E compare_files "${actual}" "${expected}"
                  RESULT_VARIABLE rc)
  if(NOT rc EQUAL 0)
    message(SEND_ERROR "${actual} differs from ${expected}")
  endif()
endfunction()

foreach(name lu heat fig1_add fig10_matrix caf_halo)
  list(LENGTH SOURCES_${name} n_units)
  foreach(mode plain jobs1 jobs4 cold warm)
    set(dir "${OUT}/${mode}/${name}")
    set(args --name ${name} --export-dir "${dir}"
             --provenance-out "${dir}/${name}.prov.jsonl")
    if(mode STREQUAL "jobs1")
      list(APPEND args --jobs 1)
    elseif(NOT mode STREQUAL "plain")
      list(APPEND args --jobs 4)
    endif()
    if(mode STREQUAL "cold" OR mode STREQUAL "warm")
      list(APPEND args --cache-dir "${OUT}/cache/${name}")
    endif()
    if(NOT mode STREQUAL "warm")
      list(APPEND args --quiet)
    endif()
    execute_process(COMMAND "${ARAC}" ${args} ${SOURCES_${name}}
                    OUTPUT_VARIABLE stdout ERROR_VARIABLE stderr RESULT_VARIABLE rc)
    if(NOT rc EQUAL 0)
      message(FATAL_ERROR "arac ${mode} ${name} failed (rc=${rc}):\n${stderr}")
    endif()
    if(mode STREQUAL "warm" AND NOT stdout MATCHES "cache: ${n_units} hits, 0 misses")
      message(SEND_ERROR "warm ${name} run did not replay every unit from the cache")
    endif()
    foreach(ext rgn dgn cfg prov.jsonl)
      expect_same("${dir}/${name}.${ext}" "${GOLDEN}/${name}.${ext}")
    endforeach()
  endforeach()
endforeach()
