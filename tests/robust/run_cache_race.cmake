# Two-process race on one shared --cache-dir, with no lock between the
# processes: two real arac runs store the same entries while one of them
# also sees torn reads, so its evictions race the other's publishes. Both
# must succeed with byte-identical exports, the cache they built together
# must serve a full warm run, and no temp file may be left behind.
#   cmake -DARAC=... -DOUT=... -P run_cache_race.cmake
file(REMOVE_RECURSE "${OUT}")
file(MAKE_DIRECTORY "${OUT}/src")

set(SOURCES "")
foreach(i RANGE 0 11)
  set(src "${OUT}/src/s${i}.f")
  math(EXPR extent "4 + ${i}")
  file(WRITE "${src}"
"subroutine s${i}(a)
  integer, dimension(1:${extent}) :: a
  integer :: i
  do i = 1, ${extent}
    a(i) = i
  end do
end subroutine s${i}
")
  list(APPEND SOURCES "${src}")
endforeach()

# The two COMMANDs of one execute_process run concurrently (stdout of the
# first pipes into the second, which ignores stdin): a real two-process race
# on the shared cache. cache.write=delay:3 widens every store; in the second
# process cache.read=trunc:8 makes loads of the first's entries fail
# validation, so it unlinks entries while the first is publishing them.
execute_process(
  COMMAND "${ARAC}" --quiet --name race --jobs 4 --cache-dir "${OUT}/cache"
          --export-dir "${OUT}/a" --failpoints "cache.write=delay:3@50" ${SOURCES}
  COMMAND "${ARAC}" --quiet --name race --jobs 4 --cache-dir "${OUT}/cache"
          --export-dir "${OUT}/b"
          --failpoints "cache.write=delay:3@50;cache.read=trunc:8@30" ${SOURCES}
  RESULTS_VARIABLE RCS ERROR_VARIABLE ERRS)
foreach(rc ${RCS})
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "a racing arac process failed (rcs=${RCS}):\n${ERRS}")
  endif()
endforeach()

foreach(ext rgn dgn cfg)
  execute_process(
    COMMAND "${CMAKE_COMMAND}" -E compare_files
            "${OUT}/a/race.${ext}" "${OUT}/b/race.${ext}"
    RESULT_VARIABLE RC_CMP)
  if(NOT RC_CMP EQUAL 0)
    message(FATAL_ERROR "racing processes disagree on race.${ext}")
  endif()
endforeach()

# The cache the two processes built together must be complete and valid.
execute_process(
  COMMAND "${ARAC}" --name race --jobs 4 --cache-dir "${OUT}/cache"
          --export-dir "${OUT}/warm" ${SOURCES}
  OUTPUT_VARIABLE WARM_OUT RESULT_VARIABLE RC_WARM ERROR_VARIABLE ERR_WARM)
if(NOT RC_WARM EQUAL 0)
  message(FATAL_ERROR "warm run over the contested cache failed:\n${ERR_WARM}")
endif()
if(NOT WARM_OUT MATCHES "cache: 12 hits, 0 misses")
  message(FATAL_ERROR "contested cache is incomplete:\n${WARM_OUT}")
endif()
execute_process(
  COMMAND "${CMAKE_COMMAND}" -E compare_files
          "${OUT}/a/race.rgn" "${OUT}/warm/race.rgn"
  RESULT_VARIABLE RC_CMP)
if(NOT RC_CMP EQUAL 0)
  message(FATAL_ERROR "warm race.rgn differs from the cold runs")
endif()

file(GLOB LEFTOVER_TEMPS "${OUT}/cache/*.tmp.*")
if(LEFTOVER_TEMPS)
  message(FATAL_ERROR "temp files were left behind in the shared cache: ${LEFTOVER_TEMPS}")
endif()
