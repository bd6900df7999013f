# balign_bench: input generation, output checks, the serve load generator
# and the traced in-process replay of the balign benchmark. Included into
# the repository build by ../hook.cmake; it links the same libraries as
# align_tool so the traced replay calls the code the child process runs.
if(NOT TARGET balign_serve)
  message(FATAL_ERROR "balign_bench.cmake is included by perfbench/hook.cmake "
          "while the repository root is configured")
endif()

set(PERFBENCH_HARNESS "${CMAKE_CURRENT_LIST_DIR}")
add_executable(balign_bench
  ${PERFBENCH_HARNESS}/Main.cpp
  ${PERFBENCH_HARNESS}/Inputs.cpp
  ${PERFBENCH_HARNESS}/Check.cpp
  ${PERFBENCH_HARNESS}/Load.cpp
  ${PERFBENCH_HARNESS}/Replay.cpp
)
target_link_libraries(balign_bench
  balign_serve balign_workloads balign_sim balign_cache balign_analysis
  balign_align balign_tsp balign_profile balign_machine balign_ir
  balign_support balign_diag Threads::Threads)
