# Project hook for the balign benchmark. run.py configures the repository
# root with -DCMAKE_PROJECT_balign_INCLUDE=<this file>, so the system under
# test is built by the repository's own CMakeLists.txt (flags, build type,
# assertions). Once the root directory has been processed and every library
# target exists, the benchmark harness targets are added next to them.
# Deferred arguments are expanded when the call runs, so the path is kept
# in a variable of the root directory's scope.
set(PERFBENCH_HARNESS_CMAKE
    "${CMAKE_CURRENT_LIST_DIR}/harness/balign_bench.cmake")
cmake_language(DEFER DIRECTORY "${CMAKE_SOURCE_DIR}" CALL
               include "${PERFBENCH_HARNESS_CMAKE}")
