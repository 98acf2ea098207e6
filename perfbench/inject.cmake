# Included at the end of the root project() call (run.py passes it as
# CMAKE_PROJECT_cppflare_INCLUDE). It defers including perfbench's
# CMakeLists.txt until the root CMakeLists.txt has finished, so the
# benchmark builds with exactly the compiler flags, include paths and
# libraries the repository itself uses, without the repository naming it.
# Deferred arguments are expanded when the call runs, hence the variable.
set(PERFBENCH_DIR "${CMAKE_CURRENT_LIST_DIR}")
cmake_language(DEFER DIRECTORY "${CMAKE_SOURCE_DIR}"
               CALL include "${PERFBENCH_DIR}/CMakeLists.txt")
