# Build file of the end-to-end benchmark. It is injected into the
# repository's own top-level project, so the library and the benchmark are
# built with exactly the flags the repository chooses:
#
#   cmake -S . -B .bench_build/e2ebench -DCMAKE_BUILD_TYPE=Release \
#         -DCMAKE_PROJECT_INCLUDE=$PWD/e2ebench/e2ebench.cmake
#   cmake --build .bench_build/e2ebench --target e2ebench
#
# CMAKE_PROJECT_INCLUDE runs this file right after project(); the target is
# defined at the end of the top-level CMakeLists, once the library targets,
# the C++ standard and the directory-wide compile options all exist.
set(E2EBENCH_DIR "${CMAKE_CURRENT_LIST_DIR}")

function(e2ebench_add_target)
  add_executable(e2ebench
    "${E2EBENCH_DIR}/src/main.cpp"
    "${E2EBENCH_DIR}/src/serve_phase.cpp"
    "${E2EBENCH_DIR}/src/spans.cpp")
  target_link_libraries(e2ebench PRIVATE
    metadse_core metadse_serve metadse_explore metadse_baselines
    metadse_warnings)
  target_compile_definitions(e2ebench PRIVATE
    E2E_BUILD_TYPE="${CMAKE_BUILD_TYPE}")
  set_target_properties(e2ebench PROPERTIES
    RUNTIME_OUTPUT_DIRECTORY "${CMAKE_BINARY_DIR}")
endfunction()

cmake_language(DEFER DIRECTORY "${CMAKE_SOURCE_DIR}" CALL e2ebench_add_target)
