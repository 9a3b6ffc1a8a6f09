# Included from the top-level CMakeLists so that ${CMAKE_BINARY_DIR}/bench
# holds exactly two executables: asyncdr_bench, the paper-experiment driver
# (`./build/bench/asyncdr_bench` runs every experiment; pass ids to pick),
# and bench_micro, the google-benchmark substrate harness.
find_package(benchmark REQUIRED)

function(asyncdr_bench name)
  add_executable(${name} ${ARGN})
  target_link_libraries(${name} PRIVATE
    asyncdr_oracle asyncdr_campaign asyncdr_protocols asyncdr_adversary
    asyncdr_obs asyncdr_dr asyncdr_sim asyncdr_common)
  target_include_directories(${name} PRIVATE ${CMAKE_SOURCE_DIR}/src ${CMAKE_SOURCE_DIR}/bench)
  set_target_properties(${name} PROPERTIES
    RUNTIME_OUTPUT_DIRECTORY ${CMAKE_BINARY_DIR}/bench)
endfunction()

asyncdr_bench(asyncdr_bench bench/driver.cpp bench/exp_crash.cpp
  bench/exp_byzantine.cpp bench/exp_landscape.cpp)

asyncdr_bench(bench_micro bench/bench_micro.cpp)
target_link_libraries(bench_micro PRIVATE benchmark::benchmark)
