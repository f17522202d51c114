#pragma once

/// \file provenance.hpp
/// \brief Facts about the build and machine a result was measured on.

#include <string>
#include <utility>
#include <vector>

namespace perfbench {

/// (key, value) pairs: build type, compiler, SIMD level, OpenMP threads,
/// nproc and CPU model.
[[nodiscard]] std::vector<std::pair<std::string, std::string>> provenance();

/// True for the optimized build the benchmark must run on.
[[nodiscard]] bool is_release_build();

}  // namespace perfbench
