#include "provenance.hpp"

#include <unistd.h>

#include <fstream>

#include "tensor/simd.hpp"

#ifdef _OPENMP
#include <omp.h>
#endif

namespace perfbench {

namespace {

std::string cpu_model() {
  std::ifstream cpuinfo("/proc/cpuinfo");
  std::string line;
  while (std::getline(cpuinfo, line)) {
    if (line.rfind("model name", 0) != 0) continue;
    const std::size_t colon = line.find(':');
    if (colon != std::string::npos && colon + 2 <= line.size())
      return line.substr(colon + 2);
  }
  return "unknown";
}

}  // namespace

std::vector<std::pair<std::string, std::string>> provenance() {
#ifdef _OPENMP
  const std::string omp_threads = std::to_string(omp_get_max_threads());
#else
  const std::string omp_threads = "no OpenMP";
#endif
  return {
      {"build_type", PERFBENCH_BUILD_TYPE},
      {"compiler", PERFBENCH_COMPILER},
      {"simd_level",
       vqmc::simd::level_name(vqmc::simd::active_level())},
      {"omp_max_threads", omp_threads},
      {"nproc", std::to_string(sysconf(_SC_NPROCESSORS_ONLN))},
      {"cpu_model", cpu_model()},
  };
}

bool is_release_build() {
  return std::string(PERFBENCH_BUILD_TYPE) == "Release";
}

}  // namespace perfbench
