// The simnet_cluster workload: the paper deployment's decseqd engines,
// driven in one process over the simulated transport fabric.
#pragma once

#include <cstdint>

#include "util.h"

namespace perfbench {

Result run_simnet_cluster(std::uint64_t seed, double seconds, bool trace,
                          SpanLog& spans);

}  // namespace perfbench
