// Workload spec strings: build any generator from a compact textual
// description, e.g. for trace_tool and scripting.
//
//   "zipf:m=100000,a=0.9"
//   "seq:m=4096"
//   "strided:m=65536,s=16"
//   "uniform:m=10000"
//   "ptrchase:m=50000"
//   "matmul:n=64,t=8"
//   "stencil:w=128,h=128"
//   "stackdist:d=2/10,w=0.6/0.2,miss=0.2"
//   "mix:zipf:m=100,a=1.0|seq:m=50,w=0.7/0.3"     (children '|'-separated)
//   "phased:seq:m=100|uniform:m=500,len=8192"
//   "spec:mcf,scale=8000"                          (Table IV profiles)
#pragma once

#include <memory>
#include <string>
#include <string_view>

#include "workload/workload.hpp"

namespace parda {

/// Parses a workload spec; throws std::invalid_argument with a message
/// naming the offending component on malformed input. `seed` seeds all
/// stochastic generators.
std::unique_ptr<Workload> parse_workload(std::string_view spec,
                                         std::uint64_t seed = 1);

}  // namespace parda
