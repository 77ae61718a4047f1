// Umbrella header: the full public API of the Parda reproduction.
//
//   #include "parda.hpp"
//
// pulls in the analysis engines (sequential and parallel), trace plumbing,
// workload generators, cache simulators, and the applications built on
// reuse distance histograms. Individual headers remain includable on
// their own for faster builds.
#pragma once

// Core parallel algorithm (Algorithms 3-7) and per-rank state.
#include "core/file_analysis.hpp" // IWYU pragma: export
#include "core/messages.hpp"      // IWYU pragma: export
#include "core/parda.hpp"         // IWYU pragma: export
#include "core/rank_state.hpp"    // IWYU pragma: export

// Sequential engines and the unified ReuseAnalyzer API. The oracle engines
// (the naive stack, the interval engine and the pointer trees) live in the
// reference library under reference/, which only bench/ and tests/ link.
#include "seq/analyzer.hpp"           // IWYU pragma: export
#include "seq/bennett_kruskal.hpp"    // IWYU pragma: export
#include "seq/bounded.hpp"            // IWYU pragma: export
#include "seq/fixed_size_sampler.hpp" // IWYU pragma: export
#include "seq/olken.hpp"              // IWYU pragma: export

// Histograms, miss-ratio curves, CSV reports.
#include "hist/histogram.hpp" // IWYU pragma: export
#include "hist/mrc.hpp"       // IWYU pragma: export
#include "hist/report.hpp"    // IWYU pragma: export

// Trace plumbing.
#include "trace/trace_compress.hpp" // IWYU pragma: export
#include "trace/trace_io.hpp"       // IWYU pragma: export
#include "trace/trace_pipe.hpp"     // IWYU pragma: export

// Observability: metrics registry and span tracer.
#include "obs/obs.hpp" // IWYU pragma: export

// Workloads and the instrumented VM.
#include "vm/assembler.hpp"       // IWYU pragma: export
#include "vm/machine.hpp"         // IWYU pragma: export
#include "vm/programs.hpp"        // IWYU pragma: export
#include "vm/tracer.hpp"          // IWYU pragma: export
#include "workload/generators.hpp" // IWYU pragma: export
#include "workload/parse.hpp"      // IWYU pragma: export
#include "workload/spec.hpp"       // IWYU pragma: export
#include "workload/workload.hpp"   // IWYU pragma: export

// Cache simulators.
#include "cachesim/hierarchy.hpp"      // IWYU pragma: export
#include "cachesim/lru_cache.hpp"      // IWYU pragma: export
#include "cachesim/set_assoc_cache.hpp" // IWYU pragma: export

// Applications.
#include "apps/miss_rate.hpp"     // IWYU pragma: export
#include "apps/online_mrc.hpp"    // IWYU pragma: export
#include "apps/partition.hpp"     // IWYU pragma: export
#include "apps/phase_detect.hpp"  // IWYU pragma: export
#include "apps/shared_cache.hpp"  // IWYU pragma: export
#include "apps/superpage.hpp"     // IWYU pragma: export
#include "apps/time_distance.hpp" // IWYU pragma: export

#include "util/version.hpp" // IWYU pragma: export
