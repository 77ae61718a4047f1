// Hostile bytes for the trace container parsers: the sweeps run each
// mutation of ../util/mutations.hpp through each reader of its container;
// a reader may return a trace or throw TraceFormatError, and nothing else.
#pragma once

#include <gtest/gtest.h>

#include <exception>
#include <optional>
#include <string>
#include <vector>

#include "../util/mutations.hpp"
#include "trace/trace_io.hpp"
#include "util/types.hpp"

namespace parda {

/// How a reader ended: the trace it returned, or nullopt when it threw
/// TraceFormatError. Any other exception fails the test, naming `label`.
template <class Read>
std::optional<std::vector<Addr>> outcome(const Read& read,
                                         const std::string& label) {
  try {
    return read();
  } catch (const TraceFormatError&) {
    return std::nullopt;
  } catch (const std::exception& e) {
    ADD_FAILURE() << label << ": not a TraceFormatError: " << e.what();
    return std::nullopt;
  }
}

}  // namespace parda
