// Header self-containment: the real check is the generated per-header TUs
// compiled into the parda_header_selfcontain object library this test
// depends on (see tests/CMakeLists.txt) — each src/**/*.hpp and
// reference/*.hpp is included first (and twice, catching missing include
// guards) in its own TU. This TU additionally proves the umbrella header
// is includable on its own and idempotent.
#include "parda.hpp"
#include "parda.hpp"  // include-guard check

#include <gtest/gtest.h>

namespace parda {
namespace {

TEST(HeaderSelfContain, UmbrellaExportsVersionAndNewApis) {
  EXPECT_STREQ(kVersionString, "1.0.0");
  // The umbrella must re-export the observability layer and the analyzer
  // concept (satellites of the observability PR): name them directly.
  EXPECT_FALSE(obs::enabled());
  static_assert(ReuseAnalyzer<OlkenAnalyzer>);
}

}  // namespace
}  // namespace parda
