#include <gtest/gtest.h>

#include <stdexcept>
#include <unordered_set>

#include "../util/number_tokens.hpp"
#include "seq/olken.hpp"
#include "workload/generators.hpp"
#include "workload/parse.hpp"

namespace parda {
namespace {

std::size_t distinct(const std::vector<Addr>& t) {
  return std::unordered_set<Addr>(t.begin(), t.end()).size();
}

TEST(ParseWorkloadTest, Sequential) {
  auto w = parse_workload("seq:m=8");
  const auto trace = generate_trace(*w, 16);
  SequentialWorkload expected(8);
  EXPECT_EQ(trace, generate_trace(expected, 16));
}

TEST(ParseWorkloadTest, ZipfWithAlpha) {
  auto w = parse_workload("zipf:m=1000,a=0.5", 7);
  ZipfWorkload expected(1000, 0.5, 7);
  EXPECT_EQ(generate_trace(*w, 500), generate_trace(expected, 500));
}

TEST(ParseWorkloadTest, ZipfDefaultAlpha) {
  auto w = parse_workload("zipf:m=100", 3);
  ZipfWorkload expected(100, 1.0, 3);
  EXPECT_EQ(generate_trace(*w, 200), generate_trace(expected, 200));
}

TEST(ParseWorkloadTest, StridedAndUniformAndPtrchase) {
  EXPECT_EQ(parse_workload("strided:m=64,s=8")->name(),
            StridedWorkload(64, 8).name());
  EXPECT_EQ(parse_workload("uniform:m=500", 9)->name(),
            UniformRandomWorkload(500, 9).name());
  EXPECT_EQ(parse_workload("ptrchase:m=128", 5)->name(),
            PointerChaseWorkload(128, 5).name());
}

TEST(ParseWorkloadTest, MatmulAndStencil) {
  EXPECT_EQ(parse_workload("matmul:n=16,t=4")->name(),
            MatrixMultiplyWorkload(16, 4).name());
  EXPECT_EQ(parse_workload("stencil:w=32,h=16")->name(),
            StencilWorkload(32, 16).name());
}

TEST(ParseWorkloadTest, StackDistLists) {
  auto w = parse_workload("stackdist:d=2/10,w=0.6/0.2,miss=0.2", 11);
  const auto trace = generate_trace(*w, 20000);
  const Histogram h = olken_analysis(trace);
  EXPECT_NEAR(static_cast<double>(h.at(2)) / static_cast<double>(h.total()),
              0.6, 0.05);
}

TEST(ParseWorkloadTest, SpecProfile) {
  auto w = parse_workload("spec:libquantum,scale=100000", 3);
  ASSERT_NE(w, nullptr);
  const auto trace = generate_trace(*w, 1000);
  EXPECT_EQ(distinct(trace), 64u);  // scaled + floored footprint
}

TEST(ParseWorkloadTest, MixComposite) {
  auto w = parse_workload("mix:seq:m=10|uniform:m=10,w=0.5/0.5", 13);
  const auto trace = generate_trace(*w, 4000);
  // Children land in distinct regions: both present.
  bool region0 = false;
  bool region1 = false;
  for (Addr a : trace) {
    if (a < region_base(1)) region0 = true;
    if (a >= region_base(1) && a < region_base(2)) region1 = true;
  }
  EXPECT_TRUE(region0);
  EXPECT_TRUE(region1);
}

TEST(ParseWorkloadTest, PhasedComposite) {
  auto w = parse_workload("phased:seq:m=4|uniform:m=100,len=50", 3);
  const auto trace = generate_trace(*w, 100);
  for (std::size_t i = 0; i < 50; ++i) EXPECT_LT(trace[i], region_base(1));
  for (std::size_t i = 50; i < 100; ++i) {
    EXPECT_GE(trace[i], region_base(1));
  }
}

TEST(ParseWorkloadTest, Determinism) {
  for (const char* spec :
       {"zipf:m=100", "mix:seq:m=5|zipf:m=50,w=1/1", "spec:gcc"}) {
    auto a = parse_workload(spec, 21);
    auto b = parse_workload(spec, 21);
    EXPECT_EQ(generate_trace(*a, 1000), generate_trace(*b, 1000)) << spec;
  }
}

TEST(ParseWorkloadTest, Errors) {
  EXPECT_THROW(parse_workload(""), std::invalid_argument);
  EXPECT_THROW(parse_workload("bogus:m=5"), std::invalid_argument);
  EXPECT_THROW(parse_workload("seq"), std::invalid_argument);     // missing m
  EXPECT_THROW(parse_workload("seq:m=x"), std::invalid_argument);
  EXPECT_THROW(parse_workload("seq:5"), std::invalid_argument);   // not k=v
  EXPECT_THROW(parse_workload("spec:notabenchmark"),
               std::invalid_argument);
  EXPECT_THROW(parse_workload("stackdist:d=1,w=0.5/0.5"),
               std::invalid_argument);  // length mismatch
  EXPECT_THROW(parse_workload("???"), std::invalid_argument);
  EXPECT_NO_THROW(parse_workload("seq:m=10"));
}

TEST(ParseWorkloadTest, EveryNumberRejectsHostileTokens) {
  for (const std::string& token : test::hostile_integer_tokens()) {
    for (const std::string& spec :
         {"seq:m=" + token, "spec:mcf,scale=" + token,
          "stackdist:d=1/" + token + ",w=0.5/0.5",
          "phased:seq:m=4|seq:m=8,len=" + token}) {
      EXPECT_THROW(parse_workload(spec), std::invalid_argument) << spec;
    }
  }
  // Real-valued arguments: the hostile tokens that are not reals.
  for (const char* token : {"", "+1", " 1", "1 ", "1x", "0x1F", "inf"}) {
    for (const std::string& spec :
         {std::string("zipf:m=10,a=") + token,
          std::string("stackdist:d=1/2,w=0.5/") + token,
          std::string("mix:seq:m=5|seq:m=5,w=1/") + token}) {
      EXPECT_THROW(parse_workload(spec), std::invalid_argument) << spec;
    }
  }
  // List items used to read garbage as 0 with no end check.
  EXPECT_THROW(parse_workload("stackdist:d=1/x,w=0.5/zz"),
               std::invalid_argument);
}

TEST(ParseWorkloadTest, ValidNumbersReadBack) {
  for (const auto& [token, value] : test::valid_integer_tokens()) {
    if (value == 0 || value > 4096) continue;  // m sizes the workload
    EXPECT_EQ(parse_workload("seq:m=" + token)->name(),
              SequentialWorkload(value).name())
        << token;
  }
  EXPECT_EQ(parse_workload("seq:m=010")->name(),
            SequentialWorkload(10).name());
  EXPECT_EQ(parse_workload("zipf:m=1000,a=5e-1", 7)->name(),
            ZipfWorkload(1000, 0.5, 7).name());
}

}  // namespace
}  // namespace parda
