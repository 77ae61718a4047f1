#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "../util/number_tokens.hpp"
#include "vm/assembler.hpp"
#include "vm/machine.hpp"
#include "vm/programs.hpp"

namespace parda::vm {
namespace {

TEST(AssemblerTest, MinimalProgram) {
  const Program p = assemble("halt\n");
  ASSERT_EQ(p.code.size(), 1u);
  EXPECT_EQ(p.code[0].op, Op::kHalt);
  EXPECT_EQ(p.memory_words, 0u);
}

TEST(AssemblerTest, DirectivesAndComments) {
  const Program p = assemble(R"(
    .name demo       ; program name
    .mem 64          # memory size
    .data 1 2 3
    halt
  )");
  EXPECT_EQ(p.name, "demo");
  EXPECT_EQ(p.memory_words, 64u);
  EXPECT_EQ(p.initial_memory, (std::vector<std::int64_t>{1, 2, 3}));
}

TEST(AssemblerTest, VectorSumRunsCorrectly) {
  // The assembly equivalent of programs.cpp's vector_sum(4) with data.
  const Program p = assemble(R"(
    .name vecsum
    .mem 4
    .data 10 20 30 40
      movi r1, 0
      movi r2, 4
      movi r3, 0
    loop:
      load r4, r1, 0
      add  r3, r3, r4
      addi r1, r1, 1
      blt  r1, r2, loop
      halt
  )");
  Machine m(p);
  std::vector<Addr> accessed;
  m.run([&](Addr a) { accessed.push_back(a); });
  EXPECT_EQ(m.reg(3), 100);
  EXPECT_EQ(accessed, (std::vector<Addr>{0, 1, 2, 3}));
}

TEST(AssemblerTest, LabelsForwardAndBackward) {
  const Program p = assemble(R"(
      jmp skip
    back:
      halt
    skip:
      movi r1, 7
      jmp back
  )");
  Machine m(p);
  m.run(nullptr);
  EXPECT_EQ(m.reg(1), 7);
}

TEST(AssemblerTest, NegativeImmediates) {
  const Program p = assemble(R"(
      movi r1, 10
      addi r1, r1, -3
      halt
  )");
  Machine m(p);
  m.run(nullptr);
  EXPECT_EQ(m.reg(1), 7);
}

TEST(AssemblerTest, ShrAndStore) {
  const Program p = assemble(R"(
      .mem 2
      movi r1, 12
      shr  r2, r1, 2
      movi r3, 0
      store r2, r3, 1
      halt
  )");
  Machine m(p);
  m.run(nullptr);
  EXPECT_EQ(m.memory()[1], 3);
}

TEST(AssemblerTest, MatchesHandBuiltProgram) {
  // The text form of list-style summation must trace identically to the
  // builder API's vector_sum.
  const Program built = vector_sum(16);
  const Program text = assemble(R"(
    .mem 16
      movi r1, 0
      movi r2, 16
      movi r3, 0
    loop:
      load r4, r1, 0
      add  r3, r3, r4
      addi r1, r1, 1
      blt  r1, r2, loop
      halt
  )");
  EXPECT_EQ(trace_program(built), trace_program(text));
}

TEST(AssemblerTest, DataImpliesMemorySize) {
  const Program p = assemble(".data 1 2 3 4 5\nhalt\n");
  EXPECT_EQ(p.memory_words, 5u);
}

TEST(AssemblerTest, SyntaxErrors) {
  EXPECT_THROW(assemble("bogus r1, r2\n"), std::invalid_argument);
  EXPECT_THROW(assemble("movi r99, 1\n"), std::invalid_argument);
  EXPECT_THROW(assemble("movi 5, 1\n"), std::invalid_argument);
  EXPECT_THROW(assemble("add r1, r2\n"), std::invalid_argument);  // arity
  EXPECT_THROW(assemble("jmp nowhere\n"), std::invalid_argument);
  EXPECT_THROW(assemble("dup: halt\ndup: halt\n"), std::invalid_argument);
  EXPECT_THROW(assemble(".mem lots\n"), std::invalid_argument);
  EXPECT_THROW(assemble(".weird 1\n"), std::invalid_argument);
  EXPECT_THROW(assemble("movi r1, label\n"), std::invalid_argument);
}

TEST(AssemblerTest, EveryNumberRejectsHostileTokens) {
  for (const std::string& token : test::hostile_integer_tokens()) {
    // Operands are split at whitespace and commas, so a padded token is
    // just 1.
    if (test::whitespace_or_empty(token)) continue;
    for (const std::string& source :
         {"movi r" + token + ", 1\n", ".mem " + token + "\n"}) {
      EXPECT_THROW(assemble(source), std::invalid_argument) << source;
    }
    if (token == "-1") continue;  // a valid immediate and data word
    for (const std::string& source :
         {"movi r1, " + token + "\n", ".data 1 " + token + "\n"}) {
      EXPECT_THROW(assemble(source), std::invalid_argument) << source;
    }
  }
  EXPECT_THROW(assemble("movi r16, 1\n"), std::invalid_argument);
  EXPECT_THROW(assemble("addi r1, r1, +3\n"), std::invalid_argument);
}

TEST(AssemblerTest, ValidNumbersReadBack) {
  for (const auto& [token, value] : test::valid_integer_tokens()) {
    const Program p = assemble(".mem " + token + "\nhalt\n");
    EXPECT_EQ(p.memory_words, value) << token;
  }
  const Program p = assemble(
      ".data 010 -0x10 -9223372036854775808\nmovi r0x1, 007\nhalt\n");
  EXPECT_EQ(p.initial_memory,
            (std::vector<std::int64_t>{10, -16, INT64_MIN}));
  EXPECT_EQ(p.code[0].a, 1);
  EXPECT_EQ(p.code[0].imm, 7);
}

TEST(AssemblerTest, ErrorMessagesCarryLineNumbers) {
  try {
    assemble("halt\nhalt\nbroken op\n");
    FAIL() << "expected throw";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("line 3"), std::string::npos)
        << e.what();
  }
}

TEST(AssemblerFileTest, MissingFileThrows) {
  EXPECT_THROW(assemble_file("/no/such/file.s"), std::invalid_argument);
}

}  // namespace
}  // namespace parda::vm
