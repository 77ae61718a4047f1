#include "vm/assembler.hpp"

#include <cctype>
#include <cstdio>
#include <memory>
#include <stdexcept>
#include <unordered_map>
#include <vector>

#include "util/parse.hpp"

namespace parda::vm {

namespace {

[[noreturn]] void fail(std::size_t line, const std::string& why) {
  throw std::invalid_argument("asm line " + std::to_string(line) + ": " +
                              why);
}

/// Splits a statement into whitespace/comma separated tokens, stripping
/// comments.
std::vector<std::string> tokenize(std::string_view line) {
  std::vector<std::string> tokens;
  std::string current;
  for (char c : line) {
    if (c == ';' || c == '#') break;
    if (std::isspace(static_cast<unsigned char>(c)) || c == ',') {
      if (!current.empty()) {
        tokens.push_back(std::move(current));
        current.clear();
      }
    } else {
      current += c;
    }
  }
  if (!current.empty()) tokens.push_back(std::move(current));
  return tokens;
}

std::uint8_t parse_reg(const std::string& token, std::size_t line) {
  const std::optional<std::uint64_t> n =
      !token.empty() && (token[0] == 'r' || token[0] == 'R')
          ? parse_u64(std::string_view(token).substr(1))
          : std::nullopt;
  if (!n) fail(line, "expected register, got '" + token + "'");
  if (*n >= static_cast<std::uint64_t>(kNumRegs)) {
    fail(line, "register out of range: '" + token + "'");
  }
  return static_cast<std::uint8_t>(*n);
}

struct PendingLabel {
  std::size_t instr;  // which instruction's imm needs patching
  std::string label;
  std::size_t line;
};

struct OpSpec {
  Op op;
  int regs;       // leading register operands
  bool has_imm;   // trailing immediate (or label for branches/jumps)
  bool imm_is_target;  // immediate is a branch target (label allowed)
};

const std::unordered_map<std::string, OpSpec>& op_table() {
  static const std::unordered_map<std::string, OpSpec> table{
      {"halt", {Op::kHalt, 0, false, false}},
      {"movi", {Op::kMovi, 1, true, false}},
      {"mov", {Op::kMov, 2, false, false}},
      {"add", {Op::kAdd, 3, false, false}},
      {"addi", {Op::kAddi, 2, true, false}},
      {"mul", {Op::kMul, 3, false, false}},
      {"shr", {Op::kShr, 2, true, false}},
      {"load", {Op::kLoad, 2, true, false}},
      {"store", {Op::kStore, 2, true, false}},
      {"jmp", {Op::kJmp, 0, true, true}},
      {"bne", {Op::kBne, 2, true, true}},
      {"blt", {Op::kBlt, 2, true, true}},
  };
  return table;
}

}  // namespace

Program assemble(std::string_view source) {
  Program program;
  program.name = "asm";
  std::unordered_map<std::string, std::size_t> labels;
  std::vector<PendingLabel> pending;

  std::size_t line_no = 0;
  for (const std::string_view line : split(source, '\n')) {
    ++line_no;

    std::vector<std::string> tokens = tokenize(line);
    if (tokens.empty()) continue;

    // Labels (possibly several) prefix the statement.
    while (!tokens.empty() && tokens[0].back() == ':') {
      const std::string label = tokens[0].substr(0, tokens[0].size() - 1);
      if (label.empty()) fail(line_no, "empty label");
      if (!labels.emplace(label, program.code.size()).second) {
        fail(line_no, "duplicate label '" + label + "'");
      }
      tokens.erase(tokens.begin());
    }
    if (tokens.empty()) continue;

    const std::string& head = tokens[0];
    if (head == ".name") {
      if (tokens.size() != 2) fail(line_no, ".name takes one token");
      program.name = tokens[1];
      continue;
    }
    if (head == ".mem") {
      const std::optional<std::uint64_t> words =
          tokens.size() == 2 ? parse_u64(tokens[1]) : std::nullopt;
      if (!words) fail(line_no, ".mem takes one non-negative integer");
      program.memory_words = *words;
      continue;
    }
    if (head == ".data") {
      for (std::size_t i = 1; i < tokens.size(); ++i) {
        const std::optional<std::int64_t> word = parse_i64(tokens[i]);
        if (!word) {
          fail(line_no, ".data takes integers, got '" + tokens[i] + "'");
        }
        program.initial_memory.push_back(*word);
      }
      continue;
    }
    if (head[0] == '.') fail(line_no, "unknown directive '" + head + "'");

    const auto spec_it = op_table().find(head);
    if (spec_it == op_table().end()) {
      fail(line_no, "unknown mnemonic '" + head + "'");
    }
    const OpSpec& spec = spec_it->second;
    const std::size_t expected =
        1 + static_cast<std::size_t>(spec.regs) + (spec.has_imm ? 1 : 0);
    if (tokens.size() != expected) {
      fail(line_no, "'" + head + "' expects " +
                        std::to_string(expected - 1) + " operands");
    }

    Instr instr;
    instr.op = spec.op;
    std::uint8_t* const reg_slots[] = {&instr.a, &instr.b, &instr.c};
    for (int r = 0; r < spec.regs; ++r) {
      *reg_slots[r] =
          parse_reg(tokens[1 + static_cast<std::size_t>(r)], line_no);
    }
    if (spec.has_imm) {
      const std::string& imm = tokens.back();
      if (const std::optional<std::int64_t> value = parse_i64(imm)) {
        instr.imm = *value;
      } else if (spec.imm_is_target) {
        pending.push_back(PendingLabel{program.code.size(), imm, line_no});
      } else {
        fail(line_no, "expected integer immediate, got '" + imm + "'");
      }
    }
    program.code.push_back(instr);
  }

  for (const PendingLabel& p : pending) {
    const auto it = labels.find(p.label);
    if (it == labels.end()) {
      fail(p.line, "undefined label '" + p.label + "'");
    }
    program.code[p.instr].imm = static_cast<std::int64_t>(it->second);
  }
  if (program.memory_words < program.initial_memory.size()) {
    program.memory_words = program.initial_memory.size();
  }
  return program;
}

Program assemble_file(const std::string& path) {
  struct Closer {
    void operator()(std::FILE* f) const noexcept {
      if (f != nullptr) std::fclose(f);
    }
  };
  std::unique_ptr<std::FILE, Closer> f(std::fopen(path.c_str(), "rb"));
  if (!f) {
    throw std::invalid_argument("cannot open assembly file: " + path);
  }
  std::string source;
  char buf[4096];
  std::size_t got = 0;
  while ((got = std::fread(buf, 1, sizeof(buf), f.get())) > 0) {
    source.append(buf, got);
  }
  return assemble(source);
}

}  // namespace parda::vm
