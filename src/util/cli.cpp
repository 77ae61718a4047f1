#include "util/cli.hpp"

#include <climits>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>

#include "util/parse.hpp"

namespace parda {

void usage_error(const char* fmt, ...) {
  std::fputs("error: ", stderr);
  va_list ap;
  va_start(ap, fmt);
  std::vfprintf(stderr, fmt, ap);
  va_end(ap);
  std::fputc('\n', stderr);
  std::exit(kExitUsage);
}

CliParser::CliParser(std::string program_description)
    : description_(std::move(program_description)) {}

void CliParser::add_flag(const std::string& name, std::string* value,
                         const std::string& help) {
  flags_.push_back({name, Kind::kString, value, help});
}

void CliParser::add_flag(const std::string& name, std::uint64_t* value,
                         const std::string& help) {
  flags_.push_back({name, Kind::kUint, value, help});
}

void CliParser::add_flag(const std::string& name, int* value,
                         const std::string& help) {
  flags_.push_back({name, Kind::kInt, value, help});
}

void CliParser::add_flag(const std::string& name, double* value,
                         const std::string& help) {
  flags_.push_back({name, Kind::kDouble, value, help});
}

void CliParser::add_flag(const std::string& name, bool* value,
                         const std::string& help) {
  flags_.push_back({name, Kind::kBool, value, help});
}

void CliParser::usage_and_exit(int code) const {
  std::fprintf(stderr, "%s\n\nusage: %s [flags]\n", description_.c_str(),
               program_.c_str());
  for (const Flag& f : flags_) {
    std::fprintf(stderr, "  --%-18s %s\n", f.name.c_str(), f.help.c_str());
  }
  std::exit(code);
}

bool CliParser::was_set(const std::string& name) const {
  for (const std::string& n : set_names_) {
    if (n == name) return true;
  }
  return false;
}

const CliParser::Flag* CliParser::find(const std::string& name) const {
  for (const Flag& f : flags_) {
    if (f.name == name) return &f;
  }
  return nullptr;
}

void CliParser::assign(const Flag& flag, const std::string& value) const {
  switch (flag.kind) {
    case Kind::kString:
      *static_cast<std::string*>(flag.target) = value;
      break;
    case Kind::kUint:
    case Kind::kInt: {
      const bool is_int = flag.kind == Kind::kInt;
      const std::optional<std::uint64_t> v =
          parse_u64(value, is_int ? INT_MAX : UINT64_MAX);
      if (!v) {
        std::fprintf(stderr,
                     "flag --%s needs an integer (non-negative, decimal or "
                     "0x hex, at most %s), got '%s'\n",
                     flag.name.c_str(), is_int ? "2147483647" : "2^64 - 1",
                     value.c_str());
        usage_and_exit(kExitUsage);
      }
      if (is_int) {
        *static_cast<int*>(flag.target) = static_cast<int>(*v);
      } else {
        *static_cast<std::uint64_t*>(flag.target) = *v;
      }
      break;
    }
    case Kind::kDouble: {
      const std::optional<double> v = parse_f64(value);
      if (!v) {
        std::fprintf(stderr, "flag --%s needs a number, got '%s'\n",
                     flag.name.c_str(), value.c_str());
        usage_and_exit(kExitUsage);
      }
      *static_cast<double*>(flag.target) = *v;
      break;
    }
    case Kind::kBool:
      if (value.empty() || value == "1" || value == "true" || value == "yes") {
        *static_cast<bool*>(flag.target) = true;
      } else if (value == "0" || value == "false" || value == "no") {
        *static_cast<bool*>(flag.target) = false;
      } else {
        std::fprintf(stderr, "flag --%s needs a boolean, got '%s'\n",
                     flag.name.c_str(), value.c_str());
        usage_and_exit(kExitUsage);
      }
      break;
  }
}

void CliParser::parse(int argc, char** argv) {
  program_ = argc > 0 ? argv[0] : "prog";
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") usage_and_exit(0);
    if (arg.rfind("--", 0) != 0) {
      positionals_.push_back(std::move(arg));
      continue;
    }
    std::string name = arg.substr(2);
    std::string value;
    bool have_value = false;
    if (auto eq = name.find('='); eq != std::string::npos) {
      value = name.substr(eq + 1);
      name = name.substr(0, eq);
      have_value = true;
    }
    const Flag* flag = find(name);
    if (flag == nullptr) {
      std::fprintf(stderr, "unknown flag --%s\n", name.c_str());
      usage_and_exit(kExitUsage);
    }
    if (!have_value && flag->kind != Kind::kBool) {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "flag --%s requires a value\n", name.c_str());
        usage_and_exit(kExitUsage);
      }
      value = argv[++i];
    }
    assign(*flag, value);
    set_names_.push_back(name);
  }
}

}  // namespace parda
