#include "workload/parse.hpp"

#include <stdexcept>
#include <string>
#include <unordered_map>
#include <vector>

#include "util/parse.hpp"
#include "workload/generators.hpp"
#include "workload/spec.hpp"

namespace parda {

namespace {

[[noreturn]] void bad(std::string_view spec, const std::string& why) {
  throw std::invalid_argument("workload spec '" + std::string(spec) +
                              "': " + why);
}

/// key=value arguments after the generator name.
struct Args {
  std::string_view spec;  // for error messages
  std::unordered_map<std::string, std::string> kv;

  bool has(const std::string& key) const { return kv.count(key) != 0; }

  std::uint64_t u64(const std::string& key, std::uint64_t fallback,
                    bool required = false) const {
    const auto it = kv.find(key);
    if (it == kv.end()) {
      if (required) bad(spec, "missing required argument '" + key + "'");
      return fallback;
    }
    return number(key, parse_u64(it->second));
  }

  double f64(const std::string& key, double fallback) const {
    const auto it = kv.find(key);
    if (it == kv.end()) return fallback;
    return number(key, parse_f64(it->second));
  }

  std::vector<double> f64_list(const std::string& key) const {
    std::vector<double> out;
    const auto it = kv.find(key);
    if (it == kv.end()) return out;
    for (std::string_view part : split(it->second, '/')) {
      out.push_back(number(key, parse_f64(part)));
    }
    return out;
  }

  std::vector<std::uint64_t> u64_list(const std::string& key) const {
    std::vector<std::uint64_t> out;
    const auto it = kv.find(key);
    if (it == kv.end()) return out;
    for (std::string_view part : split(it->second, '/')) {
      out.push_back(number(key, parse_u64(part)));
    }
    return out;
  }

  template <typename T>
  T number(const std::string& key, const std::optional<T>& v) const {
    if (!v) bad(spec, "argument '" + key + "' is not a number");
    return *v;
  }
};

Args parse_args(std::string_view spec, std::string_view text) {
  Args args;
  args.spec = spec;
  if (text.empty()) return args;
  for (std::string_view part : split(text, ',')) {
    const std::size_t eq = part.find('=');
    if (eq == std::string_view::npos) {
      bad(spec, "malformed argument '" + std::string(part) +
                    "' (expected key=value)");
    }
    args.kv.emplace(std::string(part.substr(0, eq)),
                    std::string(part.substr(eq + 1)));
  }
  return args;
}

std::unique_ptr<Workload> parse_one(std::string_view spec, std::uint64_t seed,
                                    std::uint32_t region);

/// Splits "mix:child|child|...,w=..." composite bodies: children are
/// '|'-separated specs; trailing top-level args (w=, len=) are the last
/// ','-separated tokens containing '=' but no ':'.
struct CompositeBody {
  std::vector<std::string> children;
  std::string args;  // comma-joined trailing key=value pairs
};

CompositeBody parse_composite(std::string_view body) {
  CompositeBody out;
  for (std::string_view part : split(body, '|')) {
    out.children.emplace_back(part);
  }
  // The final child may carry trailing composite args: strip key=value
  // suffixes that do not belong to a generator (heuristic: tokens after
  // the last ',' chain with keys 'w' or 'len').
  if (!out.children.empty()) {
    std::string& last = out.children.back();
    auto tokens = split(last, ',');
    std::size_t keep = tokens.size();
    std::vector<std::string> trailing;
    while (keep > 0) {
      const std::string token(tokens[keep - 1]);
      if (token.rfind("w=", 0) == 0 || token.rfind("len=", 0) == 0) {
        trailing.insert(trailing.begin(), token);
        --keep;
      } else {
        break;
      }
    }
    if (!trailing.empty()) {
      std::string rebuilt;
      for (std::size_t i = 0; i < keep; ++i) {
        if (i != 0) rebuilt += ',';
        rebuilt += std::string(tokens[i]);
      }
      last = rebuilt;
      for (std::size_t i = 0; i < trailing.size(); ++i) {
        if (i != 0) out.args += ',';
        out.args += trailing[i];
      }
    }
  }
  return out;
}

std::unique_ptr<Workload> parse_one(std::string_view spec, std::uint64_t seed,
                                    std::uint32_t region) {
  const std::size_t colon = spec.find(':');
  const std::string_view name =
      colon == std::string_view::npos ? spec : spec.substr(0, colon);
  const std::string_view body =
      colon == std::string_view::npos ? std::string_view{}
                                      : spec.substr(colon + 1);

  if (name == "mix" || name == "phased") {
    const CompositeBody composite = parse_composite(body);
    if (composite.children.empty() || composite.children[0].empty()) {
      bad(spec, "composite needs at least one child");
    }
    const Args args = parse_args(spec, composite.args);
    std::vector<std::unique_ptr<Workload>> kids;
    for (std::size_t i = 0; i < composite.children.size(); ++i) {
      kids.push_back(parse_one(composite.children[i], seed + i + 1,
                               region + static_cast<std::uint32_t>(i)));
    }
    if (name == "phased") {
      return std::make_unique<PhasedWorkload>(std::move(kids),
                                              args.u64("len", 65536));
    }
    std::vector<double> weights = args.f64_list("w");
    if (weights.empty()) weights.assign(kids.size(), 1.0);
    if (weights.size() != kids.size()) {
      bad(spec, "mix weight count does not match child count");
    }
    return std::make_unique<MixWorkload>(std::move(kids), std::move(weights),
                                         seed);
  }

  if (name == "spec") {
    // "spec:mcf,scale=8000" — first bare token is the profile name. Must
    // be handled before generic argument parsing (the name has no '=').
    const std::size_t comma = body.find(',');
    const std::string_view profile_name = body.substr(0, comma);
    if (profile_name.empty() ||
        profile_name.find('=') != std::string_view::npos) {
      bad(spec, "spec needs a profile name, e.g. spec:mcf");
    }
    const Args spec_args = parse_args(
        spec, comma == std::string_view::npos ? "" : body.substr(comma + 1));
    const SpecProfile* profile = find_spec_profile(profile_name);
    if (profile == nullptr) {
      bad(spec, "unknown SPEC profile '" + std::string(profile_name) + "'");
    }
    return make_spec_workload(*profile,
                              spec_args.u64("scale", kDefaultSpecScale),
                              seed);
  }

  const Args args = parse_args(spec, body);
  if (name == "seq") {
    return std::make_unique<SequentialWorkload>(args.u64("m", 0, true),
                                                region);
  }
  if (name == "strided") {
    return std::make_unique<StridedWorkload>(args.u64("m", 0, true),
                                             args.u64("s", 1), region);
  }
  if (name == "uniform") {
    return std::make_unique<UniformRandomWorkload>(args.u64("m", 0, true),
                                                   seed, region);
  }
  if (name == "zipf") {
    return std::make_unique<ZipfWorkload>(args.u64("m", 0, true),
                                          args.f64("a", 1.0), seed, region);
  }
  if (name == "ptrchase") {
    return std::make_unique<PointerChaseWorkload>(args.u64("m", 0, true),
                                                  seed, region);
  }
  if (name == "matmul") {
    return std::make_unique<MatrixMultiplyWorkload>(args.u64("n", 0, true),
                                                    args.u64("t", 0), region);
  }
  if (name == "stencil") {
    return std::make_unique<StencilWorkload>(args.u64("w", 0, true),
                                             args.u64("h", 0, true), region);
  }
  if (name == "stackdist") {
    std::vector<std::uint64_t> depths = args.u64_list("d");
    std::vector<double> weights = args.f64_list("w");
    if (depths.empty() || depths.size() != weights.size()) {
      bad(spec, "stackdist needs matching d= and w= lists");
    }
    return std::make_unique<StackDistWorkload>(std::move(depths),
                                               std::move(weights),
                                               args.f64("miss", 0.1), seed,
                                               region);
  }
  bad(spec, "unknown generator '" + std::string(name) + "'");
}

}  // namespace

std::unique_ptr<Workload> parse_workload(std::string_view spec,
                                         std::uint64_t seed) {
  if (spec.empty()) {
    throw std::invalid_argument("workload spec is empty");
  }
  return parse_one(spec, seed, /*region=*/0);
}

}  // namespace parda
