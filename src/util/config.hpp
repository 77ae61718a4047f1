// Layered runtime configuration: ONE precedence rule for every setting
// that can arrive both on the command line and from the environment.
//
//   command line  >  environment variable  >  compiled-in default
//
// resolve() is the single choke point: it reports both the winning value
// and WHERE it came from, so tools can say "transport tcp (from
// $PARDA_TRANSPORT)" in diagnostics and tests can assert the precedence
// order directly.
//
// Settings routed through this layer (trace_tool):
//   --transport       / $PARDA_TRANSPORT        (comm::TransportSpec)
//   --log-level       / $PARDA_LOG_LEVEL        (trace|debug|...|off)
//   --fault-plan      / $PARDA_FAULT_PLAN       (comm::FaultPlan)
//   --flight-recorder / $PARDA_FLIGHT_RECORDER  (dump path)
//
// An environment variable set to the empty string counts as UNSET (so
// `PARDA_TRANSPORT= ./trace_tool ...` falls back to the default instead
// of failing to parse ""). Numbers in a resolved value go through
// util/parse.hpp.
#pragma once

#include <optional>
#include <string>

#include "util/cli.hpp"

namespace parda::config {

/// Which layer supplied a resolved value, in precedence order.
enum class Source { kCli, kEnv, kDefault };

/// Human-readable layer name ("command line", "environment", "default")
/// for diagnostics like "bad transport 'x' (from environment)".
const char* source_name(Source source) noexcept;

/// One resolved setting: the winning value plus the layer that won.
struct Resolved {
  std::string value;
  Source source = Source::kDefault;

  bool from_cli() const noexcept { return source == Source::kCli; }
  bool from_env() const noexcept { return source == Source::kEnv; }
};

/// Core precedence rule. `cli_value` is engaged only when the flag was
/// explicitly set (see CliParser::was_set); `env_var` may be nullptr to
/// skip the environment layer.
Resolved resolve(const std::optional<std::string>& cli_value,
                 const char* env_var, std::string default_value);

/// Convenience binding for CliParser string flags: consults
/// cli.was_set(flag_name) so a flag left at its default does NOT shadow
/// the environment variable.
Resolved resolve_flag(const CliParser& cli, const std::string& flag_name,
                      const std::string& flag_value, const char* env_var,
                      std::string default_value);

}  // namespace parda::config
