#include "obs/export.hpp"

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <map>
#include <optional>
#include <set>
#include <utility>

#include "obs/telemetry.hpp"
#include "util/parse.hpp"

namespace parda::obs {

namespace {

/// "comm.bytes_sent" -> "parda_comm_bytes_sent" (charset [a-zA-Z0-9_:]).
std::string prom_name(std::string_view name) {
  std::string out = "parda_";
  for (char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_' || c == ':';
    out += ok ? c : '_';
  }
  return out;
}

/// Label values escape backslash, double-quote, and newline.
std::string escape_label(std::string_view v) {
  std::string out;
  for (char c : v) {
    if (c == '\\') out += "\\\\";
    else if (c == '"') out += "\\\"";
    else if (c == '\n') out += "\\n";
    else out += c;
  }
  return out;
}

/// HELP text escapes backslash and newline (quotes are fine).
std::string escape_help(std::string_view v) {
  std::string out;
  for (char c : v) {
    if (c == '\\') out += "\\\\";
    else if (c == '\n') out += "\\n";
    else out += c;
  }
  return out;
}

void header(std::string& out, const std::string& fam,
            const std::string& help, const char* type) {
  out += "# HELP " + fam + " " + escape_help(help) + "\n";
  out += "# TYPE " + fam + " ";
  out += type;
  out += "\n";
}

std::string rank_label(std::size_t shard) {
  // Shard 0 is the unattributed (driver/producer) shard.
  return shard == 0 ? std::string("driver") : std::to_string(shard - 1);
}

void sample_u64(std::string& out, const std::string& fam,
                const std::string& labels, std::uint64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%" PRIu64, v);
  out += fam;
  out += labels;
  out += ' ';
  out += buf;
  out += '\n';
}

/// Emits one family of per-rank u64 samples: shard 0 always (so the family
/// is never empty), other shards only where `activity` is nonzero.
/// `extra` is a pre-rendered label list ('k="v",k2="v2"') merged before the
/// rank label.
template <typename Shards, typename Activity>
void per_rank_samples(std::string& out, const std::string& fam,
                      const std::string& extra, const Shards& values,
                      const Activity& activity) {
  for (std::size_t i = 0; i < values.size(); ++i) {
    if (i != 0 && activity[i] == 0) continue;
    std::string labels = "{";
    if (!extra.empty()) {
      labels += extra;
      labels += ',';
    }
    labels += "rank=\"" + escape_label(rank_label(i)) + "\"}";
    sample_u64(out, fam, labels, values[i]);
  }
}

/// Label names must match [a-zA-Z_][a-zA-Z0-9_]*; anything else maps to
/// '_' (mirrors prom_name for metric names).
std::string sanitize_label_name(std::string_view name) {
  std::string out;
  out.reserve(name.size());
  for (std::size_t i = 0; i < name.size(); ++i) {
    const char c = name[i];
    const bool alpha = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                       c == '_';
    const bool ok = alpha || (i > 0 && c >= '0' && c <= '9');
    out += ok ? c : '_';
  }
  if (out.empty()) out = "_";
  return out;
}

/// A registry metric name optionally carries a label set in the name
/// string itself — "serve.ingest_refs{tenant=alice,reason=rate}" — which
/// is how label-dimensioned metrics (per-tenant serving counters) ride on
/// the flat name->metric registry. split_name separates the family base
/// from the rendered label list.
struct LabeledName {
  std::string base;    // registry name without the label block
  std::string labels;  // rendered 'k="v",k2="v2"' (escaped); "" if none
};

LabeledName split_name(std::string_view name) {
  LabeledName out;
  const std::size_t brace = name.find('{');
  if (brace == std::string_view::npos || name.empty() ||
      name.back() != '}') {
    out.base = std::string(name);
    return out;
  }
  out.base = std::string(name.substr(0, brace));
  const std::string_view inner =
      name.substr(brace + 1, name.size() - brace - 2);
  for (const std::string_view pair : split(inner, ',')) {
    const std::size_t eq = pair.find('=');
    if (eq == std::string_view::npos) continue;  // malformed pair: dropped
    if (!out.labels.empty()) out.labels += ',';
    out.labels += sanitize_label_name(pair.substr(0, eq));
    out.labels += "=\"";
    out.labels += escape_label(pair.substr(eq + 1));
    out.labels += '"';
  }
  return out;
}

/// The local registry as the hub stores a remote process: a single-process
/// render is the fleet render over this one entry.
ProcessTelemetry local_telemetry(const Registry& reg) {
  auto vec = [](const std::array<std::uint64_t, kShards>& a) {
    return std::vector<std::uint64_t>(a.begin(), a.end());
  };
  ProcessTelemetry pt;
  pt.process = 0;
  for (const Counter* c : reg.counters()) {
    pt.counters.push_back({c->name(), vec(c->shards())});
  }
  for (const Gauge* g : reg.gauges()) {
    pt.gauges.push_back({g->name(), vec(g->shards()), vec(g->values())});
  }
  for (const TimerHistogram* t : reg.timers()) {
    const TimerHistogram::Aggregate agg = t->aggregate();
    pt.timers.push_back(
        {t->name(), agg.count, agg.sum_ns,
         std::vector<std::uint64_t>(agg.buckets.begin(), agg.buckets.end())});
  }
  return pt;
}

/// One exposition family: the registry base name (for HELP) and every
/// process's members, each with its rendered label list.
template <typename Member>
struct Family {
  std::string base;
  std::vector<std::pair<std::string, const Member*>> members;
};

/// Groups one metric kind across processes by family name — the exposition
/// format allows exactly one HELP/TYPE per family, so every label set and
/// every process shares the block. Members carry process="N" only in a
/// fleet render.
template <typename Member>
std::map<std::string, Family<Member>> group_families(
    const std::vector<ProcessTelemetry>& processes,
    std::vector<Member> ProcessTelemetry::*kind, std::string_view suffix) {
  const bool fleet = processes.size() > 1;
  std::map<std::string, Family<Member>> fams;
  for (const ProcessTelemetry& pt : processes) {
    for (const Member& m : pt.*kind) {
      LabeledName ln = split_name(m.name);
      Family<Member>& fam = fams[prom_name(ln.base) + std::string(suffix)];
      if (fam.members.empty()) fam.base = ln.base;
      std::string labels = std::move(ln.labels);
      if (fleet) {
        labels = "process=\"" + std::to_string(pt.process) + "\"" +
                 (labels.empty() ? "" : "," + labels);
      }
      fam.members.emplace_back(std::move(labels), &m);
    }
  }
  return fams;
}

}  // namespace

std::string to_prometheus(const Registry& reg, const SpanTracer& tracer,
                          const TelemetryHub& hub) {
  // Process 0 is this one; the hub contributes every remote process. With
  // none, the render is the single-process exposition: no process label
  // and no parda_telemetry_* freshness families.
  std::vector<ProcessTelemetry> processes = hub.snapshot();
  processes.insert(processes.begin(), local_telemetry(reg));
  const bool fleet = processes.size() > 1;

  std::string out;
  out.reserve(1 << 14);

  for (const auto& [fam, f] : group_families(
           processes, &ProcessTelemetry::counters, "_total")) {
    header(out, fam,
           "Parda counter " + f.base +
               " (rank=\"driver\" is the unattributed shard)",
           "counter");
    for (const auto& [labels, c] : f.members) {
      per_rank_samples(out, fam, labels, c->shards, c->shards);
    }
  }

  for (const auto& [fam, f] :
       group_families(processes, &ProcessTelemetry::gauges, "")) {
    header(out, fam,
           "Parda gauge " + f.base + " (last value published per rank)",
           "gauge");
    for (const auto& [labels, g] : f.members) {
      per_rank_samples(out, fam, labels, g->values, g->maxes);
    }
    const std::string fam_max = fam + "_max";
    header(out, fam_max,
           "Parda gauge " + f.base + " lifetime high-water mark per rank",
           "gauge");
    for (const auto& [labels, g] : f.members) {
      per_rank_samples(out, fam_max, labels, g->maxes, g->maxes);
    }
  }

  for (const auto& [fam, f] :
       group_families(processes, &ProcessTelemetry::timers, "_ns")) {
    header(out, fam,
           "Parda timer " + f.base +
               " in nanoseconds (log2 buckets, aggregated across ranks)",
           "histogram");
    for (const auto& [labels, t] : f.members) {
      const std::string extra = labels.empty() ? "" : labels + ',';
      const std::string braced = labels.empty() ? "" : "{" + labels + "}";
      std::size_t last = 0;
      for (std::size_t b = 0; b < t->buckets.size(); ++b) {
        if (t->buckets[b] != 0) last = b + 1;
      }
      std::uint64_t cum = 0;
      for (std::size_t b = 0; b < last; ++b) {
        cum += t->buckets[b];
        // Bucket b holds [2^b, 2^(b+1)) ns; integer durations make
        // le=2^(b+1)-1 the exact inclusive upper bound.
        const std::uint64_t le = (std::uint64_t{1} << (b + 1)) - 1;
        sample_u64(out, fam + "_bucket",
                   "{" + extra + "le=\"" + std::to_string(le) + "\"}", cum);
      }
      sample_u64(out, fam + "_bucket", "{" + extra + "le=\"+Inf\"}",
                 t->count);
      sample_u64(out, fam + "_sum", braced, t->sum_ns);
      sample_u64(out, fam + "_count", braced, t->count);
    }
  }

  auto process_labels = [](int process) {
    return "{process=\"" + std::to_string(process) + "\"}";
  };
  {
    const std::string fam = "parda_obs_spans_dropped_total";
    header(out, fam,
           "Span ring overwrites per rank shard (nonzero means the oldest "
           "spans were lost to wrap-around)",
           "counter");
    const auto dropped = tracer.dropped_per_shard();
    per_rank_samples(out, fam, fleet ? "process=\"0\"" : "", dropped, dropped);
    for (std::size_t i = 1; i < processes.size(); ++i) {
      // Remote drops arrive as one total per process (the frame does not
      // break them out per shard).
      sample_u64(out, fam, process_labels(processes[i].process),
                 processes[i].spans_dropped);
    }
  }
  if (!fleet) return out;

  // Per-process freshness: is every process still reporting, how stale is
  // its snapshot, and how trustworthy is its clock alignment.
  struct Freshness {
    const char* fam;
    const char* help;
    const char* type;
    std::uint64_t (*value)(const ProcessTelemetry&, std::int64_t now);
  };
  static constexpr Freshness kFreshness[] = {
      {"parda_telemetry_frames_total",
       "Telemetry frames ingested per remote process", "counter",
       [](const ProcessTelemetry& pt, std::int64_t) { return pt.frames; }},
      {"parda_telemetry_last_seq",
       "Sequence number of the newest frame per process", "gauge",
       [](const ProcessTelemetry& pt, std::int64_t) { return pt.seq; }},
      {"parda_telemetry_final",
       "1 once the process sent its end-of-job flush frame", "gauge",
       [](const ProcessTelemetry& pt, std::int64_t) -> std::uint64_t {
         return pt.final_received ? 1 : 0;
       }},
      {"parda_telemetry_age_ns",
       "Nanoseconds since the newest frame per process", "gauge",
       [](const ProcessTelemetry& pt, std::int64_t now) {
         return static_cast<std::uint64_t>(
             std::max<std::int64_t>(0, now - pt.last_ingest_ns));
       }},
      {"parda_telemetry_clock_uncertainty_ns",
       "Half the min round-trip of the clock handshake per process "
       "(0 with clock_valid=0 means no estimate)",
       "gauge",
       [](const ProcessTelemetry& pt, std::int64_t) -> std::uint64_t {
         if (!pt.clock.valid || pt.clock.uncertainty_ns < 0) return 0;
         return static_cast<std::uint64_t>(pt.clock.uncertainty_ns);
       }},
      {"parda_telemetry_clock_valid",
       "1 when the process's clock-offset handshake converged", "gauge",
       [](const ProcessTelemetry& pt, std::int64_t) -> std::uint64_t {
         return pt.clock.valid ? 1 : 0;
       }},
  };
  const std::int64_t now = tracer.now_ns();
  for (const Freshness& f : kFreshness) {
    header(out, f.fam, f.help, f.type);
    for (std::size_t i = 1; i < processes.size(); ++i) {
      sample_u64(out, f.fam, process_labels(processes[i].process),
                 f.value(processes[i], now));
    }
  }
  return out;
}

std::string to_prometheus() {
  return to_prometheus(registry(), tracer(), hub());
}

// --- Validator --------------------------------------------------------------

namespace {

bool valid_metric_name(std::string_view s) {
  if (s.empty()) return false;
  auto head = [](char c) {
    return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c == '_' ||
           c == ':';
  };
  if (!head(s[0])) return false;
  for (char c : s.substr(1)) {
    if (!head(c) && !(c >= '0' && c <= '9')) return false;
  }
  return true;
}

bool valid_label_name(std::string_view s) {
  if (s.empty()) return false;
  auto head = [](char c) {
    return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c == '_';
  };
  if (!head(s[0])) return false;
  for (char c : s.substr(1)) {
    if (!head(c) && !(c >= '0' && c <= '9')) return false;
  }
  return true;
}

bool valid_value(std::string_view s) {
  if (s == "+Inf" || s == "-Inf" || s == "Inf" || s == "NaN") return true;
  if (s.empty()) return false;
  char* end = nullptr;
  const std::string copy(s);
  std::strtod(copy.c_str(), &end);
  return end == copy.c_str() + copy.size();
}

struct Sample {
  std::string name;
  // Sorted key=value pairs, `le` excluded for bucket grouping.
  std::vector<std::pair<std::string, std::string>> labels;
  std::optional<std::string> le;
  double value = 0;
  std::size_t line_no = 0;
};

/// Base family of a sample name: strips _bucket/_sum/_count when the
/// stripped name was declared as a histogram.
std::string histogram_base(const std::string& name,
                           const std::map<std::string, std::string>& types) {
  for (const char* suffix : {"_bucket", "_sum", "_count"}) {
    const std::string_view sv(suffix);
    if (name.size() > sv.size() &&
        name.compare(name.size() - sv.size(), sv.size(), sv) == 0) {
      const std::string base = name.substr(0, name.size() - sv.size());
      const auto it = types.find(base);
      if (it != types.end() && it->second == "histogram") return base;
    }
  }
  return name;
}

}  // namespace

std::vector<std::string> validate_prometheus(std::string_view text) {
  std::vector<std::string> problems;
  auto fail = [&](std::size_t line_no, const std::string& msg) {
    problems.push_back("line " + std::to_string(line_no) + ": " + msg);
  };

  if (text.empty() || text.back() != '\n') {
    problems.push_back("exposition must end with a newline");
  }

  std::map<std::string, std::string> types;   // family -> TYPE
  std::map<std::string, std::size_t> helps;   // family -> HELP line
  std::set<std::string> series;               // name + sorted labels + le
  std::vector<Sample> samples;

  std::size_t line_no = 0;
  for (const std::string_view line : split(text, '\n')) {
    ++line_no;
    if (line.empty()) continue;

    if (line[0] == '#') {
      // "# HELP name text" | "# TYPE name type" | plain comment.
      if (line.rfind("# HELP ", 0) == 0) {
        const std::string_view rest = line.substr(7);
        const std::size_t sp = rest.find(' ');
        const std::string name(rest.substr(0, sp));
        if (!valid_metric_name(name)) {
          fail(line_no, "HELP for invalid metric name '" + name + "'");
        }
        if (helps.count(name) != 0) {
          fail(line_no, "duplicate HELP for '" + name + "'");
        }
        helps[name] = line_no;
      } else if (line.rfind("# TYPE ", 0) == 0) {
        const std::string_view rest = line.substr(7);
        const std::size_t sp = rest.find(' ');
        if (sp == std::string_view::npos) {
          fail(line_no, "TYPE line missing type");
          continue;
        }
        const std::string name(rest.substr(0, sp));
        const std::string type(rest.substr(sp + 1));
        if (!valid_metric_name(name)) {
          fail(line_no, "TYPE for invalid metric name '" + name + "'");
        }
        if (type != "counter" && type != "gauge" && type != "histogram" &&
            type != "summary" && type != "untyped") {
          fail(line_no, "unknown TYPE '" + type + "'");
        }
        if (types.count(name) != 0) {
          fail(line_no, "duplicate TYPE for '" + name + "'");
        }
        if (helps.count(name) == 0) {
          fail(line_no, "TYPE for '" + name + "' without preceding HELP");
        }
        types[name] = type;
        if (type == "counter" &&
            (name.size() < 6 ||
             name.compare(name.size() - 6, 6, "_total") != 0)) {
          fail(line_no, "counter '" + name + "' must end with _total");
        }
      }
      continue;
    }

    // Sample line: name[{labels}] value [timestamp]
    Sample s;
    s.line_no = line_no;
    std::size_t i = 0;
    while (i < line.size() && line[i] != '{' && line[i] != ' ') ++i;
    s.name = std::string(line.substr(0, i));
    if (!valid_metric_name(s.name)) {
      fail(line_no, "invalid metric name '" + s.name + "'");
      continue;
    }
    if (i < line.size() && line[i] == '{') {
      ++i;
      while (i < line.size() && line[i] != '}') {
        std::size_t eq = line.find('=', i);
        if (eq == std::string_view::npos) {
          fail(line_no, "malformed label (no '=')");
          break;
        }
        const std::string lname(line.substr(i, eq - i));
        if (!valid_label_name(lname)) {
          fail(line_no, "invalid label name '" + lname + "'");
        }
        if (eq + 1 >= line.size() || line[eq + 1] != '"') {
          fail(line_no, "label value must be quoted");
          break;
        }
        std::string lvalue;
        std::size_t j = eq + 2;
        bool closed = false;
        while (j < line.size()) {
          const char c = line[j];
          if (c == '\\') {
            if (j + 1 >= line.size() ||
                (line[j + 1] != '\\' && line[j + 1] != '"' &&
                 line[j + 1] != 'n')) {
              fail(line_no, "bad escape in label value");
              break;
            }
            lvalue += line[j + 1] == 'n' ? '\n' : line[j + 1];
            j += 2;
          } else if (c == '"') {
            closed = true;
            ++j;
            break;
          } else {
            lvalue += c;
            ++j;
          }
        }
        if (!closed) {
          fail(line_no, "unterminated label value");
          break;
        }
        if (lname == "le") {
          s.le = lvalue;
        } else {
          s.labels.emplace_back(lname, lvalue);
        }
        i = j;
        if (i < line.size() && line[i] == ',') ++i;
      }
      if (i < line.size() && line[i] == '}') ++i;
    }
    if (i >= line.size() || line[i] != ' ') {
      fail(line_no, "missing value after metric");
      continue;
    }
    ++i;
    const std::size_t sp = line.find(' ', i);
    const std::string value_text(
        line.substr(i, sp == std::string_view::npos ? std::string_view::npos
                                                    : sp - i));
    if (!valid_value(value_text)) {
      fail(line_no, "non-numeric sample value '" + value_text + "'");
      continue;
    }
    s.value = value_text == "+Inf" || value_text == "Inf"
                  ? std::numeric_limits<double>::infinity()
                  : std::strtod(value_text.c_str(), nullptr);
    std::sort(s.labels.begin(), s.labels.end());
    // Prometheus rejects an exposition that repeats a series. Values are
    // length-prefixed so no label value can forge another label set's key.
    std::string key = s.name;
    auto add_label = [&key](const std::string& k, const std::string& v) {
      key += "|" + k + "=" + std::to_string(v.size()) + ":" + v;
    };
    for (const auto& [k, v] : s.labels) add_label(k, v);
    if (s.le.has_value()) add_label("le", *s.le);
    if (!series.insert(key).second) {
      fail(line_no, "duplicate series for '" + s.name + "'");
    }
    samples.push_back(std::move(s));
  }

  // Every sample's family must have a TYPE declared (before use is implied
  // by emission order; we check presence here and order via line numbers).
  for (const Sample& s : samples) {
    const std::string fam = histogram_base(s.name, types);
    const auto it = types.find(fam);
    if (it == types.end()) {
      fail(s.line_no, "sample '" + s.name + "' has no TYPE declaration");
    }
  }

  // Histogram consistency per (family, labels-minus-le).
  struct HistGroup {
    std::vector<std::pair<double, double>> buckets;  // (le, cumulative)
    std::optional<double> sum;
    std::optional<double> count;
    std::size_t line_no = 0;
  };
  std::map<std::string, HistGroup> groups;
  auto group_key = [](const std::string& fam, const Sample& s) {
    std::string key = fam;
    for (const auto& [k, v] : s.labels) key += "|" + k + "=" + v;
    return key;
  };
  for (const Sample& s : samples) {
    const std::string fam = histogram_base(s.name, types);
    if (fam == s.name || types.find(fam)->second != "histogram") continue;
    HistGroup& g = groups[group_key(fam, s)];
    g.line_no = s.line_no;
    if (s.name == fam + "_bucket") {
      if (!s.le.has_value()) {
        fail(s.line_no, "_bucket sample without le label");
        continue;
      }
      const double le = *s.le == "+Inf"
                            ? std::numeric_limits<double>::infinity()
                            : std::strtod(s.le->c_str(), nullptr);
      g.buckets.emplace_back(le, s.value);
    } else if (s.name == fam + "_sum") {
      g.sum = s.value;
    } else if (s.name == fam + "_count") {
      g.count = s.value;
    }
  }
  for (const auto& [key, g] : groups) {
    const std::string fam = key.substr(0, key.find('|'));
    if (g.buckets.empty()) {
      fail(g.line_no, "histogram '" + fam + "' has no _bucket samples");
      continue;
    }
    for (std::size_t b = 1; b < g.buckets.size(); ++b) {
      if (!(g.buckets[b].first > g.buckets[b - 1].first)) {
        fail(g.line_no, "histogram '" + fam + "' le values not increasing");
      }
      if (g.buckets[b].second < g.buckets[b - 1].second) {
        fail(g.line_no,
             "histogram '" + fam + "' bucket counts not monotonic");
      }
    }
    if (!std::isinf(g.buckets.back().first)) {
      fail(g.line_no, "histogram '" + fam + "' missing le=\"+Inf\" bucket");
    }
    if (!g.count.has_value()) {
      fail(g.line_no, "histogram '" + fam + "' missing _count");
    } else if (std::isinf(g.buckets.back().first) &&
               g.buckets.back().second != *g.count) {
      fail(g.line_no,
           "histogram '" + fam + "' +Inf bucket != _count");
    }
    if (!g.sum.has_value()) {
      fail(g.line_no, "histogram '" + fam + "' missing _sum");
    }
  }

  return problems;
}

}  // namespace parda::obs
