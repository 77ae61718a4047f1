#include "comm/transport/spec.hpp"

#include "util/check.hpp"
#include "util/parse.hpp"

namespace parda::comm {

namespace {

/// A byte count in [min, max], with an optional binary k/K or m/M suffix.
std::size_t parse_bytes(const std::string& key, const std::string& value,
                        std::size_t min, std::size_t max) {
  std::string_view digits = value;
  std::size_t scale = 1;
  if (!digits.empty()) {
    const char suffix = digits.back();
    if (suffix == 'k' || suffix == 'K') scale = std::size_t{1} << 10;
    if (suffix == 'm' || suffix == 'M') scale = std::size_t{1} << 20;
  }
  if (scale != 1) digits.remove_suffix(1);
  // At most max / scale, so the suffix product cannot wrap.
  const std::optional<std::uint64_t> n = parse_u64(digits, max / scale);
  PARDA_CHECK_MSG(n && *n * scale >= min,
                  "transport spec: bad %s value '%s' (bytes in [%zu, %zu], "
                  "with an optional k or M suffix)",
                  key.c_str(), value.c_str(), min, max);
  return *n * scale;
}

}  // namespace

const char* transport_kind_name(TransportKind kind) noexcept {
  switch (kind) {
    case TransportKind::kThreads: return "threads";
    case TransportKind::kShm: return "shm";
    case TransportKind::kTcp: return "tcp";
  }
  return "?";
}

TransportSpec TransportSpec::parse(const std::string& text) {
  TransportSpec spec;
  const std::size_t colon = text.find(':');
  const std::string kind = text.substr(0, colon);
  if (kind == "threads") {
    spec.kind = TransportKind::kThreads;
  } else if (kind == "shm") {
    spec.kind = TransportKind::kShm;
  } else if (kind == "tcp") {
    spec.kind = TransportKind::kTcp;
  } else {
    PARDA_CHECK_MSG(false,
                    "bad transport '%s' (expected threads|shm|tcp)",
                    kind.c_str());
  }
  if (colon == std::string::npos) return spec;
  for (const std::string_view part :
       split(std::string_view(text).substr(colon + 1), ',')) {
    if (part.empty()) continue;
    const std::string clause(part);
    const std::size_t eq = clause.find('=');
    PARDA_CHECK_MSG(eq != std::string::npos,
                    "transport spec: clause '%s' is not key=value",
                    clause.c_str());
    const std::string key = clause.substr(0, eq);
    const std::string value = clause.substr(eq + 1);
    if (key == "ring" && spec.kind == TransportKind::kShm) {
      spec.ring_bytes = parse_bytes(key, value, kMinRingBytes, kMaxRingBytes);
    } else if (key == "segment" && spec.kind == TransportKind::kShm) {
      spec.segment = value;
    } else if (key == "peers" && spec.kind == TransportKind::kTcp) {
      const std::vector<std::string_view> peers = split(value, '+');
      spec.peers.assign(peers.begin(), peers.end());
    } else if (key == "sendq" && spec.kind == TransportKind::kTcp) {
      spec.sendq_bytes =
          parse_bytes(key, value, 1, std::numeric_limits<std::size_t>::max());
    } else if (key == "rank") {
      const std::optional<std::uint64_t> r =
          parse_u64(value, std::numeric_limits<int>::max());
      PARDA_CHECK_MSG(r.has_value(), "transport spec: bad rank '%s'",
                      value.c_str());
      spec.local_rank = static_cast<int>(*r);
    } else {
      PARDA_CHECK_MSG(false, "transport spec: unknown key '%s' for %s",
                      key.c_str(), transport_kind_name(spec.kind));
    }
  }
  return spec;
}

std::string TransportSpec::describe() const {
  std::string out = transport_kind_name(kind);
  std::string params;
  const auto add = [&params](const std::string& clause) {
    if (!params.empty()) params += ',';
    params += clause;
  };
  const TransportSpec defaults;
  if (kind == TransportKind::kShm) {
    if (ring_bytes != defaults.ring_bytes) {
      add("ring=" + std::to_string(ring_bytes));
    }
    if (!segment.empty()) add("segment=" + segment);
  }
  if (kind == TransportKind::kTcp) {
    if (!peers.empty()) {
      std::string list;
      for (const std::string& p : peers) {
        if (!list.empty()) list += '+';
        list += p;
      }
      add("peers=" + list);
    }
    if (sendq_bytes != defaults.sendq_bytes) {
      add("sendq=" + std::to_string(sendq_bytes));
    }
  }
  if (local_rank != kAllRanksLocal) {
    add("rank=" + std::to_string(local_rank));
  }
  if (params.empty()) return out;
  return out + ":" + params;
}

std::string TransportSpec::signature() const {
  // Endpoint noise (ephemeral ports, segment names) is deliberately
  // excluded: two specs that produce equivalent wires share an identity.
  std::string out = transport_kind_name(kind);
  if (kind == TransportKind::kShm) {
    out += ":ring=" + std::to_string(ring_bytes);
  }
  if (kind == TransportKind::kTcp) {
    out += ":sendq=" + std::to_string(sendq_bytes);
  }
  return out;
}

void TransportSpec::validate(int np) const {
  PARDA_CHECK_MSG(np >= 1, "transport spec: np must be >= 1, got %d", np);
  if (distributed()) {
    PARDA_CHECK_MSG(kind != TransportKind::kThreads,
                    "transport 'threads' cannot span processes; use shm or "
                    "tcp for rank=%d",
                    local_rank);
    PARDA_CHECK_MSG(local_rank < np,
                    "transport rank %d out of range for np=%d", local_rank,
                    np);
    if (kind == TransportKind::kShm) {
      PARDA_CHECK_MSG(!segment.empty(),
                      "distributed shm transport needs segment=NAME so "
                      "peer processes can attach");
    }
    if (kind == TransportKind::kTcp) {
      PARDA_CHECK_MSG(static_cast<int>(peers.size()) == np,
                      "distributed tcp transport needs one host:port peer "
                      "per rank (got %zu for np=%d)",
                      peers.size(), np);
    }
  } else {
    PARDA_CHECK_MSG(peers.empty(),
                    "tcp peers are only meaningful with rank=N (one process "
                    "per rank); in-process worlds build their own loopback "
                    "mesh");
  }
}

}  // namespace parda::comm
