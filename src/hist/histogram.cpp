#include "hist/histogram.hpp"

#include <algorithm>
#include <limits>

#include "util/check.hpp"
#include "util/json.hpp"

namespace parda {

void Histogram::record(Distance d, std::uint64_t count) {
  if (count == 0) return;
  if (d == kInfiniteDistance) {
    infinities_ += count;
  } else {
    // A finite distance is bounded by the trace footprint; anything this
    // large is an upstream bug (e.g. an underflowed subtraction), and
    // growing the dense array for it would hang — fail loudly instead.
    PARDA_CHECK(d < (1ULL << 48));
    if (d >= counts_.size()) {
      // Geometric growth so a rising max distance costs amortized O(1).
      std::size_t cap = std::max<std::size_t>(16, counts_.size());
      while (cap <= d) cap *= 2;
      counts_.resize(cap, 0);
    }
    counts_[d] += count;
  }
  total_ += count;
}

std::uint64_t Histogram::at(Distance d) const noexcept {
  if (d == kInfiniteDistance) return infinities_;
  return d < counts_.size() ? counts_[d] : 0;
}

Distance Histogram::max_distance() const noexcept {
  for (std::size_t i = counts_.size(); i > 0; --i) {
    if (counts_[i - 1] != 0) return i - 1;
  }
  return 0;
}

std::uint64_t Histogram::hits_below(Distance d) const noexcept {
  std::uint64_t hits = 0;
  const std::size_t stop = std::min<std::size_t>(d, counts_.size());
  for (std::size_t i = 0; i < stop; ++i) hits += counts_[i];
  return hits;
}

void Histogram::merge(const Histogram& other) {
  if (other.counts_.size() > counts_.size())
    counts_.resize(other.counts_.size(), 0);
  for (std::size_t i = 0; i < other.counts_.size(); ++i)
    counts_[i] += other.counts_[i];
  infinities_ += other.infinities_;
  total_ += other.total_;
}

void Histogram::clear() noexcept {
  counts_.clear();
  infinities_ = 0;
  total_ = 0;
}

bool Histogram::operator==(const Histogram& other) const noexcept {
  if (infinities_ != other.infinities_ || total_ != other.total_)
    return false;
  const std::size_t n = std::max(counts_.size(), other.counts_.size());
  for (std::size_t i = 0; i < n; ++i) {
    if (at(i) != other.at(i)) return false;
  }
  return true;
}

std::vector<std::uint64_t> Histogram::log2_buckets() const {
  std::vector<std::uint64_t> buckets;
  for (std::size_t d = 0; d < counts_.size(); ++d) {
    if (counts_[d] == 0) continue;
    std::size_t bucket = 0;
    while ((1ULL << bucket) <= d) ++bucket;  // bucket i >= 1: [2^(i-1), 2^i)
    if (bucket >= buckets.size()) buckets.resize(bucket + 1, 0);
    buckets[bucket] += counts_[d];
  }
  return buckets;
}

double Histogram::mean_finite_distance() const noexcept {
  const std::uint64_t n = finite_total();
  if (n == 0) return 0.0;
  double acc = 0.0;
  for (std::size_t d = 0; d < counts_.size(); ++d) {
    acc += static_cast<double>(d) * static_cast<double>(counts_[d]);
  }
  return acc / static_cast<double>(n);
}

Distance Histogram::finite_distance_percentile(double p) const noexcept {
  const std::uint64_t n = finite_total();
  if (n == 0) return 0;
  const auto target = static_cast<std::uint64_t>(
      p * static_cast<double>(n) + 0.5);
  std::uint64_t seen = 0;
  for (std::size_t d = 0; d < counts_.size(); ++d) {
    seen += counts_[d];
    if (seen >= target) return d;
  }
  return max_distance();
}

std::vector<std::uint64_t> Histogram::to_words(std::size_t spare) const {
  const Distance top = counts_.empty() ? 0 : max_distance() + 1;
  std::vector<std::uint64_t> words;
  words.reserve(3 + top + spare);
  words.push_back(infinities_);
  words.push_back(total_);
  words.push_back(top);
  words.insert(words.end(), counts_.begin(), counts_.begin() + top);
  return words;
}

Histogram Histogram::from_words(std::span<const std::uint64_t> words) {
  PARDA_CHECK_MSG(words.size() >= 3 && words[2] == words.size() - 3,
                  "histogram words: %zu words do not hold a header and "
                  "the %llu counts it declares",
                  words.size(),
                  static_cast<unsigned long long>(
                      words.size() >= 3 ? words[2] : 0));
  Histogram h;
  h.infinities_ = words[0];
  h.total_ = words[1];
  h.counts_.assign(words.begin() + 3, words.end());
  // A count whose sum wraps would pass the totals check.
  std::uint64_t sum = h.infinities_;
  for (const std::uint64_t count : h.counts_) {
    PARDA_CHECK_MSG(count <= std::numeric_limits<std::uint64_t>::max() - sum,
                    "histogram words: counts overflow the 64-bit total");
    sum += count;
  }
  PARDA_CHECK_MSG(sum == h.total_,
                  "histogram words: total %llu is not infinities plus "
                  "counts (%llu)",
                  static_cast<unsigned long long>(h.total_),
                  static_cast<unsigned long long>(sum));
  return h;
}

std::string Histogram::to_json() const {
  json::Writer w;
  w.begin_object();
  w.key("schema").value("parda.histogram.v1");
  w.key("total").value(total_);
  w.key("infinities").value(infinities_);
  w.key("finite").begin_array();
  for (std::size_t d = 0; d < counts_.size(); ++d) {
    if (counts_[d] == 0) continue;
    w.begin_array().value(std::uint64_t{d}).value(counts_[d]).end_array();
  }
  w.end_array();
  w.end_object();
  return w.take();
}

Histogram Histogram::from_json(std::string_view text) {
  const json::Value doc = json::parse(text);
  if (!doc.is_object()) throw json::JsonError("histogram: not an object");
  const json::Value* schema = doc.find("schema");
  if (schema == nullptr || !schema->is_string() ||
      schema->as_string() != "parda.histogram.v1") {
    throw json::JsonError("histogram: missing/unknown schema");
  }
  Histogram h;
  // A count whose sum with the total wraps would pass the totals check.
  const auto add = [&h](Distance d, std::uint64_t count) {
    if (count > std::numeric_limits<std::uint64_t>::max() - h.total_) {
      throw json::JsonError("histogram: counts overflow the 64-bit total");
    }
    h.record(d, count);
  };
  const json::Value& finite = doc.at("finite");
  if (!finite.is_array()) throw json::JsonError("histogram: finite not array");
  for (const json::Value& pair : finite.array) {
    if (!pair.is_array() || pair.array.size() != 2) {
      throw json::JsonError("histogram: finite entry not a [d, count] pair");
    }
    const Distance d = pair.array[0].as_u64();
    if (d >= kMaxJsonDistance) {
      throw json::JsonError("histogram: finite distance out of range");
    }
    add(d, pair.array[1].as_u64());
  }
  add(kInfiniteDistance, doc.at("infinities").as_u64());
  if (h.total_ != doc.at("total").as_u64()) {
    throw json::JsonError("histogram: total does not match finite+infinities");
  }
  return h;
}

}  // namespace parda
