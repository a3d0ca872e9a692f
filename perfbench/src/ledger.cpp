/// \file ledger.cpp
/// Span ledger, self-time computation and the percentile rule.

#include "ledger.hpp"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <stdexcept>
#include <unordered_map>
#include <utility>

namespace perfbench {

namespace {

/// Innermost open Scope of the calling thread (any ledger).
thread_local const SpanLedger::Scope* t_current = nullptr;

/// 1-based nearest rank of the p-th percentile among n samples. The small
/// slack keeps p * n / 100 from rounding up past an exact integer.
std::size_t rank_of(std::size_t n, double p) {
  return static_cast<std::size_t>(
      std::ceil(p * static_cast<double>(n) / 100.0 - 1e-9));
}

}  // namespace

std::string layer_of(const std::string& name) {
  return name.substr(0, name.find('.'));
}

std::vector<double> self_times(std::span<const Span> spans) {
  std::unordered_map<std::uint64_t, std::size_t> index_of;
  index_of.reserve(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) index_of[spans[i].id] = i;

  std::vector<std::vector<std::size_t>> children(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    if (spans[i].parent == 0) continue;
    const auto it = index_of.find(spans[i].parent);
    if (it != index_of.end()) children[it->second].push_back(i);
  }

  std::vector<double> self(spans.size());
  std::vector<std::pair<double, double>> covered;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    covered.clear();
    for (std::size_t c : children[i]) {
      const double lo = std::max(spans[c].start_s, s.start_s);
      const double hi = std::min(spans[c].end_s, s.end_s);
      if (hi > lo) covered.emplace_back(lo, hi);
    }
    std::sort(covered.begin(), covered.end());
    double union_s = 0.0;
    double run_lo = 0.0, run_hi = 0.0;
    bool open = false;
    for (const auto& [lo, hi] : covered) {
      if (open && lo <= run_hi) {
        run_hi = std::max(run_hi, hi);
        continue;
      }
      if (open) union_s += run_hi - run_lo;
      run_lo = lo;
      run_hi = hi;
      open = true;
    }
    if (open) union_s += run_hi - run_lo;
    self[i] = std::max(0.0, (s.end_s - s.start_s) - union_s);
  }
  return self;
}

SpanLedger::SpanLedger(bool enabled)
    : enabled_(enabled), origin_(Clock::now()) {}

SpanLedger::Scope::Scope(SpanLedger& ledger, std::string name,
                         std::uint64_t request)
    : ledger_(ledger) {
  if (!ledger_.enabled_) return;
  span_.name = std::move(name);
  span_.request = request;
  {
    const std::lock_guard<std::mutex> lock(ledger_.mutex_);
    span_.id = ledger_.next_id_++;
  }
  if (t_current != nullptr && &t_current->ledger_ == &ledger_) {
    span_.parent = t_current->span_.id;
  }
  outer_ = t_current;
  t_current = this;
  start_ = Clock::now();
}

SpanLedger::Scope::~Scope() {
  if (!ledger_.enabled_) return;
  const Clock::time_point end = Clock::now();
  t_current = outer_;
  span_.start_s = seconds_between(ledger_.origin_, start_);
  span_.end_s = seconds_between(ledger_.origin_, end);
  const std::lock_guard<std::mutex> lock(ledger_.mutex_);
  ledger_.spans_.push_back(std::move(span_));
}

std::vector<Span> SpanLedger::spans() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return spans_;
}

std::size_t SpanLedger::size() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return spans_.size();
}

void SpanLedger::write_jsonl(const std::string& path) const {
  const std::vector<Span> all = spans();
  const std::vector<double> self = self_times(all);
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write " + path);
  out.precision(17);
  for (std::size_t i = 0; i < all.size(); ++i) {
    const Span& s = all[i];
    out << "{\"name\":\"" << s.name << "\",\"id\":" << s.id
        << ",\"parent\":" << s.parent << ",\"request\":" << s.request
        << ",\"start_s\":" << s.start_s << ",\"end_s\":" << s.end_s
        << ",\"self_s\":" << self[i] << "}\n";
  }
}

double percentile(std::vector<double> sample, double p) {
  if (sample.empty()) throw std::invalid_argument("percentile of nothing");
  if (!(p > 0.0 && p <= 100.0)) throw std::invalid_argument("p out of range");
  const std::size_t k = std::max<std::size_t>(rank_of(sample.size(), p), 1) - 1;
  std::nth_element(sample.begin(), sample.begin() + static_cast<long>(k),
                   sample.end());
  return sample[k];
}

bool percentile_supported(std::size_t n, double p) {
  return n >= rank_of(n, p) + 10;
}

double share_within(std::span<const double> sample, double limit) {
  if (sample.empty()) return 0.0;
  std::size_t hits = 0;
  for (double v : sample) hits += v <= limit ? 1 : 0;
  return static_cast<double>(hits) / static_cast<double>(sample.size());
}

}  // namespace perfbench
