/// \file ledger_test.cpp
/// Checks of the benchmark's own arithmetic: the percentile rule (nearest
/// rank, at least ten samples beyond the reported percentile, misses as
/// +infinity) and span self times. Exits non-zero on the first failure.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <thread>
#include <vector>

#include "ledger.hpp"

namespace {

int g_failures = 0;

void check(bool ok, const char* what) {
  if (!ok) {
    std::fprintf(stderr, "FAIL: %s\n", what);
    ++g_failures;
  }
}

bool near(double a, double b) { return std::fabs(a - b) < 1e-12; }

perfbench::Span span(std::uint64_t id, std::uint64_t parent, double start,
                     double end) {
  perfbench::Span s;
  s.name = "layer.call";
  s.id = id;
  s.parent = parent;
  s.start_s = start;
  s.end_s = end;
  return s;
}

void percentile_rule() {
  using perfbench::percentile;
  using perfbench::percentile_supported;
  std::vector<double> v;
  for (int i = 1; i <= 1000; ++i) v.push_back(i);
  check(percentile(v, 50.0) == 500.0, "p50 of 1..1000 is 500");
  check(percentile(v, 99.0) == 990.0, "p99 of 1..1000 is 990");
  check(percentile(v, 90.0) == 900.0, "p90 of 1..1000 is 900");
  check(percentile({7.0}, 99.0) == 7.0, "any percentile of one sample");

  // Ten samples beyond the rank are required.
  check(percentile_supported(1000, 99.0), "p99 needs 1000 samples: ok");
  check(!percentile_supported(999, 99.0), "p99 with 999 samples: refused");
  check(percentile_supported(100, 90.0), "p90 needs 100 samples: ok");
  check(!percentile_supported(99, 90.0), "p90 with 99 samples: refused");
  check(percentile_supported(10000, 99.9), "p99.9 needs 10000 samples");
  check(!percentile_supported(5, 50.0), "5 samples support no median");

  // Failures are misses: they sort last and count against the limit.
  std::vector<double> with_misses(95, 1.0);
  for (int i = 0; i < 5; ++i) with_misses.push_back(perfbench::kMiss);
  check(percentile(with_misses, 95.0) == 1.0, "p95 still answered");
  check(std::isinf(percentile(with_misses, 96.0)), "p96 lands on a miss");
  check(near(perfbench::share_within(with_misses, 2.0), 0.95),
        "misses never fall within the limit");
}

void self_time_rule() {
  using perfbench::self_times;
  // Root [0, 10] with children [1, 3] and [2, 5] (overlapping, e.g. two
  // threads) and [8, 12] (runs past the root: clipped to [8, 10]).
  const std::vector<perfbench::Span> spans = {
      span(1, 0, 0.0, 10.0), span(2, 1, 1.0, 3.0), span(3, 1, 2.0, 5.0),
      span(4, 1, 8.0, 12.0), span(5, 3, 2.5, 3.5), span(6, 99, 0.0, 1.0)};
  const std::vector<double> self = self_times(spans);
  check(near(self[0], 10.0 - 4.0 - 2.0), "root self = 10 - [1,5] - [8,10]");
  check(near(self[1], 2.0), "leaf self = duration");
  check(near(self[2], 3.0 - 1.0), "child self minus its own child");
  check(near(self[3], 4.0), "clipping applies to the parent only");
  check(near(self[5], 1.0), "unknown parent: still a leaf");
}

void ledger_nesting() {
  perfbench::SpanLedger ledger(true);
  {
    perfbench::SpanLedger::Scope outer(ledger, "serve.execute", 7);
    { perfbench::SpanLedger::Scope inner(ledger, "bio.probe_build", 7); }
    std::thread other([&] {
      // Another thread's scope is not a child of this thread's span.
      perfbench::SpanLedger::Scope lone(ledger, "sim.ca_run", 8);
    });
    other.join();
  }
  const std::vector<perfbench::Span> spans = ledger.spans();
  check(spans.size() == 3, "three spans recorded");
  std::uint64_t outer_id = 0;
  for (const auto& s : spans) {
    if (s.name == "serve.execute") outer_id = s.id;
  }
  for (const auto& s : spans) {
    if (s.name == "bio.probe_build") {
      check(s.parent == outer_id, "nested scope is a child");
    }
    if (s.name == "sim.ca_run") check(s.parent == 0, "other thread: root");
    check(s.end_s >= s.start_s, "spans end after they start");
  }
  check(perfbench::layer_of("bio.probe_build") == "bio", "layer prefix");

  perfbench::SpanLedger off(false);
  { perfbench::SpanLedger::Scope none(off, "serve.execute", 1); }
  check(off.size() == 0, "a disabled ledger records nothing");
}

}  // namespace

int main() {
  percentile_rule();
  self_time_rule();
  ledger_nesting();
  if (g_failures != 0) {
    std::fprintf(stderr, "%d ledger check(s) failed\n", g_failures);
    return EXIT_FAILURE;
  }
  std::printf("ledger checks passed\n");
  return EXIT_SUCCESS;
}
