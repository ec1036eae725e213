#include "host_speed.h"

#include <algorithm>
#include <array>
#include <cstdint>
#include <cstdlib>
#include <functional>
#include <utility>

#include "tracing.h"

namespace grunt::perfbench {

namespace {

constexpr std::size_t kTableWords = std::size_t{1} << 19;  // 4 MiB
constexpr std::size_t kPending = 4096;
constexpr int kSteps = 20'000;

thread_local double t_reference_s = 0;
thread_local volatile std::uint64_t t_sink = 0;

std::uint64_t XorShift(std::uint64_t& x) {
  x ^= x << 13;
  x ^= x >> 7;
  x ^= x << 17;
  return x;
}

/// Read-only after its first use, so threads share it without races.
const std::vector<std::uint64_t>& Table() {
  static const std::vector<std::uint64_t> table = [] {
    std::vector<std::uint64_t> t(kTableWords);
    std::uint64_t x = 0x2545F4914F6CDD1Dull;
    for (auto& w : t) w = XorShift(x);
    return t;
  }();
  return table;
}

}  // namespace

double ReferenceMs() {
  // The mix mirrors a discrete-event simulator's hot path: a timed event
  // heap, dependent random reads over a few MiB, and small short-lived
  // blocks (malloc, not operator new, which the benchmark counts).
  const std::vector<std::uint64_t>& table = Table();
  using Event = std::pair<std::uint64_t, std::uint32_t>;
  const auto later = std::greater<>{};

  const auto t0 = Clock::now();
  std::array<Event, kPending> heap;
  std::uint64_t x = 0x9E3779B97F4A7C15ull;
  for (std::uint32_t i = 0; i < kPending; ++i) {
    heap[i] = {XorShift(x) % 1000, i};
  }
  std::make_heap(heap.begin(), heap.end(), later);
  std::uint64_t acc = 0;
  for (int i = 0; i < kSteps; ++i) {
    std::pop_heap(heap.begin(), heap.end(), later);
    Event& e = heap.back();
    const std::uint64_t r = XorShift(x);
    acc += table[(r ^ acc ^ e.second) & (kTableWords - 1)];
    auto* block = static_cast<std::uint64_t*>(
        std::malloc(sizeof(std::uint64_t) * (2 + (r & 7))));
    block[0] = acc;
    acc = block[0] + e.first;
    std::free(block);
    e.first += 1 + r % 1000;
    std::push_heap(heap.begin(), heap.end(), later);
  }
  t_sink = acc;
  const double s = SecondsSince(t0);
  t_reference_s += s;
  return s * 1e3;
}

double ReferenceSecondsOnThread() { return t_reference_s; }

double HostFactor(std::vector<double> samples_ms) {
  if (samples_ms.empty()) return 1;
  const auto mid = samples_ms.begin() + samples_ms.size() / 2;
  std::nth_element(samples_ms.begin(), mid, samples_ms.end());
  double median = *mid;
  if (samples_ms.size() % 2 == 0) {
    median = (median + *std::max_element(samples_ms.begin(), mid)) / 2;
  }
  return kNominalReferenceMs / median;
}

}  // namespace grunt::perfbench
