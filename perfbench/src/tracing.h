#pragma once

// Outside-in spans for the traced benchmark run. Every span is opened by the
// benchmark's own code around one call into a program module (a setup call,
// a RunUntil slice, Cluster::Submit, a TargetClient Send or callback, an
// executor job), so the program itself carries no instrumentation.
//
// Spans nest per thread. When a span closes its duration is charged to its
// parent's child time, so each span name accumulates both total and self
// time (self = duration minus the part its child spans cover). Finished
// spans are kept in memory, up to a cap, and written at exit as Chrome
// trace-event JSON (Perfetto and chrome://tracing open it).
//
// Disabled — the default, and every end-to-end measurement — a Span costs
// one branch on a global flag.

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace grunt::perfbench {

using Clock = std::chrono::steady_clock;

inline double SecondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Aggregate of every finished span of one name.
struct SpanStats {
  std::uint64_t count = 0;
  double total_ms = 0;
  double self_ms = 0;
  std::vector<float> durations_us;  ///< one per span, for percentiles
};

class Tracer {
 public:
  static void Enable(bool on);
  static bool enabled() { return enabled_; }
  /// Run id stamped on spans opened from now on (one per measured pass).
  static void SetRun(std::uint32_t run);

  /// Moves the calling thread's finished spans into the shared store. Call
  /// it at the end of every unit of work on a thread that will not be read
  /// from directly (executor jobs) and before TakeStats on the main thread.
  static void FlushThread();
  /// Per-name aggregates flushed since the previous call; clears them.
  static std::map<std::string, SpanStats> TakeStats();
  /// Spans kept for the trace file so far (at most kMaxKeptSpans).
  static std::size_t kept_spans();
  /// Writes the kept spans as Chrome trace-event JSON; false on I/O error.
  static bool WriteChromeTrace(const std::string& path);

  static constexpr std::size_t kMaxKeptSpans = 100'000;

 private:
  static inline bool enabled_ = false;
};

/// RAII span around one outside call. Names must be string literals.
class Span {
 public:
  explicit Span(const char* name) {
    if (Tracer::enabled()) Begin(name);
  }
  ~Span() {
    if (open_) End();
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  void Begin(const char* name);
  void End();
  bool open_ = false;
};

}  // namespace grunt::perfbench
