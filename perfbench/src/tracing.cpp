#include "tracing.h"

#include <atomic>
#include <cstdio>
#include <mutex>

namespace grunt::perfbench {

namespace {

const Clock::time_point kEpoch = Clock::now();

std::int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              kEpoch)
      .count();
}

struct Record {
  const char* name;
  std::int64_t start_ns;
  std::int64_t dur_ns;
  std::uint32_t id;
  std::uint32_t parent;  ///< 0: root span of its thread
  std::uint32_t tid;
  std::uint32_t run;
};

struct Open {
  const char* name;
  std::int64_t start_ns;
  std::int64_t child_ns;
  std::uint32_t id;
};

std::atomic<std::uint32_t> g_next_span_id{1};
std::atomic<std::uint32_t> g_next_tid{1};
std::atomic<std::uint32_t> g_run{0};

struct Shared {
  std::mutex mu;
  std::map<std::string, SpanStats> stats;  // guarded by mu
  std::vector<Record> kept;                // guarded by mu
};

Shared& shared() {
  static Shared s;
  return s;
}

struct ThreadState {
  std::uint32_t tid = g_next_tid.fetch_add(1);
  std::vector<Open> stack;
  std::vector<Record> records;
  // Keyed by the literal's address: one name is one literal in practice,
  // and FlushThread merges by string anyway.
  std::map<const char*, SpanStats> stats;
};

thread_local ThreadState t_state;

}  // namespace

void Tracer::Enable(bool on) { enabled_ = on; }

void Tracer::SetRun(std::uint32_t run) { g_run.store(run); }

void Span::Begin(const char* name) {
  open_ = true;
  t_state.stack.push_back(Open{name, NowNs(), 0, g_next_span_id.fetch_add(1)});
}

void Span::End() {
  const std::int64_t end = NowNs();
  ThreadState& ts = t_state;
  const Open open = ts.stack.back();
  ts.stack.pop_back();
  const std::int64_t dur = end - open.start_ns;
  std::uint32_t parent = 0;
  if (!ts.stack.empty()) {
    ts.stack.back().child_ns += dur;
    parent = ts.stack.back().id;
  }
  SpanStats& st = ts.stats[open.name];
  st.count += 1;
  st.total_ms += static_cast<double>(dur) * 1e-6;
  st.self_ms += static_cast<double>(dur - open.child_ns) * 1e-6;
  st.durations_us.push_back(
      static_cast<float>(static_cast<double>(dur) * 1e-3));
  if (ts.records.size() < Tracer::kMaxKeptSpans) {
    ts.records.push_back(Record{open.name, open.start_ns, dur, open.id, parent,
                                ts.tid, g_run.load(std::memory_order_relaxed)});
  }
}

void Tracer::FlushThread() {
  ThreadState& ts = t_state;
  Shared& sh = shared();
  std::lock_guard<std::mutex> lock(sh.mu);
  for (auto& [name, st] : ts.stats) {
    SpanStats& dst = sh.stats[name];
    dst.count += st.count;
    dst.total_ms += st.total_ms;
    dst.self_ms += st.self_ms;
    dst.durations_us.insert(dst.durations_us.end(), st.durations_us.begin(),
                            st.durations_us.end());
  }
  ts.stats.clear();
  for (const Record& r : ts.records) {
    if (sh.kept.size() >= Tracer::kMaxKeptSpans) break;
    sh.kept.push_back(r);
  }
  ts.records.clear();
}

std::map<std::string, SpanStats> Tracer::TakeStats() {
  Shared& sh = shared();
  std::lock_guard<std::mutex> lock(sh.mu);
  std::map<std::string, SpanStats> out;
  out.swap(sh.stats);
  return out;
}

std::size_t Tracer::kept_spans() {
  Shared& sh = shared();
  std::lock_guard<std::mutex> lock(sh.mu);
  return sh.kept.size();
}

bool Tracer::WriteChromeTrace(const std::string& path) {
  Shared& sh = shared();
  std::lock_guard<std::mutex> lock(sh.mu);
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fputs("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n", f);
  bool first = true;
  for (const Record& r : sh.kept) {
    // Complete events ("ph":"X"), microsecond timestamps. pid is the run
    // (one measured pass), so Perfetto groups each pass as one process.
    std::fprintf(f,
                 "%s{\"name\":\"%s\",\"ph\":\"X\",\"ts\":%.3f,\"dur\":%.3f,"
                 "\"pid\":%u,\"tid\":%u,\"args\":{\"id\":%u,\"parent\":%u}}",
                 first ? "" : ",\n", r.name,
                 static_cast<double>(r.start_ns) * 1e-3,
                 static_cast<double>(r.dur_ns) * 1e-3, r.run, r.tid, r.id,
                 r.parent);
    first = false;
  }
  std::fputs("\n]}\n", f);
  return std::fclose(f) == 0;
}

}  // namespace grunt::perfbench
