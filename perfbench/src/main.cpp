// grunt_perfbench: the repo benchmark's measuring binary. run.py builds it
// and calls it once per run:
//
//   grunt_perfbench --workload campaign_social|defended_overload|profile_sweep
//                   --seed N --seconds S [--trace 0|1] [--trace-out FILE]
//                   [--slice-ms MS] [--passes P] [--reduced]
//   grunt_perfbench --crosscheck --seed N
//
// It repeats passes of the workload (workloads.h) until S seconds have
// passed (or exactly P passes), then prints one JSON object on stdout: the
// end-to-end metrics (untraced passes), the per-layer metrics (traced
// passes, with --trace 1), the checks attempted and failed, the pass digest
// and the simulated reference results. With --trace 1 the first half of the
// budget runs untraced and the second half traced, which yields the tracing
// overhead and keeps the exact allocation counts free of tracer allocations.
// End-to-end host times are given at the nominal speed of a fixed reference
// computation sampled during each pass (host_speed.h); the measured rate and
// wall time are printed beside them.
//
// --crosscheck runs the campaign_social campaign and the bench suite's
// socialnetwork_campaign job at one seed and exits 0 only when their Table I
// results are byte-identical.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "campaign_jobs.h"
#include "dist/campaign_executor.h"
#include "dist/job_registry.h"
#include "host_speed.h"
#include "tracing.h"
#include "util/json.h"
#include "workloads.h"

namespace {

using namespace grunt;
using namespace grunt::perfbench;

/// profile_sweep's fixed executor width (clamped to the core count).
constexpr unsigned kSweepWorkers = 2;

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  bool have_seed = false;
  double seconds = 10;
  bool trace = false;
  std::string trace_out;
  double slice_ms = 1000;
  int passes = 0;  ///< 0: run for `seconds`
  bool reduced = false;
  bool crosscheck = false;
};

[[noreturn]] void Usage(const char* msg) {
  std::fprintf(stderr,
               "grunt_perfbench: %s\nusage: grunt_perfbench --workload "
               "campaign_social|defended_overload|profile_sweep --seed N "
               "--seconds S [--trace 0|1] [--trace-out FILE] [--slice-ms MS] "
               "[--passes P] [--reduced]\n       grunt_perfbench --crosscheck "
               "--seed N\n",
               msg);
  std::exit(2);
}

Args Parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) Usage(("missing value for " + flag).c_str());
      return argv[++i];
    };
    try {
      if (flag == "--workload") {
        a.workload = value();
      } else if (flag == "--seed") {
        a.seed = std::stoull(value());
        a.have_seed = true;
      } else if (flag == "--seconds") {
        a.seconds = std::stod(value());
      } else if (flag == "--trace") {
        a.trace = std::stoi(value()) != 0;
      } else if (flag == "--trace-out") {
        a.trace_out = value();
      } else if (flag == "--slice-ms") {
        a.slice_ms = std::stod(value());
      } else if (flag == "--passes") {
        a.passes = std::stoi(value());
      } else if (flag == "--reduced") {
        a.reduced = true;
      } else if (flag == "--crosscheck") {
        a.crosscheck = true;
      } else {
        Usage(("unknown flag " + flag).c_str());
      }
    } catch (const std::logic_error&) {
      Usage(("bad value for " + flag).c_str());
    }
  }
  if (!a.have_seed) Usage("--seed is required");
  if (a.slice_ms <= 0 || std::fmod(10'000.0, a.slice_ms) != 0) {
    Usage("--slice-ms must divide 10000");
  }
  if (!a.crosscheck && a.workload != "campaign_social" &&
      a.workload != "defended_overload" && a.workload != "profile_sweep") {
    Usage("unknown --workload");
  }
  return a;
}

/// Linear-interpolated percentile (numpy's default), p in [0, 100].
double Percentile(std::vector<double> xs, double p) {
  if (xs.empty()) return 0;
  std::sort(xs.begin(), xs.end());
  const double rank = p / 100.0 * static_cast<double>(xs.size() - 1);
  const auto lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, xs.size() - 1);
  return xs[lo] + (xs[hi] - xs[lo]) * (rank - static_cast<double>(lo));
}

double Median(std::vector<double> xs) { return Percentile(std::move(xs), 50); }

double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0;
}

double Get(const std::map<std::string, double>& m, const std::string& k) {
  const auto it = m.find(k);
  return it == m.end() ? 0 : it->second;
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

/// One traced pass's per-layer values (before the median across passes).
std::map<std::string, double> LayerValues(
    const PassResult& p, const std::map<std::string, SpanStats>& spans) {
  const auto& c = p.counters;
  const auto self = [&](const char* name) {
    const auto it = spans.find(name);
    return it == spans.end() ? 0.0 : it->second.self_ms;
  };
  const auto total = [&](const char* name) {
    const auto it = spans.find(name);
    return it == spans.end() ? 0.0 : it->second.total_ms;
  };
  std::uint64_t span_count = 0;
  for (const auto& [name, st] : spans) span_count += st.count;
  const double completed = Get(c, "microsvc.completed");
  const double sims = static_cast<double>(p.setup_s.size());
  const double tp = Get(c, "profiler.tp"), fp = Get(c, "profiler.fp"),
               fn = Get(c, "profiler.fn");
  const bool profiled = tp + fp + fn > 0;
  return {
      {"sim.events_per_req", Ratio(Get(c, "sim.events"), completed)},
      {"sim.heap_callbacks", Get(c, "sim.heap_callbacks")},
      {"sim.cancelled", Get(c, "sim.cancelled")},
      {"sim.wheel_scheduled", Get(c, "sim.wheel_scheduled")},
      {"sim.wheel_cascades", Get(c, "sim.wheel_cascades")},
      {"sim.lane_scheduled", Get(c, "sim.lane_scheduled")},
      {"run.self_ms", self("sim.run_until") + self("sim.run_all")},
      {"microsvc.calls_per_req", Ratio(Get(c, "microsvc.calls"), completed)},
      {"microsvc.hops_per_req", Ratio(Get(c, "microsvc.hops"), completed)},
      {"microsvc.ok_ratio", Ratio(Get(c, "microsvc.ok"), completed)},
      {"microsvc.timeouts", Get(c, "microsvc.timeouts")},
      {"microsvc.rejects", Get(c, "microsvc.rejects")},
      {"microsvc.sheds", Get(c, "microsvc.sheds")},
      {"microsvc.pool_high_water", Get(c, "microsvc.pool_high_water")},
      {"workload.submits", Get(c, "workload.submits")},
      {"workload.gen_ms", Get(c, "workload.gen_ms")},
      {"cloud.samples", Get(c, "cloud.samples")},
      {"cloud.scale_actions", Get(c, "cloud.scale_actions")},
      {"cloud.ids_alerts", Get(c, "cloud.ids_alerts")},
      {"attack.callback_ms", self("attack.callback")},
      {"attack.sends", Get(c, "attack.sends")},
      {"attack.ok_ratio", Ratio(Get(c, "attack.ok_responses"),
                                Get(c, "attack.responses"))},
      {"attack.prep_sim_s", Get(c, "attack.prep_sim_s")},
      {"attack.prep_host_s", Get(c, "attack.prep_host_s")},
      {"attack.burst_host_s", Get(c, "attack.burst_host_s")},
      {"profiler.pairs", Get(c, "profiler.pairs")},
      {"profiler.volumes", Get(c, "profiler.volumes")},
      {"profiler.precision", profiled ? Ratio(tp, tp + fp) : 0},
      {"profiler.recall", profiled ? Ratio(tp, tp + fn) : 0},
      {"trace.truth_ms", total("trace.truth")},
      {"setup.app_ms", Ratio(Get(p.setup_ms, "setup.app_ms"), sims)},
      {"setup.cluster_ms", Ratio(Get(p.setup_ms, "setup.cluster_ms"), sims)},
      {"setup.operators_ms",
       Ratio(Get(p.setup_ms, "setup.operators_ms"), sims)},
      {"dist.busy_ratio", Get(c, "dist.busy_ratio")},
      {"dist.steals", Get(c, "dist.steals")},
      {"dist.dispatch_ms", Get(c, "dist.dispatch_ms")},
      {"dist.codec_ms", Get(c, "dist.codec_ms")},
      {"tracing.spans", static_cast<double>(span_count)},
  };
}

std::string CpuModel() {
  std::ifstream cpuinfo("/proc/cpuinfo");
  std::string line;
  while (std::getline(cpuinfo, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

int Crosscheck(const Args& a) {
  Options opt;
  opt.seed = a.seed;
  const std::string ours = CampaignResultJson(opt);
  bench::RegisterCampaignJobs();
  json::Value args = bench::SettingToJson(bench::PaperSettings().front());
  args.Set("attack_sec", json::Value(std::int64_t{60}));
  const std::string theirs =
      dist::RunRegisteredJob("socialnetwork_campaign", args, a.seed).Dump(0);
  const bool same = ours == theirs;
  json::Object o;
  o.emplace_back("crosscheck", same ? "match" : "mismatch");
  o.emplace_back("seed", static_cast<std::int64_t>(a.seed));
  o.emplace_back("bytes", static_cast<std::int64_t>(ours.size()));
  std::printf("%s\n", json::Value(std::move(o)).Dump(0).c_str());
  return same ? 0 : 1;
}

int Run(const Args& a) {
  Options opt;
  opt.seed = a.seed;
  opt.slice = static_cast<SimDuration>(a.slice_ms * 1000.0);
  opt.reduced = a.reduced;
  std::unique_ptr<dist::CampaignExecutor> executor;
  if (a.workload == "profile_sweep") {
    RegisterSweepJob();
    const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
    opt.workers = std::min(kSweepWorkers, hw);
    dist::ExecutorConfig cfg;
    cfg.backend = dist::Backend::kThread;
    cfg.workers = opt.workers;
    executor = std::make_unique<dist::CampaignExecutor>(cfg);
    opt.executor = executor.get();
  }
  const auto run_pass = [&]() -> PassResult {
    if (a.workload == "campaign_social") return RunCampaignSocial(opt);
    if (a.workload == "defended_overload") return RunDefendedOverload(opt);
    return RunProfileSweep(opt);
  };

  std::vector<PassResult> plain, traced;
  ReferenceMs();  // builds its table outside every counted window
  std::vector<std::map<std::string, SpanStats>> traced_spans;
  double peak_rss_mb = 0;
  const auto t0 = Clock::now();
  const double untraced_budget = a.trace ? a.seconds / 2 : a.seconds;
  const int untraced_passes = a.trace ? (a.passes + 1) / 2 : a.passes;
  while (plain.empty() ||
         (a.passes > 0 ? static_cast<int>(plain.size()) < untraced_passes
                       : SecondsSince(t0) < untraced_budget)) {
    plain.push_back(run_pass());
    // One pass is one campaign, overload run or sweep; later passes reuse
    // the freed heap, so their peak depends on fragmentation, not the code.
    if (plain.size() == 1) peak_rss_mb = PeakRssMb();
  }
  if (a.trace) {
    Tracer::Enable(true);
    while (traced.empty() ||
           (a.passes > 0 ? static_cast<int>(plain.size() + traced.size()) <
                               a.passes
                         : SecondsSince(t0) < a.seconds)) {
      Tracer::SetRun(static_cast<std::uint32_t>(traced.size() + 1));
      traced.push_back(run_pass());
      Tracer::FlushThread();
      traced_spans.push_back(Tracer::TakeStats());
    }
    Tracer::Enable(false);
  }

  // ---- correctness: every check of every pass, plus digest agreement.
  std::int64_t attempted = 0;
  std::vector<std::string> failures;
  const std::string digest = plain.front().digest;
  const std::string pinned = PinnedDigest(a.workload, a.seed, a.reduced);
  std::vector<const PassResult*> all;
  for (const auto& p : plain) all.push_back(&p);
  for (const auto& p : traced) all.push_back(&p);
  for (const PassResult* p : all) {
    attempted += p->checks + 1;
    failures.insert(failures.end(), p->failures.begin(), p->failures.end());
    if (p->digest != digest) {
      failures.push_back("pass digest " + p->digest + " != first pass " +
                         digest);
    }
  }
  if (!pinned.empty()) {
    ++attempted;
    if (digest != pinned) {
      failures.push_back("digest " + digest + " != pinned " + pinned);
    }
  }

  // ---- end-to-end metrics, untraced passes only: medians over passes,
  // pooled over slices and simulations where a pass has many. Host times
  // are at the speed reference's nominal speed (host_speed.h); the measured
  // rate and wall time are kept beside them as "end_to_end_raw".
  std::vector<double> req_per_s, sweep_s, slices, jobs, setups;
  std::vector<double> host_factor, raw_req_per_s, raw_sweep_s, reference_ms;
  for (const auto& p : plain) {
    req_per_s.push_back(Ratio(static_cast<double>(p.completed), p.timed_s));
    sweep_s.push_back(p.wall_s);
    slices.insert(slices.end(), p.slice_ms.begin(), p.slice_ms.end());
    jobs.insert(jobs.end(), p.job_s.begin(), p.job_s.end());
    setups.insert(setups.end(), p.setup_s.begin(), p.setup_s.end());
    host_factor.push_back(p.host_factor);
    raw_req_per_s.push_back(req_per_s.back() * p.host_factor);
    raw_sweep_s.push_back(p.wall_s / p.host_factor);
    reference_ms.insert(reference_ms.end(), p.ref_ms.begin(), p.ref_ms.end());
  }
  json::Object e2e;
  e2e.emplace_back("req_per_s", Median(req_per_s));
  e2e.emplace_back("slice_ms.p50", Percentile(slices, 50));
  e2e.emplace_back("slice_ms.p99", Percentile(slices, 99));
  e2e.emplace_back("sweep_s", Median(sweep_s));
  e2e.emplace_back("job_s.p50", Median(jobs));
  e2e.emplace_back("setup_s", Median(setups));
  json::Object raw;
  raw.emplace_back("req_per_s", Median(raw_req_per_s));
  raw.emplace_back("sweep_s", Median(raw_sweep_s));
  raw.emplace_back("host_factor", Median(host_factor));

  const auto list = [](const std::vector<double>& xs) {
    json::Array arr;
    for (const double x : xs) arr.push_back(json::Value(x));
    return json::Value(std::move(arr));
  };
  json::Object samples;
  samples.emplace_back("passes", static_cast<std::int64_t>(plain.size()));
  samples.emplace_back("traced_passes",
                       static_cast<std::int64_t>(traced.size()));
  samples.emplace_back("slices", static_cast<std::int64_t>(slices.size()));
  samples.emplace_back("jobs", static_cast<std::int64_t>(jobs.size()));
  samples.emplace_back("setups", static_cast<std::int64_t>(setups.size()));
  samples.emplace_back("pass_req_per_s", list(req_per_s));
  samples.emplace_back("pass_wall_s", list(sweep_s));
  samples.emplace_back("first_pass_job_s", list(plain.front().job_s));
  samples.emplace_back("pass_host_factor", list(host_factor));

  json::Object out;
  out.emplace_back("workload", a.workload);
  out.emplace_back("seed", static_cast<std::int64_t>(a.seed));
  out.emplace_back("attempted", attempted);
  out.emplace_back("failed", static_cast<std::int64_t>(failures.size()));
  json::Array failure_lines;
  for (std::size_t i = 0; i < failures.size() && i < 20; ++i) {
    failure_lines.push_back(json::Value(failures[i]));
  }
  out.emplace_back("failures", json::Value(std::move(failure_lines)));
  out.emplace_back("digest", digest);
  out.emplace_back("pinned_digest", pinned);
  out.emplace_back("end_to_end", json::Value(std::move(e2e)));
  out.emplace_back("end_to_end_raw", json::Value(std::move(raw)));
  out.emplace_back("samples", json::Value(std::move(samples)));
  json::Object reference;
  for (const auto& [k, v] : plain.front().reference) {
    reference.emplace_back(k, v);
  }
  out.emplace_back("reference", json::Value(std::move(reference)));
  out.emplace_back("workers", static_cast<std::int64_t>(opt.workers));
  out.emplace_back("cpu_model", CpuModel());
  const auto hw_threads = std::thread::hardware_concurrency();
  out.emplace_back("hardware_threads", static_cast<std::int64_t>(hw_threads));

  if (a.trace) {
    std::map<std::string, std::vector<double>> per_pass;
    for (std::size_t i = 0; i < traced.size(); ++i) {
      for (const auto& [k, v] : LayerValues(traced[i], traced_spans[i])) {
        per_pass[k].push_back(v);
      }
    }
    json::Object layer;
    for (const auto& [k, v] : per_pass) layer.emplace_back(k, Median(v));
    // Latency distributions pool every traced pass's spans.
    const auto pooled = [&](const char* name, double pct) {
      std::vector<double> xs;
      for (const auto& spans : traced_spans) {
        const auto it = spans.find(name);
        if (it == spans.end()) continue;
        xs.insert(xs.end(), it->second.durations_us.begin(),
                  it->second.durations_us.end());
      }
      return Percentile(std::move(xs), pct);
    };
    layer.emplace_back("microsvc.submit_us.p50", pooled("microsvc.submit", 50));
    layer.emplace_back("microsvc.submit_us.p99", pooled("microsvc.submit", 99));
    layer.emplace_back("attack.send_us.p50", pooled("attack.send", 50));
    // Exact allocation counts come from the untraced passes, because the
    // tracer itself allocates.
    std::vector<double> alloc_per_req, alloc_setup;
    for (const auto& p : plain) {
      alloc_per_req.push_back(Ratio(Get(p.counters, "alloc.run"),
                                    Get(p.counters, "microsvc.completed")));
      alloc_setup.push_back(Get(p.counters, "alloc.setup"));
    }
    layer.emplace_back("alloc.per_req", Median(alloc_per_req));
    layer.emplace_back("alloc.setup", Median(alloc_setup));
    // Ungated: in profile_sweep the peak depends on which cells happen to
    // overlap in time, so it is not steady enough to bound.
    layer.emplace_back("host.peak_rss_mb", peak_rss_mb);
    layer.emplace_back("host.reference_ms", Median(reference_ms));
    std::vector<double> traced_rps;
    for (const auto& p : traced) {
      traced_rps.push_back(Ratio(static_cast<double>(p.completed), p.timed_s));
    }
    const double untraced_rps = Median(req_per_s);
    const double traced_rps_med = Median(traced_rps);
    layer.emplace_back("tracing.req_per_s", traced_rps_med);
    layer.emplace_back("tracing.overhead_pct",
                       traced_rps_med > 0
                           ? 100.0 * (untraced_rps / traced_rps_med - 1.0)
                           : 0.0);
    out.emplace_back("per_layer", json::Value(std::move(layer)));
    out.emplace_back("spans_kept",
                     static_cast<std::int64_t>(Tracer::kept_spans()));
    if (!a.trace_out.empty()) {
      const bool ok = Tracer::WriteChromeTrace(a.trace_out);
      out.emplace_back("trace_file", ok ? a.trace_out : "");
    }
  }
  std::printf("%s\n", json::Value(std::move(out)).Dump(0).c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const Args a = Parse(argc, argv);
  try {
    return a.crosscheck ? Crosscheck(a) : Run(a);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "grunt_perfbench: %s\n", e.what());
    return 1;
  }
}
