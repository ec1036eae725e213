#!/usr/bin/env python3
"""The repo benchmark: one command per run of one workload.

    python3 perfbench/run.py --workload campaign_social --seed 1 \
        --seconds 30 --trace 0

Run it from the root of a checkout. It builds the simulator and the
grunt_perfbench binary from source with CMake (into $CARGO_TARGET_DIR, else
.bench_build, under the checkout), runs the workload for --seconds of host
time, prints a human-readable report, and ends with one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are BENCHMARK.json's end_to_end list, measured
with tracing off and given at the nominal speed of a host-speed reference
(src/host_speed.h); with --trace 1 they are its per_layer list, from traced
passes, and a Chrome trace-event file is written next to the build. The full
result and the run manifest (compiler, build type, cores, CPU, seeds,
worker count, revision) are saved under <build>/perfbench-results/.

--all runs every workload on its default seed (or --seed) with tracing off
and on, and prints the tracing overhead; it is the one-command overview.
"""

import argparse
import hashlib
import json
import math
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_TYPE = "RelWithDebInfo"
RUN_TIMEOUT_S = 170
# Default seeds. campaign_social's Table I seed (8000) is cross-checked
# against the bench suite's campaign job by selftest.py (see NOTES.md).
DEFAULT_SEEDS = {"campaign_social": 1, "defended_overload": 1,
                 "profile_sweep": 1}


def die(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def load_spec():
    path = os.path.join(ROOT, "BENCHMARK.json")
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        die(f"cannot read {path}: {e}")


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, base, "perfbench")


def build():
    """Configures once and builds grunt_perfbench; returns the binary path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        die(f"no simulator sources under {ROOT}/src")
    if shutil.which("cmake") is None:
        die("cmake not found")
    out = build_dir()
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", out,
               f"-DCMAKE_BUILD_TYPE={BUILD_TYPE}"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            shutil.rmtree(out, ignore_errors=True)
            die("cmake configure failed")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    cmd = ["cmake", "--build", out, "--target", "grunt_perfbench", "-j", jobs]
    if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
        die("build failed")
    return os.path.join(out, "grunt_perfbench")


def cache_value(key):
    try:
        with open(os.path.join(build_dir(), "CMakeCache.txt")) as f:
            for line in f:
                if line.startswith(key + ":"):
                    return line.split("=", 1)[1].strip()
    except OSError:
        pass
    return ""


def source_digest():
    """sha256 over the sources the binary is built from (a checkout need not
    be a git repository, so this stands in for the revision)."""
    h = hashlib.sha256()
    for top in ("src", "bench", "specs", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()[:16]


def git_revision():
    if not os.path.isdir(os.path.join(ROOT, ".git")) or not shutil.which("git"):
        return "none (not a git checkout)"
    r = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                       capture_output=True, text=True)
    return r.stdout.strip() if r.returncode == 0 else "unknown"


def manifest(result, args):
    compiler = cache_value("CMAKE_CXX_COMPILER")
    version = ""
    if compiler:
        r = subprocess.run([compiler, "--version"], capture_output=True,
                           text=True)
        version = r.stdout.splitlines()[0] if r.stdout else ""
    return {
        "compiler": compiler,
        "compiler_version": version,
        "build_type": cache_value("CMAKE_BUILD_TYPE"),
        "nproc": os.cpu_count(),
        "cpu_model": result.get("cpu_model", ""),
        "workload": args.workload,
        "seed": args.seed,
        "default_seeds": DEFAULT_SEEDS,
        "seconds": args.seconds,
        "trace": args.trace,
        "profile_sweep_workers": result.get("workers"),
        "git_revision": git_revision(),
        "source_digest": source_digest(),
    }


def run_binary(binary, workload, seed, seconds, trace, extra=()):
    """Runs one grunt_perfbench invocation; returns (result, error)."""
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace), *extra]
    try:
        r = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                           text=True, timeout=RUN_TIMEOUT_S, cwd=ROOT)
    except subprocess.TimeoutExpired:
        return None, "timeout"
    lines = r.stdout.strip().splitlines()
    if r.returncode != 0 or not lines:
        return None, f"exit code {r.returncode}"
    try:
        return json.loads(lines[-1]), None
    except ValueError:
        return None, "unparseable output"


def report(result, metrics, trace):
    s = result["samples"]
    print(f"perfbench {result['workload']} seed={result['seed']} "
          f"trace={trace}: {s['passes']} untraced + {s['traced_passes']} "
          f"traced passes; samples: {s['slices']} slices, {s['jobs']} "
          f"simulations, {s['setups']} setups; profile_sweep workers: "
          f"{result['workers']}")
    for name, m in metrics.items():
        print(f"  {name:28s} {m['value']:>16.6g} {m['unit']}")
    if not trace:
        raw = result["end_to_end_raw"]
        print(f"  (host times at the speed reference's nominal speed; measured: "
              f"req_per_s {raw['req_per_s']:.6g} 1/s, sweep_s "
              f"{raw['sweep_s']:.6g} s, host speed factor "
              f"{raw['host_factor']:.3f})")
    if trace:
        overhead = result["per_layer"].get("tracing.overhead_pct", 0.0)
        print(f"  tracing overhead: untraced vs traced req_per_s "
              f"{overhead:+.1f}%  (trace file: {result.get('trace_file', '')})")
    print("  reference (simulated, must stay bit-identical):")
    for k, v in result["reference"].items():
        print(f"    {k:26s} {v:.6g}")
    print(f"  digest {result['digest']}"
          + (f" (pinned {result['pinned_digest']})"
             if result["pinned_digest"] else ""))
    print(f"  checks: attempted {result['attempted']}, "
          f"failed {result['failed']}")
    for line in result["failures"]:
        print(f"    FAILED: {line}")


def one_run(spec, binary, args):
    names = {w["name"] for w in spec["workloads"]}
    if args.workload not in names:
        die(f"unknown workload {args.workload!r}; choose from {sorted(names)}")
    out_dir = os.path.join(build_dir(), "perfbench-results")
    os.makedirs(out_dir, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    extra = []
    if args.trace:
        extra = ["--trace-out", os.path.join(out_dir, stem + ".trace.json")]
    result, error = run_binary(binary, args.workload, args.seed, args.seconds,
                               args.trace, extra)
    if result is None:
        die(f"grunt_perfbench failed: {error}")

    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    source = result["per_layer"] if args.trace else result["end_to_end"]
    metrics, missing = {}, []
    for m in wanted:
        value = source.get(m["name"])
        if value is None or not math.isfinite(value):
            missing.append(m["name"])
            continue
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
    failed = result["failed"] + len(missing)
    attempted = result["attempted"] + len(wanted)
    if not args.trace:
        # End-to-end metrics are never 0: a zero means nothing was measured.
        bad = [n for n, m in metrics.items() if not m["value"] > 0]
        failed += len(bad)
        missing += bad

    report(result, metrics, args.trace)
    for name in missing:
        print(f"    FAILED: metric {name} missing or not positive")
    with open(os.path.join(out_dir, stem + ".json"), "w") as f:
        json.dump({"manifest": manifest(result, args), "result": result}, f,
                  indent=1)
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))


def all_workloads(spec, binary, args):
    """One-command overview: every workload, untraced then traced."""
    total_failed = 0
    for w in spec["workloads"]:
        seed = args.seed if args.seed is not None else DEFAULT_SEEDS[w["name"]]
        for trace in (0, 1):
            print(f"==== {w['name']} (trace {trace}) — {w['why']}")
            sys.stdout.flush()
            r = subprocess.run([sys.executable, __file__, "--workload",
                                w["name"], "--seed", str(seed),
                                "--seconds", str(args.seconds),
                                "--trace", str(trace)],
                               stdout=subprocess.PIPE, text=True)
            lines = r.stdout.strip().splitlines()
            print("\n".join(lines[:-1]))
            last = json.loads(lines[-1]) if r.returncode == 0 else None
            total_failed += 1 if last is None else last["failed"]
    print(json.dumps({"all_workloads_failed": total_failed}))
    sys.exit(0 if total_failed == 0 else 1)


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload")
    p.add_argument("--seed", type=int)
    p.add_argument("--seconds", type=float)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--all", action="store_true",
                   help="run every workload, untraced and traced")
    args = p.parse_args()
    spec = load_spec()
    if args.seconds is None:
        args.seconds = spec["run_seconds"]
    binary = build()
    if args.all:
        all_workloads(spec, binary, args)
        return
    if not args.workload:
        die("--workload is required (or --all)")
    if args.seed is None:
        args.seed = DEFAULT_SEEDS.get(args.workload, 1)
    one_run(spec, binary, args)


if __name__ == "__main__":
    main()
