#!/usr/bin/env python3
"""Self-test of the repo benchmark. Run from the checkout root:

    python3 perfbench/selftest.py

Builds grunt_perfbench (as run.py does) and checks, per workload, on a
reduced run (one pass; a shorter overload profile and a one-cell sweep):

  * one seed gives the same digest twice, another seed a different one;
  * the digest does not depend on the slice length (1 s vs 250 ms);
  * a traced pass gives the same digest as an untraced one;
  * the default seed passes every check, pinned digest included (full size);

and across the benchmark:

  * campaign_social at Table I's EC2-7K seed (8000) reproduces the bench
    suite's socialnetwork_campaign job byte for byte;
  * run.py prints every BENCHMARK.json metric by name with its unit, for
    --trace 0 and --trace 1, and reports zero failed operations.

Exits 0 when everything holds, 1 otherwise.
"""

import json
import os
import subprocess
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402  (the benchmark's entry point)

OTHER_SEED = 7
failures = []


def check(ok, what):
    print(("ok    " if ok else "FAIL  ") + what, flush=True)
    if not ok:
        failures.append(what)


def pass_result(binary, workload, seed, *extra):
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", "1", "--passes", "1", *extra]
    r = subprocess.run(cmd, capture_output=True, text=True, cwd=run.ROOT,
                       timeout=run.RUN_TIMEOUT_S)
    if r.returncode != 0:
        return {"digest": f"<exit {r.returncode}: {r.stderr.strip()}>",
                "failed": 1, "failures": [r.stderr.strip()]}
    return json.loads(r.stdout.strip().splitlines()[-1])


def workload_checks(binary, workload):
    reduced = [] if workload == "campaign_social" else ["--reduced"]
    seed = run.DEFAULT_SEEDS[workload]
    a = pass_result(binary, workload, seed, *reduced)
    check(a["failed"] == 0, f"{workload}: reduced pass has no failed check "
          f"{a['failures']}")
    b = pass_result(binary, workload, seed, *reduced)
    check(a["digest"] == b["digest"],
          f"{workload}: seed {seed} repeats its digest {a['digest']}")
    c = pass_result(binary, workload, OTHER_SEED, *reduced)
    check(c["digest"] != a["digest"],
          f"{workload}: seed {OTHER_SEED} gives another digest {c['digest']}")
    d = pass_result(binary, workload, seed, "--slice-ms", "250", *reduced)
    check(d["digest"] == a["digest"],
          f"{workload}: 250 ms slices give the same digest {d['digest']}")
    # Two passes, the second traced: the binary fails the run if their
    # digests differ.
    cmd = [binary, "--workload", workload, "--seed", str(seed), "--seconds",
           "1", "--passes", "2", "--trace", "1", *reduced]
    r = subprocess.run(cmd, capture_output=True, text=True, cwd=run.ROOT,
                       timeout=run.RUN_TIMEOUT_S)
    t = json.loads(r.stdout.strip().splitlines()[-1]) if r.returncode == 0 \
        else {"failed": 1, "failures": [r.stderr.strip()]}
    check(t["failed"] == 0,
          f"{workload}: traced pass matches untraced {t['failures']}")
    if reduced:
        full = pass_result(binary, workload, seed)
    else:
        full = a
    check(full["failed"] == 0 and full["pinned_digest"] == full["digest"],
          f"{workload}: default seed {seed} matches pinned digest "
          f"{full['pinned_digest']!r} (got {full['digest']})")


def crosscheck(binary):
    r = subprocess.run([binary, "--crosscheck", "--seed", "8000"],
                       capture_output=True, text=True, cwd=run.ROOT,
                       timeout=run.RUN_TIMEOUT_S)
    check(r.returncode == 0,
          "campaign_social at seed 8000 == socialnetwork_campaign job: "
          + r.stdout.strip())


def metric_names(spec):
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        r = subprocess.run([sys.executable, run.__file__, "--workload",
                            "defended_overload", "--seconds", "1", "--trace",
                            str(trace)], capture_output=True, text=True,
                           cwd=run.ROOT, timeout=run.RUN_TIMEOUT_S)
        lines = r.stdout.strip().splitlines()
        last = json.loads(lines[-1]) if r.returncode == 0 and lines else {}
        metrics = last.get("metrics", {})
        text = "\n".join(lines[:-1])
        for m in spec[key]:
            got = metrics.get(m["name"], {})
            printed = any(line.split()[:1] == [m["name"]] and
                          line.split()[-1] == m["unit"]
                          for line in text.splitlines())
            check(got.get("unit") == m["unit"] and printed,
                  f"--trace {trace} prints {m['name']} with unit {m['unit']}")
        check(last.get("failed") == 0 and last.get("correct") is True,
              f"--trace {trace}: correct, 0 failed of "
              f"{last.get('attempted')} attempted")


def main():
    spec = run.load_spec()
    binary = run.build()
    for w in spec["workloads"]:
        workload_checks(binary, w["name"])
    crosscheck(binary)
    metric_names(spec)
    print(f"\n{len(failures)} failed check(s)")
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
