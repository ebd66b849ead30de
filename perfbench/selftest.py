#!/usr/bin/env python3
"""Determinism and contract self-check of the perfbench program.

    python3 perfbench/selftest.py

Builds perfbench the way run.py does, then for every workload at one fixed
seed runs it untraced twice and traced twice, and checks that

  * the exact line (message counts per op, failed_ratio, scenario outcome
    ratios, mc counts) is byte-identical across the two untraced runs, and
    the traced run reports the same value for every key of it, which shows
    the traced run is passive;
  * the exact line of the traced runs, which adds the observer's counts
    (sim-time latencies in Delta, round shares, retries), is byte-identical
    across the two traced runs;
  * every run is correct, with attempted >= 1 and failed == 0;
  * the result line carries exactly the end-to-end metrics of
    BENCHMARK.json untraced and exactly its per-layer metrics traced, with
    their units, and no end-to-end metric reads 0;
  * the traced run wrote a Chrome trace whose spans nest.

Exits 0 when every check passes, 1 otherwise.
"""

import json
import math
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
import run  # noqa: E402  (the build lives in run.py)

SEED = 7
SECONDS = 1


def run_perfbench(binary, workload, trace, out_dir):
    cmd = [str(binary), "--workload", workload, "--seed", str(SEED),
           "--seconds", str(SECONDS), "--trace", str(trace),
           "--out-dir", str(out_dir)]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=300)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}: "
                           f"{proc.stderr[-2000:]}")
    lines = [json.loads(line) for line in proc.stdout.splitlines()]
    exact = next(line["exact"] for line in lines if "exact" in line)
    return exact, lines[-1]


def main():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    build_dir = run.default_build_dir()
    binary = run.build(build_dir)
    if binary is None:
        return 1
    out_dir = build_dir / "traces"
    out_dir.mkdir(exist_ok=True)
    problems = []

    def check(ok, what):
        if not ok:
            problems.append(what)

    workloads = [w["name"] for w in spec["workloads"]]
    for workload in workloads:
        exact_a, result_a = run_perfbench(binary, workload, 0, out_dir)
        exact_b, result_b = run_perfbench(binary, workload, 0, out_dir)
        exact_t, result_t = run_perfbench(binary, workload, 1, out_dir)
        exact_t2, _ = run_perfbench(binary, workload, 1, out_dir)

        check(json.dumps(exact_a) == json.dumps(exact_b),
              f"{workload}: exact values differ between two untraced runs")
        check(json.dumps(exact_t) == json.dumps(exact_t2),
              f"{workload}: exact values differ between two traced runs")
        for key, value in exact_a.items():
            check(exact_t.get(key) == value,
                  f"{workload}: traced run reports {key}={exact_t.get(key)},"
                  f" untraced {value}")

        for trace, result, defs in ((0, result_a, spec["end_to_end"]),
                                    (0, result_b, spec["end_to_end"]),
                                    (1, result_t, spec["per_layer"])):
            where = f"{workload} --trace {trace}"
            check(set(result) == {"correct", "attempted", "failed", "metrics"},
                  f"{where}: result keys {sorted(result)}")
            check(result.get("correct") is True, f"{where}: not correct")
            check(result.get("attempted", 0) >= 1 and result.get("failed") == 0,
                  f"{where}: attempted/failed {result.get('attempted')}/"
                  f"{result.get('failed')}")
            metrics = result.get("metrics", {})
            check(list(metrics) == [d["name"] for d in defs],
                  f"{where}: metric names differ from BENCHMARK.json")
            for d in defs:
                m = metrics.get(d["name"], {})
                check(m.get("unit") == d["unit"],
                      f"{where}: {d['name']} unit {m.get('unit')}")
                v = m.get("value")
                check(isinstance(v, (int, float)) and math.isfinite(v),
                      f"{where}: {d['name']} value {v}")
                if trace == 0:
                    check(v != 0, f"{where}: {d['name']} reads 0")

        trace_file = out_dir / f"trace-{workload}-{SEED}.json"
        events = json.loads(trace_file.read_text())["traceEvents"]
        check(len(events) > 0, f"{workload}: empty Chrome trace")
        for e in events:
            p = e["args"]["parent"]
            if p >= 0:
                parent = events[p]
                check(parent["ts"] <= e["ts"] and
                      e["ts"] + e["dur"] <= parent["ts"] + parent["dur"] + 1e-3,
                      f"{workload}: span {e['args']['span']} escapes its "
                      "parent")
        print(f"{workload}: checked", file=sys.stderr)

    for p in problems[:40]:
        print(f"FAIL {p}", file=sys.stderr)
    print("selftest: " + ("pass" if not problems else
                          f"{len(problems)} problem(s)"))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
