#!/usr/bin/env python3
"""Builds the perfbench program from this checkout's sources and runs it.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> \
        --trace <0|1>

Run from the root of a checkout. The build goes to $CARGO_TARGET_DIR (a
path relative to the checkout root, default .bench_build) under
perfbench/, configured as a Release build; an up-to-date build is a quick
no-op. Build output goes to stderr, so the last line of standard output is
perfbench's result object. Traced runs write their Chrome trace to
<build>/perfbench/traces/. Exits non-zero without a result if the
repository sources are missing or the build fails.
"""

import argparse
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("swarm-faults", "mc-fig1", "consensus-n10")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"perfbench/run.py: {msg}", file=sys.stderr)
    return 2


def run_logged(cmd, timeout):
    """Runs a build step with its output on stderr; waits for it to end."""
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr)
    try:
        return proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        return -1


def default_build_dir():
    """<$CARGO_TARGET_DIR or .bench_build>/perfbench, relative to ROOT."""
    target = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not target.is_absolute():
        target = ROOT / target
    return target / "perfbench"


def build(build_dir):
    """Configures (once) and builds perfbench; returns its path or None."""
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        fail(f"no repository sources at {ROOT}")
        return None
    if not (build_dir / "CMakeCache.txt").is_file():
        rc = run_logged(["cmake", "-S", str(ROOT / "perfbench"), "-B",
                         str(build_dir), "-DCMAKE_BUILD_TYPE=Release"],
                        BUILD_TIMEOUT_S)
        if rc != 0:
            fail(f"configure failed (exit {rc})")
            return None
    jobs = str(min(4, os.cpu_count() or 1))
    rc = run_logged(["cmake", "--build", str(build_dir), "--target",
                     "perfbench", "-j", jobs], BUILD_TIMEOUT_S)
    if rc != 0:
        fail(f"build failed (exit {rc})")
        return None
    return build_dir / "perfbench"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()
    if args.seed < 0 or not 1 <= args.seconds <= 60:
        return fail("--seed must be >= 0 and --seconds in [1, 60]")

    out_dir = default_build_dir()
    binary = build(out_dir)
    if binary is None:
        return 2

    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        traces = out_dir / "traces"
        traces.mkdir(exist_ok=True)
        cmd += ["--out-dir", str(traces)]
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        return fail(f"run exceeded {RUN_TIMEOUT_S} s")
    if proc.returncode != 0:
        sys.stderr.write(out)
        return fail(f"perfbench exited {proc.returncode}")
    sys.stdout.write(out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
