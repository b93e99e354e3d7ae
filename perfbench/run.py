#!/usr/bin/env python3
"""The repository benchmark: builds perfbench from source, then runs it.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --workload all [--seed <n>] [--seconds <s>]
    python3 perfbench/run.py --self-test

Run from the repository root. The build goes to $CARGO_TARGET_DIR
(default .bench_build) and traced runs write their layer tables and Chrome
traces to .bench_out/. The last line of standard output is the run's JSON
result; see perfbench/README.md for the workloads and metrics.
"""
import argparse
import hashlib
import json
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["library_mix", "lecture_swarm_real", "lecture_tree_1023", "lecture_swarm_lossy"]
RUN_TIMEOUT_S = 175


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, base, "perfbench")


def build(targets):
    out = build_dir()
    jobs = str(os.cpu_count() or 2)
    steps = []
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "-j", jobs, "--target"] + targets)
    for cmd in steps:
        # Build chatter goes to stderr: stdout carries the result.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            sys.exit("perfbench: build failed: " + " ".join(cmd))
    return out


def commit_id():
    """The git commit, or a digest of the sources in a checkout without git."""
    if os.path.exists(os.path.join(ROOT, ".git")):
        try:
            head = subprocess.run(["git", "-C", ROOT, "rev-parse", "--short=12", "HEAD"],
                                  capture_output=True, text=True, timeout=10)
            if head.returncode == 0 and head.stdout.strip():
                return head.stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    h = hashlib.sha1()
    for top in ("src", "bench", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return "src-" + h.hexdigest()[:12]


def run_one(binary, workload, seed, seconds, trace, capture):
    cmd = [binary, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace), "--commit", commit_id(),
           "--out", os.path.join(ROOT, ".bench_out")]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE if capture else None)
    try:
        stdout, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit("perfbench: %s did not finish within %d s" % (workload, RUN_TIMEOUT_S))
    finally:
        if proc.poll() is None:  # timed out, or this script was told to stop
            proc.kill()
            proc.wait()
    return proc.returncode, (stdout.decode() if capture else "")


def run_all(binary, seed, seconds):
    """Every workload, untraced then traced, with the end-to-end table."""
    rows = {}
    worst = 0
    for w in WORKLOADS:
        results = []
        for trace in (0, 1):
            rc, out = run_one(binary, w, seed, seconds, trace, capture=True)
            sys.stdout.write(out)
            worst = worst or rc
            results.append(json.loads(out.strip().splitlines()[-1]))
        rows[w] = results
    print("\n%-22s %9s %16s %11s %10s %10s %12s %10s %9s" % (
        "workload", "setup_s", "ops_failed_ratio", "peak_rss_mb", "lat_p50_ms", "lat_p99_ms",
        "capacity_rps", "makespan_s", "wall_s"))
    for w, (plain, traced) in rows.items():
        m, t = plain["metrics"], traced["metrics"]
        makespan = t["makespan_s"]["value"]
        print("%-22s %9.4f %16.4f %11.1f %10.3f %10.3f %12.1f %10s %9.3f" % (
            w, m["setup_s"]["value"], plain["failed"] / plain["attempted"],
            m["peak_rss_mb"]["value"], m["lat_p50_ms"]["value"], t["lat_p99_ms"]["value"],
            t["capacity_rps"]["value"], "%.2f" % makespan if makespan else "n/a",
            m["wall_s"]["value"]))
    print("units: s, ratio, MB, ms, ms, 1/s, s, s; lat_p99_ms, capacity_rps and makespan_s "
          "(simulated) come from the traced run")
    print(json.dumps({w: r[0] for w, r in rows.items()}))
    return worst


def self_test():
    out = build(["perfbench", "perfbench_selftest"])
    rc = subprocess.run([os.path.join(out, "perfbench_selftest")]).returncode
    env = dict(os.environ, PERFBENCH_BIN=os.path.join(out, "perfbench"))
    rc = rc or subprocess.run([sys.executable, "-m", "unittest", "discover", "-s",
                               os.path.join(HERE, "tests"), "-v"], env=env).returncode
    return rc


def main():
    # SIGTERM unwinds like an exception, so the run's child is stopped too.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit("perfbench: terminated"))
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOADS + ["all"])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=10)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--self-test", action="store_true")
    args = p.parse_args()
    if args.self_test:
        return self_test()
    if args.workload is None:
        p.error("--workload is required")
    binary = os.path.join(build(["perfbench"]), "perfbench")
    if args.workload == "all":
        return run_all(binary, args.seed, args.seconds)
    rc, _ = run_one(binary, args.workload, args.seed, args.seconds, args.trace, capture=False)
    return rc


if __name__ == "__main__":
    sys.exit(main())
