#!/usr/bin/env python3
"""Plan benchmark runner: builds planbench from source, runs one workload
(or all of them) in its own pinned process, checks the report and prints it.

  python3 planbench/run.py --workload plan-det --seed 3 --seconds 30 --trace 0
  python3 planbench/run.py --workload all            # every workload, untraced
  python3 planbench/run.py --workload all --trace 1  # per-layer metrics
  python3 planbench/run.py --steadiness 10           # quartiles over 10 seeds
  python3 planbench/run.py --self-test               # each workload once

Run it from the repository root. The last line of standard output is one
JSON object; see README.md in this directory for the metrics.
"""
import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "planbench"
BINARY = BUILD / "planbench"
WORKLOADS = ["plan-det", "plan-jitter"]  # as in BENCHMARK.json
# Runnable on request, not in BENCHMARK.json: too unsteady on a shared
# host (see README.md).
EXTRA_WORKLOADS = ["replay-long"]
# Unset in every workload process: each would change what is measured (the
# replay engine, a warm on-disk evaluation cache, malloc tuning).
PINNED_ENV = ["WFENS_ENGINE", "WFENS_CACHE", "GLIBC_TUNABLES"]
RUN_TIMEOUT_S = 170
SETUPS = 21  # set-ups per run; setup_s is their median


def fail(message):
    print(f"planbench: {message}", file=sys.stderr)
    sys.exit(1)


def build():
    """Configure (a no-op when nothing changed), then build only the
    benchmark and what it links."""
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [["cmake", "-S", str(HERE), "-B", str(BUILD),
              "-DCMAKE_BUILD_TYPE=Release"],
             ["cmake", "--build", str(BUILD), "--target", "planbench",
              "-j", jobs]]
    for cmd in steps:
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            fail("build failed: " + " ".join(cmd))


def spec():
    path = ROOT / "BENCHMARK.json"
    if not path.exists():
        fail("BENCHMARK.json not found at the repository root")
    return json.loads(path.read_text())


def provenance():
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    try:
        describe = subprocess.run(
            ["git", "describe", "--always", "--dirty", "--tags"], cwd=ROOT,
            capture_output=True, text=True, timeout=10)
        commit = describe.stdout.strip() if describe.returncode == 0 else ""
    except (OSError, subprocess.TimeoutExpired):
        commit = ""
    return {"host": platform.node(), "nproc": os.cpu_count(), "cpu_model": cpu,
            "git_describe": commit or "unknown (not a git checkout)"}


def pinned_env():
    env = dict(os.environ)
    recorded = {name: env.pop(name, None) for name in PINNED_ENV}
    return env, recorded


def launch(workload, seed, args):
    """Run the benchmark binary once; return its last stdout line as JSON."""
    env, _ = pinned_env()
    cmd = [str(BINARY), "--workload", workload, "--seed", str(seed)] + args
    try:
        done = subprocess.run(cmd, env=env, capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{workload} did not finish within {RUN_TIMEOUT_S} s")
    sys.stderr.write(done.stderr)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        fail(f"{workload} exited with code {done.returncode}")
    return json.loads(lines[-1])


def setup_seconds(workload, seed):
    """Process start to ready for the first operation: the binary is spawned
    SETUPS times in set-up-only mode and reports when it was ready on the
    same monotonic clock the spawn was stamped on."""
    times = []
    for _ in range(SETUPS):
        start = time.monotonic()
        ready = launch(workload, seed, ["--setup-only", "1"])["ready_s"]
        times.append(ready - start)
    return statistics.median(times)


def run_workload(workload, seed, seconds, trace):
    """One workload in a fresh process with the pinned environment."""
    report = launch(workload, seed,
                    ["--seconds", str(seconds), "--trace", str(trace)])
    if not trace:
        report["metrics"]["setup_s"] = {
            "value": setup_seconds(workload, seed), "unit": "s"}
    report["provenance"] = provenance()
    report["environment_unset"] = pinned_env()[1]
    return report


def missing_metrics(report, names):
    """Named metrics absent from the report or carrying another unit."""
    got = report["metrics"]
    return [f"{m['name']} [{m['unit']}]" for m in names
            if m["name"] not in got or got[m["name"]]["unit"] != m["unit"]]


def checked(report, bench, trace):
    names = bench["per_layer"] if trace else bench["end_to_end"]
    missing = missing_metrics(report, names)
    if missing:
        report["correct"] = False
        report["problems"].append("missing metrics: " + ", ".join(missing))
    # Exactly the named metrics, in the named order.
    report["metrics"] = {m["name"]: report["metrics"][m["name"]]
                         for m in names if m["name"] in report["metrics"]}
    report["failed_frac"] = report["failed"] / max(report["attempted"], 1)
    return report


def print_report(report):
    print(f"== {report['workload']} (seed {report['seed']}, "
          f"trace {report['trace']}, {report['threads']} threads)")
    for name, m in report["metrics"].items():
        print(f"  {name:24s} {m['value']:.6g} {m['unit']}")
    print(f"  {'failed_frac':24s} {report['failed_frac']:.6g} ratio "
          f"({report['failed']} of {report['attempted']} operations)")
    for problem in report["problems"]:
        print(f"  FAILED CHECK: {problem}")
    print(json.dumps(report, sort_keys=True))


def contract_line(report):
    return json.dumps({"correct": bool(report["correct"]),
                       "attempted": int(report["attempted"]),
                       "failed": int(report["failed"]),
                       "metrics": report["metrics"]})


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def steadiness(bench, workloads, runs, seconds, trace):
    """Run every workload `runs` times, seeds 1..runs, and print the median
    and quartiles of each metric, with the spread (q3 - q1) / median that
    the bounds in BENCHMARK.json are set from."""
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    summary, correct = {}, True
    for workload in workloads:
        values = {}
        for seed in range(1, runs + 1):
            report = checked(run_workload(workload, seed, seconds, trace),
                             bench, trace)
            correct = correct and report["correct"] and report["failed"] == 0
            for name, m in report["metrics"].items():
                values.setdefault(name, []).append(m["value"])
        print(f"== {workload}: {runs} runs, {seconds} s each")
        summary[workload] = {}
        for name, vals in values.items():
            q1, q2, q3 = quartiles(vals)
            spread = (q3 - q1) / q2 if q2 else 0.0
            bound = bounds.get(name)
            flag = ""
            if bound and spread > bound / 3:
                flag = f"  > bound/3 ({bound / 3:.3f})"
            print(f"  {name:24s} median {q2:.6g}  q1 {q1:.6g}  q3 {q3:.6g}"
                  f"  spread {spread:.4f}{flag}")
            summary[workload][name] = {"median": q2, "q1": q1, "q3": q3,
                                       "spread": spread, "runs": vals}
    print(json.dumps({"correct": correct, "steadiness": summary}))
    return correct


def self_test(bench):
    """Each workload once, traced and untraced: outputs checked, and every
    named metric present with its unit."""
    ok = True
    for workload in WORKLOADS:
        for trace in (0, 1):
            report = checked(run_workload(workload, 0, 1, trace), bench, trace)
            good = report["correct"] and report["failed"] == 0
            ok = ok and good
            print(f"{workload} trace {trace}: {'ok' if good else 'FAILED'}"
                  + "".join(f"\n  {p}" for p in report["problems"]))
    print(json.dumps({"correct": ok, "self_test": WORKLOADS}))
    return ok


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", default="all",
                        choices=WORKLOADS + EXTRA_WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--steadiness", type=int, metavar="K", default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()

    build()
    bench = spec()
    seconds = args.seconds or bench["run_seconds"]
    workloads = WORKLOADS if args.workload == "all" else [args.workload]
    if args.self_test:
        sys.exit(0 if self_test(bench) else 1)
    if args.steadiness:
        sys.exit(0 if steadiness(bench, workloads, args.steadiness, seconds,
                                 args.trace) else 1)

    reports = []
    for workload in workloads:
        report = checked(run_workload(workload, args.seed, seconds,
                                      args.trace), bench, args.trace)
        print_report(report)
        reports.append(report)
    if len(reports) == 1:
        print(contract_line(reports[0]))
    else:
        print(json.dumps({
            "correct": all(r["correct"] for r in reports),
            "attempted": sum(r["attempted"] for r in reports),
            "failed": sum(r["failed"] for r in reports),
            "workloads": {r["workload"]: r["metrics"] for r in reports}}))


if __name__ == "__main__":
    main()
