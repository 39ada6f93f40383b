#!/usr/bin/env python3
"""The WARLOCK benchmark: builds the driver from the checkout's sources, runs
one workload, checks the driver's report against BENCHMARK.json and prints
the result as one JSON object on the last line of standard output.

    python3 perfbench/run.py --workload apb1-advise --seed 7 --seconds 20 \
        --trace 0
    python3 perfbench/run.py --selftest

Run it from anywhere inside a checkout; see perfbench/README.md for the
workloads, the metrics and what each layer metric is expected to move.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("apb1-advise", "warlockd-mixed", "scenario-sweep")
# A run must end within 180 s; the driver is stopped a little before that.
RUN_TIMEOUT_S = 170


def log(message):
    print(message, file=sys.stderr, flush=True)


def load_contract():
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as f:
        contract = json.load(f)
    return {
        0: [(m["name"], m["unit"]) for m in contract["end_to_end"]],
        1: [(m["name"], m["unit"]) for m in contract["per_layer"]],
    }


def build_dir():
    base = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not base.is_absolute():
        base = ROOT / base
    return base / "perfbench"


def build():
    """Configures and builds the driver (incrementally); returns its path."""
    out = build_dir()
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    steps = [["cmake", "-S", str(ROOT / "perfbench"), "-B", str(out),
              "-DCMAKE_BUILD_TYPE=Release"],
             ["cmake", "--build", str(out), "--target", "warlock_perfbench",
              "-j", jobs]]
    for step in steps:
        done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                              check=False)
        if done.returncode != 0:
            raise RuntimeError("build step failed: " + " ".join(step))
    return out / "warlock_perfbench"


def source_identity():
    """The commit when the checkout is a git repository, plus a digest of
    the library sources, which identifies the code either way."""
    commit = "unknown"
    try:
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse",
                               "--show-toplevel", "HEAD"],
                              capture_output=True, text=True, check=False)
        lines = done.stdout.split()
        # A checkout nested in some other repository is not that commit.
        if done.returncode == 0 and len(lines) == 2 and \
                Path(lines[0]).resolve() == ROOT:
            commit = lines[1]
    except OSError:
        pass
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*")):
        if path.is_file():
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
    return commit, digest.hexdigest()[:16]


def run_driver(binary, args):
    """Runs the driver and returns its parsed report (last stdout line)."""
    done = subprocess.run([str(binary), "--root", str(ROOT)] + args,
                          stdout=subprocess.PIPE, stderr=sys.stderr,
                          text=True, timeout=RUN_TIMEOUT_S, check=False)
    if done.returncode != 0:
        raise RuntimeError(f"driver exited with {done.returncode}")
    lines = done.stdout.strip().splitlines()
    if not lines:
        raise RuntimeError("driver printed no report")
    return json.loads(lines[-1])


def checked_metrics(report, expected):
    """The report's metrics in contract order; raises when one is missing or
    carries another unit than BENCHMARK.json names."""
    metrics = report["metrics"]
    out = {}
    for name, unit in expected:
        if name not in metrics:
            raise RuntimeError(f"driver did not report metric {name}")
        if metrics[name]["unit"] != unit:
            raise RuntimeError(f"metric {name} has unit "
                               f"{metrics[name]['unit']}, expected {unit}")
        out[name] = {"value": metrics[name]["value"], "unit": unit}
    return out


def run(binary, contract, workload, seed, seconds, trace):
    report = run_driver(binary, ["--workload", workload, "--seed", str(seed),
                                 "--seconds", str(seconds),
                                 "--trace", str(trace)])
    metrics = checked_metrics(report, contract[trace])
    for error in report["errors"]:
        log("check failed: " + error)
    return {
        "correct": bool(report["correct"]) and report["failed"] == 0,
        "attempted": int(report["attempted"]),
        "failed": int(report["failed"]),
        "metrics": metrics,
    }, report["record"]


def selftest(binary, contract):
    """Input determinism by digest, the thread refusal, and a minimum-size
    run of every workload in both modes."""
    problems = []

    def digest(workload, seed):
        report = run_driver(binary, ["--workload", workload, "--seed",
                                     str(seed), "--digest-only"])
        return report["record"]["input_digest"]

    for workload in WORKLOADS:
        first, again, other = digest(workload, 1), digest(workload, 1), \
            digest(workload, 2)
        log(f"{workload}: digest seed 1 {first} / {again}, seed 2 {other}")
        if first != again:
            problems.append(f"{workload}: same seed, different inputs")
        if first == other:
            problems.append(f"{workload}: different seeds, same inputs")

    too_many = len(os.sched_getaffinity(0)) + 1
    refused = subprocess.run(
        [str(binary), "--workload", WORKLOADS[0], "--seed", "1",
         "--seconds", "1", "--trace", "0", "--threads", str(too_many)],
        capture_output=True, text=True, check=False)
    if refused.returncode == 0 or refused.stdout.strip():
        problems.append(f"--threads {too_many} above nproc was not refused")

    for workload in WORKLOADS:
        for trace in (0, 1):
            try:
                result, _ = run(binary, contract, workload, 1, 1, trace)
            except (RuntimeError, subprocess.TimeoutExpired) as e:
                problems.append(f"{workload} trace {trace}: {e}")
                continue
            log(f"{workload} trace {trace}: attempted {result['attempted']} "
                f"failed {result['failed']} metrics {len(result['metrics'])}")
            if not result["correct"] or result["failed"]:
                problems.append(f"{workload} trace {trace}: failures")

    for problem in problems:
        log("SELFTEST FAIL: " + problem)
    log("selftest " + ("failed" if problems else "passed"))
    return 1 if problems else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1))
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    if not args.selftest and None in (args.workload, args.seed, args.seconds,
                                      args.trace):
        parser.error("--workload, --seed, --seconds and --trace are required")

    try:
        contract = load_contract()
        started = time.monotonic()
        binary = build()
        log(f"build: {time.monotonic() - started:.1f} s")
        if args.selftest:
            return selftest(binary, contract)
        result, record = run(binary, contract, args.workload, args.seed,
                             args.seconds, args.trace)
    except (OSError, ValueError, KeyError, RuntimeError,
            subprocess.TimeoutExpired) as e:
        log(f"perfbench: {e}")
        return 1

    record["commit"], record["source_digest"] = source_identity()
    record["error_rate"] = result["failed"] / max(1, result["attempted"])
    print(json.dumps({"record": record}))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
