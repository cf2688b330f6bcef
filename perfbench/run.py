#!/usr/bin/env python3
"""Builds and runs the ringjoin benchmark.

One run:
    python3 perfbench/run.py --workload W --seed S --seconds T --trace 0|1

builds the release `ringjoin` binary and the harness in `perfbench/harness`
from source, runs workload W once and prints its metrics; the last line of
standard output is the JSON result. Workloads and metrics are listed in
BENCHMARK.json and described in perfbench/README.md.

Every workload, untraced and traced, one after the other:
    python3 perfbench/run.py --all [--seed 1] [--seconds T]

prints every end-to-end and per-layer metric of every workload with its
unit and exits non-zero if any run fails or answers wrongly.

Steadiness check:
    python3 perfbench/run.py --steady

runs every workload ten times in each of two sets, each run as long as
BENCHMARK.json's run_seconds and with a new seed, and prints for every
end-to-end metric the spread of each set (interquartile range over
median) and the drift between the sets' medians
(|median2 - median1| / median1), each against the metric's bound in
BENCHMARK.json. It exits non-zero if any spread or drift exceeds its
bound.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
HARNESS = os.path.join("perfbench", "harness", "Cargo.toml")
WORK = os.path.join(ROOT, ".perfbench_work")
RUN_TIMEOUT_S = 170
STEADY_RUNS = 10
STEADY_SETS = 2


def child_env():
    env = os.environ.copy()
    env.pop("RINGJOIN_THREADS", None)
    return env


def build():
    """Builds both binaries; returns (ringjoin, harness) paths."""
    env = child_env()
    target = os.path.join(ROOT, env.get("CARGO_TARGET_DIR", ".bench_build"))
    env["CARGO_TARGET_DIR"] = target
    for cmd in (
        ["cargo", "build", "--release", "--offline", "-q", "-p", "ringjoin_cli", "--bin", "ringjoin"],
        ["cargo", "build", "--release", "--offline", "-q", "--manifest-path", HARNESS],
    ):
        subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr, check=True)
    release = os.path.join(target, "release")
    return os.path.join(release, "ringjoin"), os.path.join(release, "ringjoin_perfbench")


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def command_output(cmd):
    try:
        out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True)
        return out.stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return None


def provenance(seed):
    commit = command_output(["git", "rev-parse", "HEAD"]) or "unknown (not a git checkout)"
    rustc = command_output(["rustc", "--version"]) or "unknown"
    return (
        f"provenance: seed={seed} nproc={os.cpu_count()} commit={commit} rustc={rustc}; "
        "RINGJOIN_THREADS is removed from every child's environment; fsync and page-file "
        "timings are those of the filesystem the run used, not of a device"
    )


def run_once(binaries, workload, seed, seconds, trace):
    """Runs the harness once; returns (exit code, stdout lines)."""
    ringjoin, harness = binaries
    cmd = [
        harness,
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(seconds),
        "--trace", str(trace),
        "--ringjoin", ringjoin,
        "--work", WORK,
    ]
    try:
        out = subprocess.run(
            cmd, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S
        )
    except subprocess.TimeoutExpired:
        print(f"error: {workload} did not finish within {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1, []
    return out.returncode, out.stdout.splitlines()


def check_result(spec, line, trace):
    """Parses the JSON result line and checks it names exactly the metrics
    BENCHMARK.json lists for the mode."""
    result = json.loads(line)
    wanted = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != wanted:
        raise ValueError(f"metrics {sorted(got)} do not match BENCHMARK.json {sorted(wanted)}")
    return result


def single(args):
    spec = load_spec()
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    binaries = build()
    code, lines = run_once(binaries, args.workload, args.seed, args.seconds, args.trace)
    if not lines:
        print(f"error: {args.workload} printed no result", file=sys.stderr)
        return code or 1
    print(provenance(args.seed))
    for line in lines[:-1]:
        print(line)
    try:
        check_result(spec, lines[-1], args.trace)
    except (ValueError, KeyError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    print(lines[-1], flush=True)
    return code


def run_all(args):
    spec = load_spec()
    binaries = build()
    seed = 1 if args.seed is None else args.seed
    seconds = args.seconds or spec["run_seconds"]
    print(provenance(seed))
    status = 0
    for w in [w["name"] for w in spec["workloads"]]:
        for trace in (0, 1):
            print(f"== {w}, trace {trace}, seed {seed}, {seconds} s ==", flush=True)
            code, lines = run_once(binaries, w, seed, seconds, trace)
            for line in lines[:-1]:
                print(line)
            try:
                if code != 0 or not lines:
                    raise ValueError(f"{w} exited {code}")
                check_result(spec, lines[-1], trace)
            except (ValueError, KeyError) as e:
                print(f"error: {e}", file=sys.stderr)
                status = 1
    return status


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def steady():
    spec = load_spec()
    binaries = build()
    workloads = [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    seconds = spec["run_seconds"]
    sets = []
    for s in range(STEADY_SETS):
        values = {}
        for w in workloads:
            for i in range(STEADY_RUNS):
                seed = 1000 * (s + 1) + i
                code, lines = run_once(binaries, w, seed, seconds, 0)
                if code != 0 or not lines:
                    print(f"error: {w} seed {seed} exited {code}", file=sys.stderr)
                    print("\n".join(lines[-5:]), file=sys.stderr)
                    return 1
                result = check_result(spec, lines[-1], 0)
                print(f"set {s + 1} {w} seed {seed}: " + ", ".join(
                    f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()), flush=True)
                for k, v in result["metrics"].items():
                    values.setdefault((w, k), []).append(v["value"])
        sets.append(values)
    ok = True
    print(f"{'workload':<12} {'metric':<14} {'bound':>6} " + " ".join(
        f"{'median' + str(i + 1):>10} {'spread' + str(i + 1):>8}" for i in range(len(sets))) + f" {'drift':>8}")
    for (w, k) in sets[0]:
        bound = bounds[k]["bound"]
        medians = [statistics.median(v[(w, k)]) for v in sets]
        spreads = [spread(v[(w, k)]) for v in sets]
        drift = max(abs(m - medians[0]) / medians[0] for m in medians)
        flags = []
        if max(spreads) > bound:
            flags.append("SPREAD OVER BOUND")
        elif max(spreads) > bound / 3:
            flags.append("spread over a third of the bound")
        if drift > bound:
            flags.append("DRIFT OVER BOUND")
        if any(f.isupper() for f in flags):
            ok = False
        print(f"{w:<12} {k:<14} {bound:>6} " + " ".join(
            f"{m:>10.4g} {sp:>8.3f}" for m, sp in zip(medians, spreads)) + f" {drift:>8.3f} " + "; ".join(flags))
    return 0 if ok else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=int)
    ap.add_argument("--trace", type=int, choices=(0, 1))
    ap.add_argument("--all", action="store_true")
    ap.add_argument("--steady", action="store_true")
    args = ap.parse_args()
    if args.steady:
        return steady()
    if args.all:
        return run_all(args)
    if args.workload is None or args.seed is None or args.seconds is None or args.trace is None:
        ap.error("--workload, --seed, --seconds and --trace are required")
    return single(args)


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (OSError, subprocess.CalledProcessError, json.JSONDecodeError) as e:
        print(f"error: {e}", file=sys.stderr)
        sys.exit(1)
