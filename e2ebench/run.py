#!/usr/bin/env python3
"""The repository benchmark: moving-window admission streams against
`easched_cli serve --listen`, plus a traced per-layer replay.

One run (what BENCHMARK.json's command executes):

    python3 e2ebench/run.py --workload stream-dense --seed 1 --seconds 50 --trace 0

builds the library, `easched_cli` and the load generator from source into
`.bench_build/`, runs the workload and prints, as its last line, one JSON
object with `correct`, `attempted`, `failed` and `metrics`. `--trace 0`
drives a real `serve --listen` over loopback and reports the end-to-end
metrics; `--trace 1` replays the same op log in process, times each layer's
public calls, reports the per-layer metrics and writes a Chrome trace to
`.bench_out/`.

Steadiness mode repeats workloads over consecutive seeds and prints each
metric's median, quartiles and spread against its bound; compare mode checks
that the medians of a second steadiness summary are no worse than a first's by
more than each metric's bound (setup_s included):

    python3 e2ebench/run.py --steady 10 --workloads all --seconds 50 --trace 0
    python3 e2ebench/run.py --compare .bench_out/steady-A.json .bench_out/steady-B.json

Run from the repository root. Exit codes: 0 ok; 1 build or usage error;
3 a correctness check failed; 4 the generator fell behind its open-loop
schedule (the run is invalid and reports no numbers).
"""

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
RUNS = os.path.join(ROOT, ".bench_run")
OUT = os.path.join(ROOT, ".bench_out")
BUILD_TYPE = "Release"
# The generator, and the server it spawns, run on this one CPU (the last one
# the benchmark may use). On a shared VM, a thread woken on another vCPU waits
# for the host to schedule that vCPU; over 4 vCPUs those waits came and went in
# spells that slowed a run up to 4x. On one vCPU the same runs held within
# about 15 %, and the server used half the CPU time per op.
BENCH_CPU = max(os.sched_getaffinity(0))


def log(message):
    print(message, file=sys.stderr, flush=True)


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def build():
    """Configure once, then build incrementally. Returns (cli, generator)."""
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=" + BUILD_TYPE])
    steps.append(["cmake", "--build", BUILD, "-j", jobs, "--target", "easched_cli", "e2e_bench"])
    for step in steps:
        proc = subprocess.run(step, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
        if proc.returncode != 0:
            log(proc.stdout[-4000:])
            raise RuntimeError("build failed: " + " ".join(step))
    return (os.path.join(BUILD, "easched", "examples", "easched_cli"), os.path.join(BUILD, "e2e_bench"))


def host_context():
    """Where a number was measured: stamped into every result."""
    model, mhz = "unknown", 0.0
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                key, _, value = line.partition(":")
                key = key.strip()
                if key == "model name" and model == "unknown":
                    model = value.strip()
                elif key == "cpu MHz" and mhz == 0.0:
                    mhz = float(value)
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu_model": model, "mhz": mhz,
            "kernel": platform.release(), "build_type": BUILD_TYPE, "pinned_cpu": BENCH_CPU}


def run_once(binaries, workload, seed, seconds, trace, echo=True):
    """One run of the generator. Returns (exit_code, parsed result or None)."""
    cli, generator = binaries
    work = os.path.join(RUNS, "%s-%d-%d" % (workload, seed, os.getpid()))
    shutil.rmtree(work, ignore_errors=True)
    cmd = [generator, "--mode", "replay" if trace else "drive", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--work-dir", work]
    if trace:
        os.makedirs(OUT, exist_ok=True)
        cmd += ["--trace-out", os.path.join(OUT, "trace-%s-%d.json" % (workload, seed))]
    else:
        cmd += ["--server", cli]
    # Its own session, so a timeout takes down the generator and the server
    # it spawned together.
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, start_new_session=True,
                            preexec_fn=lambda: os.sched_setaffinity(0, {BENCH_CPU}))
    try:
        stdout, _ = proc.communicate(timeout=170)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise
    finally:
        shutil.rmtree(work, ignore_errors=True)
    lines = stdout.strip().splitlines()
    for line in lines[:-1] if echo else []:
        print(line)
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        log(lines[-1])
        result = None
    return proc.returncode, result


def single(args, spec):
    binaries = build()
    print("context: " + json.dumps(host_context()))
    code, result = run_once(binaries, args.workload, args.seed, args.seconds, args.trace)
    if result is None:
        log("error: the generator exited %d without a result" % code)
        return 1
    for error in result["errors"]:
        log("error: " + error)
    if not result["valid"]:
        log("error: open-loop validity failed; the run reports no numbers")
        return 4
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = {}
    for m in wanted:
        got = result["metrics"].get(m["name"])
        if got is None or got["value"] is None:
            log("error: metric %s missing" % m["name"])
            return 3
        metrics[m["name"]] = {"value": got["value"], "unit": m["unit"]}
    correct = bool(result["correct"]) and code == 0
    # Not gated (0 on a correct run); the result line carries its parts.
    print("failed_share: %.6g" % (result["failed"] / max(1, result["attempted"])))
    print(json.dumps({"correct": correct, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0 if correct else 3


def steady(args, spec):
    binaries = build()
    context = host_context()
    print("context: " + json.dumps(context))
    names = [w["name"] for w in spec["workloads"]]
    workloads = names if args.workloads == "all" else args.workloads.split(",")
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    bounds = {m["name"]: m.get("bound") for m in wanted}
    summary = {"context": context, "seconds": args.seconds, "trace": args.trace, "workloads": {}}
    worst = 0.0
    for workload in workloads:
        # Every metric the run reports is tabulated; the gated ones (in
        # BENCHMARK.json) come first, with their bounds.
        values, units = {}, {}
        attempted, failed = 0, 0
        for k in range(args.steady):
            seed = args.base_seed + k
            started = time.time()
            code, result = run_once(binaries, workload, seed, args.seconds, args.trace, echo=False)
            if result is None or code != 0 or not result["valid"]:
                log("error: %s seed %d failed (exit %d)" % (workload, seed, code))
                for error in (result or {}).get("errors", []):
                    log("error: " + error)
                if result is not None:
                    log("statuses: " + json.dumps(result["statuses"]))
                return 3
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
                units[name] = metric["unit"]
            attempted += result["attempted"]
            failed += result["failed"]
            log("%s seed %d done in %.1f s: %s" % (workload, seed, time.time() - started, " ".join(
                "%s=%.4g" % (n, m["value"]) for n, m in sorted(result["metrics"].items()) if n in bounds)))
        rows = {}
        print("\n== %s: %d run(s), seeds %d..%d" % (workload, args.steady, args.base_seed,
                                                     args.base_seed + args.steady - 1))
        print("%-28s %6s %12s %12s %12s %8s %6s" % ("metric", "unit", "q1", "median", "q3", "spread", "bound"))
        for name in sorted(values, key=lambda n: (n not in bounds, n)):
            v = values[name]
            q1, med, q3 = statistics.quantiles(v, n=4) if len(v) > 1 else (v[0], v[0], v[0])
            spread = (q3 - q1) / abs(med) if med else float("inf")
            bound = bounds.get(name)
            # setup_s is judged by its median alone (see `compare`): spawn
            # times spread with the host, and set-up work moved out of the
            # measured phase shows as a shift of the median.
            if bound is not None and name != "setup_s":
                worst = max(worst, spread / bound)
            rows[name] = {"values": v, "unit": units[name], "q1": q1, "median": med, "q3": q3,
                          "spread": spread, "bound": bound}
            print("%-28s %6s %12.5g %12.5g %12.5g %8.3f %6s" % (name, units[name], q1, med, q3, spread,
                                                               "-" if bound is None else bound))
        print("failed_share: %.6g (%d of %d ops)" % (failed / max(1, attempted), failed, attempted))
        rows["failed_share"] = failed / max(1, attempted)
        summary["workloads"][workload] = rows
    os.makedirs(OUT, exist_ok=True)
    path = os.path.join(OUT, "steady-trace%d-%s.json" % (args.trace, time.strftime("%Y%m%dT%H%M%S")))
    with open(path, "w") as f:
        json.dump(summary, f, indent=1)
    print("\nworst spread / bound (setup_s is judged by its median, see --compare): %.3f; summary in %s"
          % (worst, path))
    return 0 if worst <= 1.0 else 3


def compare(args, spec):
    """Every gated metric's median in the second summary must be no worse
    than in the first by more than its bound."""
    with open(args.compare[0]) as f:
        first = json.load(f)
    with open(args.compare[1]) as f:
        second = json.load(f)
    wanted = spec["per_layer"] if first["trace"] else spec["end_to_end"]
    worst = 0.0
    print("%-14s %-22s %12s %12s %8s %6s" % ("workload", "metric", "median 1", "median 2", "worse", "bound"))
    for workload, rows in first["workloads"].items():
        for m in wanted:
            if m.get("bound") is None or m["name"] not in rows:
                continue
            a = rows[m["name"]]["median"]
            b = second["workloads"][workload][m["name"]]["median"]
            worse = (b - a) / a if m["better"] == "lower" else (a - b) / a
            worst = max(worst, worse / m["bound"])
            print("%-14s %-22s %12.5g %12.5g %8.3f %6s" % (workload, m["name"], a, b, worse, m["bound"]))
    print("\nworst median shift / bound: %.3f" % worst)
    return 0 if worst <= 1.0 else 3


def main():
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", help="a workload of BENCHMARK.json, or stream-dense (measured, not gated)")
    parser.add_argument("--seed", type=int, default=1, help="workload seed")
    parser.add_argument("--seconds", type=int, default=50, help="measured seconds per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="0: end-to-end over loopback; 1: traced per-layer replay")
    parser.add_argument("--steady", type=int, default=0, help="steadiness mode: runs per workload")
    parser.add_argument("--workloads", default="all", help="steadiness mode: comma list or 'all'")
    parser.add_argument("--base-seed", type=int, default=1, help="steadiness mode: first seed")
    parser.add_argument("--compare", nargs=2, metavar="SUMMARY",
                        help="compare the medians of two steadiness summaries")
    args = parser.parse_args()
    try:
        spec = load_spec()
        if args.compare:
            return compare(args, spec)
        if args.steady > 0:
            return steady(args, spec)
        if not args.workload:
            log("error: --workload is required (BENCHMARK.json lists the gated ones)")
            return 1
        return single(args, spec)
    except (OSError, RuntimeError, subprocess.TimeoutExpired, json.JSONDecodeError) as e:
        log("error: %s" % e)
        return 1


if __name__ == "__main__":
    sys.exit(main())
