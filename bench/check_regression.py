#!/usr/bin/env python3
"""Compare a google-benchmark JSON run against a checked-in baseline.

Usage:
    check_regression.py --baseline BENCH_pipeline.json --candidate out.json \
                        [--threshold 0.25] [--strict-context] \
                        [--ratio 'NUM/DEN<=X' ...]

Policy (the CI perf gate):
  * Benchmarks are matched by name. For runs with repetitions, the `median`
    aggregate is used; otherwise the single iteration entry.
  * A benchmark REGRESSES when candidate time exceeds baseline time by more
    than --threshold (default 25%).
  * Regressions only FAIL the gate (exit 1) when the benchmark context
    matches the baseline host (num_cpus, mhz_per_cpu and host_name): a
    baseline recorded on different hardware cannot be held against this run,
    so mismatched contexts downgrade every regression to a warning.
  * Missing benchmarks (in either direction) warn — renames should update
    the baseline in the same PR.
  * A --ratio NUM/DEN<=X check reads the candidate alone: it FAILS whenever
    the wall time of benchmark NUM exceeds X times that of benchmark DEN, on
    any host, because both sides ran on the same machine in the same run.
    Wall (real) time, not CPU time: google-benchmark's CPU time is the
    calling thread's alone and leaves out pool workers.

The exit code is the contract; the report on stdout is for the CI log.
"""

from __future__ import annotations

import argparse
import json
import sys

CONTEXT_KEYS = ("num_cpus", "mhz_per_cpu", "host_name")


def load(path):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def context_matches(baseline, candidate):
    """True when both runs describe the same host, plus a human summary."""
    b = baseline.get("context", {})
    c = candidate.get("context", {})
    diffs = []
    for key in CONTEXT_KEYS:
        if b.get(key) != c.get(key):
            diffs.append(f"{key}: baseline={b.get(key)!r} candidate={c.get(key)!r}")
    return (not diffs), diffs


def representative_entries(doc):
    """name -> benchmark entry, preferring the median aggregate when present."""
    picked = {}
    for entry in doc.get("benchmarks", []):
        run_type = entry.get("run_type", "iteration")
        if run_type == "aggregate":
            if entry.get("aggregate_name") != "median":
                continue
            name = entry.get("run_name", entry["name"])
            picked[name] = entry  # aggregates win over raw repetitions
        else:
            name = entry["name"]
            picked.setdefault(name, entry)
    return picked


def metric(entry):
    """The gated quantity: CPU time (wall time is noisy on shared runners)."""
    return float(entry["cpu_time"]), entry.get("time_unit", "ns")


def parse_ratio(spec, names):
    """'NUM/DEN<=X' -> (NUM, DEN, X). Benchmark names contain '/' themselves,
    so NUM and DEN split at the one '/' that leaves a benchmark of `names` on
    both sides. Raises ValueError for a malformed or unresolvable spec."""
    lhs, sep, bound = spec.rpartition("<=")
    if not sep:
        raise ValueError(f"ratio {spec!r} lacks '<=X'")
    limit = float(bound)
    splits = [(lhs[:i], lhs[i + 1:]) for i, ch in enumerate(lhs)
              if ch == "/" and lhs[:i] in names and lhs[i + 1:] in names]
    if len(splits) != 1:
        raise ValueError(f"ratio {spec!r} does not name two candidate benchmarks "
                         f"({len(splits)} ways to split it)")
    return splits[0][0], splits[0][1], limit


def check_ratios(specs, entries):
    """Evaluate every --ratio spec against one run. Returns failure lines."""
    failures = []
    for spec in specs:
        try:
            num, den, limit = parse_ratio(spec, entries)
        except ValueError as err:
            failures.append(str(err))
            continue
        num_time = float(entries[num]["real_time"])
        den_time = float(entries[den]["real_time"])
        if den_time <= 0:
            failures.append(f"non-positive wall time for {den}")
            continue
        ratio = num_time / den_time
        verdict = "ok" if ratio <= limit else "FAIL"
        print(f"ratio {num} / {den} = {ratio:.2f} (limit {limit:.2f}) {verdict}")
        if ratio > limit:
            failures.append(f"{num} / {den} = {ratio:.2f} exceeds {limit:.2f}")
    return failures


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--baseline", required=True, help="checked-in BENCH_*.json")
    parser.add_argument("--candidate", required=True, help="fresh benchmark JSON")
    parser.add_argument("--threshold", type=float, default=0.25,
                        help="fractional slowdown that fails the gate (default 0.25)")
    parser.add_argument("--strict-context", action="store_true",
                        help="fail (not warn) when the host context mismatches")
    parser.add_argument("--require", action="append", default=[], metavar="PREFIX",
                        help="benchmark name (or prefix) that must be present in both "
                             "runs; missing coverage fails the gate even on a "
                             "mismatched host (repeatable)")
    parser.add_argument("--ratio", action="append", default=[], metavar="NUM/DEN<=X",
                        help="candidate-only wall-time ratio bound; fails on any host "
                             "(repeatable)")
    args = parser.parse_args(argv)

    baseline = load(args.baseline)
    candidate = load(args.candidate)

    same_host, diffs = context_matches(baseline, candidate)
    if not same_host:
        print("context mismatch between baseline and candidate:")
        for d in diffs:
            print(f"  {d}")
        if args.strict_context:
            print("FAIL: --strict-context requires a matching host")
            return 1
        print("=> regressions will be reported as warnings only\n")

    base_entries = representative_entries(baseline)
    cand_entries = representative_entries(candidate)

    # Required coverage: a rename or a silently skipped scaling row must not
    # slip through as a mere warning. Prefix matching lets one --require
    # cover a size sweep ("BM_PlanDerSerial" matches every /n: variant).
    # Every name matching the prefix in either run must be present in BOTH:
    # it is not enough that *some* variant matches on each side, or a
    # candidate run that silently dropped the /n:10000 row while keeping
    # /n:500 would pass the gate without ever comparing the gated row.
    missing_required = []
    for prefix in args.require:
        base_match = {n for n in base_entries if n.startswith(prefix)}
        cand_match = {n for n in cand_entries if n.startswith(prefix)}
        if not base_match:
            missing_required.append(f"baseline has no benchmark matching {prefix!r}")
        if not cand_match:
            missing_required.append(f"candidate has no benchmark matching {prefix!r}")
        for name in sorted(base_match - cand_match):
            missing_required.append(f"candidate is missing required benchmark {name!r}")
        for name in sorted(cand_match - base_match):
            missing_required.append(f"baseline is missing required benchmark {name!r}")
    if missing_required:
        for m in missing_required:
            print(f"missing required benchmark: {m}")
        print("FAIL: required benchmark coverage is absent")
        return 1

    ratio_failures = check_ratios(args.ratio, cand_entries)
    if ratio_failures:
        for f in ratio_failures:
            print(f"ratio check: {f}")
        print("FAIL: a host-independent ratio bound is broken")
        return 1

    regressions, improvements, warnings = [], [], []

    for name in sorted(base_entries.keys() - cand_entries.keys()):
        warnings.append(f"baseline benchmark missing from candidate run: {name}")
    for name in sorted(cand_entries.keys() - base_entries.keys()):
        warnings.append(f"candidate benchmark has no baseline (update it?): {name}")

    rows = []
    for name in sorted(base_entries.keys() & cand_entries.keys()):
        base_time, unit = metric(base_entries[name])
        cand_time, _ = metric(cand_entries[name])
        if base_time <= 0:
            warnings.append(f"non-positive baseline time for {name}; skipped")
            continue
        ratio = cand_time / base_time
        rows.append((name, base_time, cand_time, unit, ratio))
        if ratio > 1.0 + args.threshold:
            regressions.append((name, ratio))
        elif ratio < 1.0 - args.threshold:
            improvements.append((name, ratio))

    name_width = max((len(r[0]) for r in rows), default=4)
    print(f"{'benchmark'.ljust(name_width)}  {'baseline':>12}  {'candidate':>12}  ratio")
    for name, base_time, cand_time, unit, ratio in rows:
        flag = " <-- REGRESSION" if ratio > 1.0 + args.threshold else ""
        print(f"{name.ljust(name_width)}  {base_time:10.1f}{unit:>2}  "
              f"{cand_time:10.1f}{unit:>2}  {ratio:5.2f}x{flag}")

    for w in warnings:
        print(f"warning: {w}")
    for name, ratio in improvements:
        print(f"note: {name} improved {ratio:.2f}x vs baseline — "
              "consider refreshing the checked-in baseline")

    if regressions:
        print(f"\n{len(regressions)} benchmark(s) regressed beyond "
              f"{args.threshold:.0%}:")
        for name, ratio in regressions:
            print(f"  {name}: {ratio:.2f}x baseline")
        if same_host:
            print("FAIL")
            return 1
        print("WARN: host context differs from baseline; not failing the gate")
        return 0

    print("\nOK: no regression beyond "
          f"{args.threshold:.0%} across {len(rows)} benchmark(s)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
