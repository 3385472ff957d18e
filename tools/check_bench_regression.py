#!/usr/bin/env python3
"""Gate on bench_parallel_scaling regressions against checked-in baselines.

Wall-clock throughput is machine-dependent, so the scaling check compares
the machine-normalized signal instead: speedup_vs_1 per shard count. A
current speedup more than --max-speedup-drop-pct below the baseline's
fails the gate. The deterministic engine results (committed transactions
per shard count) must match the baseline exactly — any drift there is a
behavior change, not noise. The telemetry-overhead verdicts are absolute:
overhead_pct (metric probes vs bare), timeline_overhead_pct (the D13
lifecycle timelines vs the instrumented run) and journal_overhead_pct
(the D14 decision journal vs the txnlife run) must each stay within
--max-overhead-pct.

On a report-identity failure (cross-shard across worker counts) the gate
also prints the first differing JSON key path and
both values, read from the mismatch side-files the bench leaves on disk;
the exit code contract (0 pass / 1 fail) is unchanged.

The cross-shard check gates locks-mode execution (BENCH_cross_shard.json):
every sweep point's report must be byte-identical across repeated runs and
worker counts, the merged commit log must stay conflict-serializable, the
deterministic committed/goodput values must match the baseline exactly,
and goodput at the 5% cross-shard point must retain at least
--min-cross-goodput of the shard-local (0%) goodput — coordination cost
is budgeted, not unbounded.

The hotpath check gates the single-engine rewrite (BENCH_hotpath.json):
deterministic op/step counts (lock micro ops, rollback-pair deadlock and
rollback counts, end-to-end committed/steps/rollbacks, audit steps) must
match the baseline exactly, the allocation counters must be exactly zero
(allocs_per_op on the lock/release micro and allocs_per_step on the warm
engine audit — the D15 no-heap-churn invariant), and end-to-end
throughput must stay at or above --min-hotpath-txns-per-sec (default
210000: 10x the pinned ~21k pre-rewrite single-shard number). Wall-clock
rates other than that floor are informational.

When the file carries an enabled "compile" section (the D16 µop lowering;
absent from pre-D16 files, which skip these gates), the lowering counters
(programs, compiled_bytes) must match the baseline exactly — the pinned
program set is identical on every host, and each program is lowered once,
as admission does (D26) — and the lowering cost must stay at or below
--max-compile-us-per-program (default 5.0 µs per program).

The "contended_wait" section (the D27 detect layer: hot keys, 30% shared
locks, FIFO queues, continuous detection) is gated the same way: its
counts (txns, committed, steps, waits, component_loads, detections,
rollbacks) exactly, its stepping-loop allocations per wait at exactly 0,
and its cost at or below --max-contended-us-per-wait (default 6.0 µs per
wait). component_loads counts the waits whose detection swept the
requester's component instead of stopping at the lock table's early-out
(D28).

When the file carries a "generate" section (the D24 generation micro;
absent from older files, which skip these gates unless the baseline has
one), the program and op
counts and allocs_per_program (heap blocks per generated program: the
ops, lock positions and initial vars) must match the baseline exactly,
and the generation cost must stay at or below
--max-generate-us-per-program (default 2.0 µs per program).

Usage:
  check_bench_regression.py \
      --current BENCH_parallel.json \
      --baseline bench/baselines/BENCH_parallel.json \
      --current-overhead BENCH_parallel_overhead.json \
      --current-cross-shard BENCH_cross_shard.json \
      --cross-shard-baseline bench/baselines/BENCH_cross_shard.json \
      --current-hotpath BENCH_hotpath.json \
      --hotpath-baseline bench/baselines/BENCH_hotpath.json \
      [--max-speedup-drop-pct 15] [--max-overhead-pct 5] \
      [--min-cross-goodput 0.8] [--min-hotpath-txns-per-sec 210000] \
      [--max-compile-us-per-program 5.0] [--max-generate-us-per-program 2.0] \
      [--max-contended-us-per-wait 6.0]
"""

import argparse
import json
import sys


def load(path):
    with open(path) as f:
        return json.load(f)


def first_json_divergence(a, b, path="$"):
    """First key path (dict keys sorted, list indices in order) where the
    two parsed JSON documents differ, as (path, value_a, value_b); None
    when identical. '<absent>' marks a key/index present on one side only.
    """
    if type(a) is not type(b):
        return (path, a, b)
    if isinstance(a, dict):
        for k in sorted(set(a) | set(b)):
            sub = f"{path}.{k}"
            if k not in a:
                return (sub, "<absent>", b[k])
            if k not in b:
                return (sub, a[k], "<absent>")
            hit = first_json_divergence(a[k], b[k], sub)
            if hit:
                return hit
        return None
    if isinstance(a, list):
        for i in range(max(len(a), len(b))):
            sub = f"{path}[{i}]"
            if i >= len(a):
                return (sub, "<absent>", b[i])
            if i >= len(b):
                return (sub, a[i], "<absent>")
            hit = first_json_divergence(a[i], b[i], sub)
            if hit:
                return hit
        return None
    if a != b:
        return (path, a, b)
    return None


def describe_report_mismatch(label, path_a, path_b, side_a, side_b):
    """On a report-identity failure, pin the first differing JSON key path
    and both values (the benches leave the two sides on disk). Diagnostic
    output only — the failure itself is still reported by the caller, so
    the exit-code contract is unchanged."""
    try:
        a = load(path_a)
        b = load(path_b)
    except (OSError, ValueError):
        print(f"{label}: report sides not on disk "
              f"({path_a}, {path_b}); cannot pin the differing key",
              file=sys.stderr)
        return
    hit = first_json_divergence(a, b)
    if hit is None:
        print(f"{label}: recorded report sides parse identical "
              f"(whitespace-only difference?)", file=sys.stderr)
        return
    where, va, vb = hit
    print(f"{label}: first differing key {where}: "
          f"{side_a}={va!r}  {side_b}={vb!r}", file=sys.stderr)


def check_scaling(current, baseline, max_drop_pct):
    failures = []
    base_by_shards = {row["shards"]: row for row in baseline}
    for row in current:
        shards = row["shards"]
        base = base_by_shards.get(shards)
        if base is None:
            continue
        committed = row["report"]["committed"]
        base_committed = base["report"]["committed"]
        if committed != base_committed:
            failures.append(
                f"shards={shards}: committed {committed} != baseline "
                f"{base_committed} (deterministic result drifted)")
        if shards == 1:
            continue  # speedup_vs_1 is 1.0 by construction
        speedup = row["speedup_vs_1"]
        base_speedup = base["speedup_vs_1"]
        floor = base_speedup * (1.0 - max_drop_pct / 100.0)
        verdict = "ok" if speedup >= floor else "FAIL"
        print(f"shards={shards}: speedup {speedup:.3f} vs baseline "
              f"{base_speedup:.3f} (floor {floor:.3f}) {verdict}")
        if speedup < floor:
            failures.append(
                f"shards={shards}: speedup {speedup:.3f} dropped more than "
                f"{max_drop_pct}% below baseline {base_speedup:.3f}")
    return failures


def check_cross_shard(current, baseline, min_goodput_ratio):
    failures = []
    base_by_frac = {row["cross_shard_fraction"]: row for row in baseline}
    goodput_at = {}
    for row in current:
        frac = row["cross_shard_fraction"]
        goodput_at[frac] = row["goodput"]
        if not row.get("report_deterministic", False):
            failures.append(
                f"cross-shard frac={frac}: report not byte-identical across "
                f"runs/worker counts (determinism contract broken)")
            describe_report_mismatch(
                f"cross-shard frac={frac}",
                "BENCH_cross_shard_report_expected.json",
                "BENCH_cross_shard_report_actual.json",
                "expected", "actual")
        if not row["report"]["global_serializable"]:
            failures.append(
                f"cross-shard frac={frac}: merged commit log not "
                f"conflict-serializable")
        base = base_by_frac.get(frac)
        if base is None:
            continue
        for field in ("committed", "goodput"):
            if row["report"][field] != base["report"][field]:
                failures.append(
                    f"cross-shard frac={frac}: {field} {row['report'][field]} "
                    f"!= baseline {base['report'][field]} "
                    f"(deterministic result drifted)")
    # Cross-shard coordination must not crater goodput: the 5% point has to
    # retain at least min_goodput_ratio of the shard-local (0%) goodput.
    if 0.0 in goodput_at and 0.05 in goodput_at and goodput_at[0.0] > 0:
        ratio = goodput_at[0.05] / goodput_at[0.0]
        verdict = "ok" if ratio >= min_goodput_ratio else "FAIL"
        print(f"cross-shard: goodput@0.05 / goodput@0 = {ratio:.3f} "
              f"(floor {min_goodput_ratio}) {verdict}")
        if ratio < min_goodput_ratio:
            failures.append(
                f"cross-shard: goodput ratio {ratio:.3f} below floor "
                f"{min_goodput_ratio}")
    else:
        failures.append("cross-shard: missing 0 or 0.05 fraction row")
    return failures


def check_hotpath(current, baseline, min_txns_per_sec,
                  max_compile_us_per_program, max_generate_us_per_program,
                  max_contended_us_per_wait):
    failures = []
    # Deterministic counts: identical on every host and on both sides of
    # the rewrite (the workload, seeds and schedulers are pinned). Any
    # drift is a behavior change, not noise.
    deterministic = [
        ("lock_release", "ops"),
        ("rollback", "pairs"),
        ("rollback", "rollbacks"),
        ("rollback", "deadlocks"),
        ("end_to_end", "txns"),
        ("end_to_end", "committed"),
        ("end_to_end", "steps"),
        ("end_to_end", "rollbacks"),
        ("steady_state", "steps"),
        ("contended_wait", "txns"),
        ("contended_wait", "committed"),
        ("contended_wait", "steps"),
        ("contended_wait", "waits"),
        ("contended_wait", "component_loads"),
        ("contended_wait", "detections"),
        ("contended_wait", "rollbacks"),
    ]
    for section, field in deterministic:
        cur = current[section][field]
        base = baseline[section][field] if baseline else cur
        if cur != base:
            failures.append(
                f"hotpath: {section}.{field} {cur} != baseline {base} "
                f"(deterministic result drifted)")
    # The D15 invariant: the warm grant/release fast path performs zero
    # heap allocations — gated exactly, not within a tolerance. D27 extends
    # it to a contended wait, its detection and the rollbacks it causes.
    for section, field in (("lock_release", "allocs_per_op"),
                           ("steady_state", "allocs_per_step"),
                           ("contended_wait", "allocs_per_wait")):
        val = current[section][field]
        verdict = "ok" if val == 0 else "FAIL"
        print(f"hotpath: {section}.{field} = {val} (must be exactly 0) "
              f"{verdict}")
        if val != 0:
            failures.append(
                f"hotpath: {section}.{field} = {val}, fast path allocates "
                f"(must be exactly 0)")
    tps = current["end_to_end"]["txns_per_second"]
    verdict = "ok" if tps >= min_txns_per_sec else "FAIL"
    print(f"hotpath: end-to-end {tps:.0f} txns/s "
          f"(floor {min_txns_per_sec:.0f}) {verdict}")
    if tps < min_txns_per_sec:
        failures.append(
            f"hotpath: end-to-end {tps:.0f} txns/s below floor "
            f"{min_txns_per_sec:.0f}")
    for section, field in (("lock_release", "ops_per_second"),
                           ("rollback", "rollbacks_per_second")):
        base = baseline[section][field] if baseline else 0
        print(f"hotpath: {section}.{field} = {current[section][field]:.0f} "
              f"(baseline {base:.0f}, informational)")
    # D16 compile gates. The "compile" section is absent from pre-D16 files,
    # which skip the cost ceiling. When present, the lowering counters are
    # deterministic (same pinned program set on every host) and the
    # lowering cost per program is capped.
    comp = current.get("compile")
    if comp and comp.get("enabled"):
        base_comp = (baseline or {}).get("compile")
        if base_comp and base_comp.get("enabled"):
            for field in ("programs", "compiled_bytes"):
                if comp[field] != base_comp[field]:
                    failures.append(
                        f"hotpath: compile.{field} {comp[field]} != baseline "
                        f"{base_comp[field]} (deterministic result drifted)")
        us = comp["us_per_program"]
        verdict = "ok" if us <= max_compile_us_per_program else "FAIL"
        print(f"hotpath: compile {us:.3f} us/program "
              f"(ceiling {max_compile_us_per_program}) {verdict}, "
              f"{comp['compiled_bytes']} uop bytes over "
              f"{comp['programs']} programs")
        if us > max_compile_us_per_program:
            failures.append(
                f"hotpath: compile cost {us:.3f} us/program above ceiling "
                f"{max_compile_us_per_program}")
    else:
        print("hotpath: compile section disabled or absent; skipping "
              "compile-cost gates")
    # D24 generation gates: the pinned draw is deterministic, so its op
    # count and its heap blocks per program are exact.
    gen = current.get("generate")
    base_gen = (baseline or {}).get("generate")
    if gen:
        if base_gen:
            for field in ("programs", "ops", "allocs_per_program"):
                if gen[field] != base_gen[field]:
                    failures.append(
                        f"hotpath: generate.{field} {gen[field]} != baseline "
                        f"{base_gen[field]} (deterministic result drifted)")
        us = gen["us_per_program"]
        verdict = "ok" if us <= max_generate_us_per_program else "FAIL"
        print(f"hotpath: generate {us:.3f} us/program (ceiling "
              f"{max_generate_us_per_program}) {verdict}, "
              f"{gen['allocs_per_program']} heap blocks/program over "
              f"{gen['programs']} programs")
        if us > max_generate_us_per_program:
            failures.append(
                f"hotpath: generation cost {us:.3f} us/program above ceiling "
                f"{max_generate_us_per_program}")
    elif base_gen:
        failures.append("hotpath: generate section missing but the baseline "
                        "has one")
    else:
        print("hotpath: generate section absent; skipping generation gates")
    # D27 detect-layer ceiling; its counts and allocations are gated above.
    us = current["contended_wait"]["us_per_wait"]
    verdict = "ok" if us <= max_contended_us_per_wait else "FAIL"
    print(f"hotpath: contended_wait {us:.3f} us/wait (ceiling "
          f"{max_contended_us_per_wait}) {verdict}")
    if us > max_contended_us_per_wait:
        failures.append(
            f"hotpath: contended wait cost {us:.3f} us/wait above ceiling "
            f"{max_contended_us_per_wait}")
    return failures


def check_overhead(overhead, max_overhead_pct):
    failures = []
    pct = overhead["overhead_pct"]
    print(f"telemetry overhead {pct:.2f}% (budget {max_overhead_pct}%)")
    if pct > max_overhead_pct:
        failures.append(f"telemetry overhead {pct:.2f}% exceeds budget "
                        f"{max_overhead_pct}%")
    # Lifecycle-timeline increment (D13): measured against the instrumented
    # run it rides on, gated on the same budget. Absent in pre-D13 files.
    if "timeline_overhead_pct" in overhead:
        tpct = overhead["timeline_overhead_pct"]
        print(f"timeline overhead {tpct:.2f}% (budget {max_overhead_pct}%)")
        if tpct > max_overhead_pct:
            failures.append(f"timeline overhead {tpct:.2f}% exceeds budget "
                            f"{max_overhead_pct}%")
    # Decision-journal increment (D14): measured against the txnlife run it
    # rides on, gated on the same budget. Absent in pre-D14 files.
    if "journal_overhead_pct" in overhead:
        jpct = overhead["journal_overhead_pct"]
        print(f"journal overhead {jpct:.2f}% (budget {max_overhead_pct}%)")
        if jpct > max_overhead_pct:
            failures.append(f"journal overhead {jpct:.2f}% exceeds budget "
                            f"{max_overhead_pct}%")
    return failures


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--current")
    ap.add_argument("--baseline")
    ap.add_argument("--current-overhead")
    ap.add_argument("--current-cross-shard")
    ap.add_argument("--cross-shard-baseline")
    ap.add_argument("--current-hotpath")
    ap.add_argument("--hotpath-baseline")
    ap.add_argument("--max-speedup-drop-pct", type=float, default=15.0)
    ap.add_argument("--max-overhead-pct", type=float, default=5.0)
    ap.add_argument("--min-cross-goodput", type=float, default=0.8)
    ap.add_argument("--min-hotpath-txns-per-sec", type=float, default=210000.0)
    ap.add_argument("--max-compile-us-per-program", type=float, default=5.0)
    ap.add_argument("--max-generate-us-per-program", type=float, default=2.0)
    ap.add_argument("--max-contended-us-per-wait", type=float, default=6.0)
    args = ap.parse_args()

    failures = []
    if args.current:
        failures += check_scaling(load(args.current), load(args.baseline),
                                  args.max_speedup_drop_pct)
    if args.current_cross_shard:
        failures += check_cross_shard(
            load(args.current_cross_shard),
            load(args.cross_shard_baseline) if args.cross_shard_baseline
            else [],
            args.min_cross_goodput)
    if args.current_hotpath:
        failures += check_hotpath(
            load(args.current_hotpath),
            load(args.hotpath_baseline) if args.hotpath_baseline else None,
            args.min_hotpath_txns_per_sec,
            args.max_compile_us_per_program,
            args.max_generate_us_per_program,
            args.max_contended_us_per_wait)
    if args.current_overhead:
        failures += check_overhead(load(args.current_overhead),
                                   args.max_overhead_pct)

    if failures:
        print("\nbench regression gate FAILED:", file=sys.stderr)
        for f in failures:
            print(f"  - {f}", file=sys.stderr)
        return 1
    print("bench regression gate passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
