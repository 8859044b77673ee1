#!/usr/bin/env python3
"""Bench-smoke regression guard: validate the BENCH_*.json artifacts.

Run by tools/run_tier1.sh --bench-smoke (and therefore by CI) right after
the bench-smoke loop. A bench driver that silently stops emitting its JSON
-- or starts emitting an empty/unparsable table -- fails the PR here
instead of uploading a rotten artifact.

Checks, per artifact directory:
  1. every EXPECTED bench name has its BENCH_<name>.json file;
  2. every BENCH_*.json present (expected or not) parses as JSON and carries
     the bench::emit_json shape: non-empty "columns", non-empty "rows", and
     a non-empty "column_stats" object (at least one fully-numeric column);
  3. prefix families with data-dependent membership (utilization_mix<N>)
     have at least their minimum count.

Keep EXPECTED in sync with the bench::report call sites (grep
`bench::report(` under bench/). The test for this file is the CI bench
smoke itself.

Usage: check_bench_json.py <dir-with-BENCH_json-files>
"""

import json
import sys
from pathlib import Path

# Names every --bench-smoke run must emit (bench::report's first argument).
EXPECTED = [
    "ablation_budget",
    "ablation_contention_dram",
    "ablation_contention_gpu",
    "ablation_estimator",
    "ablation_exploration_extraction",
    "ablation_exploration_sweep",
    "ablation_search",
    "ablation_stages",
    "ablation_training",
    "cluster_scaling",
    "estimator_accuracy",
    "fault_recovery",
    "fig1_motivation",
    "fig4_estimator_training",
    "fig4_parallel_design",
    "fig5_throughput_mix3",
    "fig5_throughput_mix4",
    "fig5_throughput_mix5",
    "optimality_gap",
    "parallel_mcts",
    "runtime_overhead",
    "runtime_overhead_batching",
    "runtime_overhead_kernels",
    "runtime_overhead_plan_stages",
    "runtime_overhead_slo_replay",
    "runtime_overhead_warm_percentiles",
    "scalability",
    "serving_scenarios",
    "serving_scenarios_high",
    "serving_scenarios_low",
    "serving_scenarios_medium",
    "serving_slo",
    "serving_slo_loose",
    "serving_slo_medium",
    "serving_slo_tight",
]

# (prefix, minimum file count) for families whose exact membership is
# data-dependent (bench_utilization skips a mix whose baseline is
# infeasible).
EXPECTED_PREFIXES = [
    ("utilization_mix", 1),
]


def check_document(path: Path) -> list[str]:
    """Validates one BENCH_*.json file; returns a list of problems."""
    problems = []
    try:
        doc = json.loads(path.read_text())
    except (OSError, json.JSONDecodeError) as err:
        return [f"{path.name}: unreadable or invalid JSON ({err})"]
    for key in ("bench", "columns", "rows", "column_stats"):
        if key not in doc:
            problems.append(f"{path.name}: missing '{key}'")
    if not doc.get("columns"):
        problems.append(f"{path.name}: empty 'columns'")
    if not doc.get("rows"):
        problems.append(f"{path.name}: empty 'rows' (driver emitted no data)")
    stats = doc.get("column_stats")
    if not isinstance(stats, dict) or not stats:
        problems.append(
            f"{path.name}: empty 'column_stats' (no fully-numeric column -- "
            "the table degenerated to strings)"
        )
    elif not all(
        isinstance(s, dict) and {"mean", "stddev", "min", "max", "count"} <= set(s)
        for s in stats.values()
    ):
        problems.append(f"{path.name}: malformed 'column_stats' entry")
    return problems


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__.strip().splitlines()[-1], file=sys.stderr)
        return 2
    bench_dir = Path(argv[1])
    if not bench_dir.is_dir():
        print(f"check_bench_json: no such directory: {bench_dir}", file=sys.stderr)
        return 2

    present = sorted(bench_dir.glob("BENCH_*.json"))
    problems = []

    names = {p.name[len("BENCH_") : -len(".json")] for p in present}
    for expected in EXPECTED:
        if expected not in names:
            problems.append(f"missing artifact: BENCH_{expected}.json")
    for prefix, minimum in EXPECTED_PREFIXES:
        count = sum(1 for n in names if n.startswith(prefix))
        if count < minimum:
            problems.append(
                f"prefix family '{prefix}*': found {count}, expected >= {minimum}"
            )

    for path in present:
        problems.extend(check_document(path))

    if problems:
        print("check_bench_json: FAIL", file=sys.stderr)
        for p in problems:
            print(f"  - {p}", file=sys.stderr)
        return 1
    print(
        f"check_bench_json: OK ({len(present)} artifacts, "
        f"{len(EXPECTED)} expected names all present and well-formed)"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
