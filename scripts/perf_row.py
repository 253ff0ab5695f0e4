#!/usr/bin/env python3
"""Turn alternated perfbench runs into one BENCH_perf.jsonl line.

Each input file holds the stdout of one `python3 perfbench/run.py` run. The
i-th `--parent` file and the i-th `--change` file form one pair. The
workload, seed, sites and workers come from each run's summary line
(`scan-mem seed 1: 10 cold repetitions x 5000 sites, 2 workers ...`); every
file must agree on them, or the script exits with an error. The metrics
come from each run's last line, the JSON result.

The line printed follows the schema in EXPERIMENTS.md: every end-to-end
metric of BENCHMARK.json maps `parent` and `change` to `[median, Q1, Q3]`
over the runs of that side, and `change_better` counts the pairs the change
won in the metric's `better` direction. Quartiles are nearest-rank, as in
perfbench/run.py. `--seconds` is the `--seconds` the runs were given.

    python3 scripts/perf_row.py --title "..." --parent-rev abc1234 \\
        --claim "scan-mem visit_p50_ms" --seconds 20 \\
        --parent p1.txt p2.txt --change c1.txt c2.txt >> BENCH_perf.jsonl

    python3 scripts/perf_row.py --self-test

The self-test also checks that every row already in BENCH_perf.jsonl lists
its triples as `[median, Q1, Q3]`.
"""

import argparse
import json
import os
import re
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
HOST = "Intel Xeon container, 2 vCPUs"
SUMMARY = re.compile(r"^(\S+) seed (\d+): \d+ cold repetitions x (\d+) sites, (\d+) workers ")


def quantile(sorted_xs, q):
    """Nearest-rank quantile of a sorted list."""
    i = min(len(sorted_xs) - 1, max(0, int(q * len(sorted_xs) + 0.5) - 1))
    return sorted_xs[i]


def summary(xs):
    s = sorted(xs)
    return [round(statistics.median(s), 4), round(quantile(s, 0.25), 4), round(quantile(s, 0.75), 4)]


def parse_run(name, text):
    """The `(workload, seed, sites, workers)` setup and the JSON result of one run."""
    lines = [line for line in text.splitlines() if line.strip()]
    setups = [m.groups() for m in map(SUMMARY.match, lines) if m]
    if len(setups) != 1:
        sys.exit(f"perf_row: {name} is not the output of one untraced run.py run")
    workload, seed, sites, workers = setups[0]
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        sys.exit(f"perf_row: {name} failed its output check")
    return (workload, int(seed), int(sites), int(workers)), result


def common_setup(runs):
    """The setup every run shares; exits naming the first run that differs."""
    (first_name, (setup, _)), *rest = runs
    for name, (other, _) in rest:
        if other != setup:
            sys.exit(f"perf_row: {name} ran {other}, but {first_name} ran {setup}")
    return setup


def paired_metrics(end_to_end, parent, change):
    """The `metrics` object of a row from paired run.py results."""
    if len(parent) != len(change) or not parent:
        sys.exit("perf_row: need the same non-zero number of parent and change runs")
    metrics = {}
    for spec in end_to_end:
        name = spec["name"]
        p = [r["metrics"][name]["value"] for r in parent]
        c = [r["metrics"][name]["value"] for r in change]
        won = sum(cv < pv if spec["better"] == "lower" else cv > pv for pv, cv in zip(p, c))
        metrics[name] = {"parent": summary(p), "change": summary(c), "change_better": won}
    return metrics


def self_test():
    end_to_end = [{"name": "visits_per_s", "better": "higher"}, {"name": "visit_p50_ms", "better": "lower"}]

    def run(v, p50, head="scan-mem seed 1: 3 cold repetitions x 5000 sites, 2 workers on 2 shared cores"):
        metrics = {"visits_per_s": {"value": v}, "visit_p50_ms": {"value": p50}}
        return parse_run("fixture", f"{head}\n  visits_per_s 1\n" + json.dumps(
            {"correct": True, "attempted": 10, "failed": 0, "metrics": metrics}))

    parent, change = [run(100.0, 0.5), run(120.0, 0.4)], [run(130.0, 0.45), run(110.0, 0.3)]
    assert parent[0][0] == ("scan-mem", 1, 5000, 2), parent[0][0]
    got = paired_metrics(end_to_end, [r for _, r in parent], [r for _, r in change])
    assert got == {
        "visits_per_s": {"parent": [110.0, 100.0, 120.0], "change": [120.0, 110.0, 130.0], "change_better": 1},
        "visit_p50_ms": {"parent": [0.45, 0.4, 0.5], "change": [0.375, 0.3, 0.45], "change_better": 2},
    }, got
    other_seed = run(100.0, 0.5, head="scan-mem seed 9: 3 cold repetitions x 5000 sites, 2 workers on 2 shared")
    try:
        common_setup([("p1", parent[0]), ("c1", other_seed)])
        raise AssertionError("runs of different seeds were accepted")
    except SystemExit as e:
        assert "c1 ran ('scan-mem', 9, 5000, 2)" in str(e), e
    check_committed_rows(os.path.join(ROOT, "BENCH_perf.jsonl"))
    print("perf_row: self-test ok")


def check_committed_rows(path):
    """Every non-null `[median, Q1, Q3]` triple in the committed rows has Q1 <= median <= Q3."""
    with open(path) as f:
        for n, line in enumerate(f, 1):
            for name, sides in json.loads(line)["metrics"].items():
                for side in ("parent", "change"):
                    if sides[side] is None:
                        continue
                    median, q1, q3 = sides[side]
                    assert q1 <= median <= q3, f"{path}:{n} {name} {side} {sides[side]} is not [median, Q1, Q3]"


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--self-test", action="store_true")
    ap.add_argument("--title")
    ap.add_argument("--claim", help="the metric a gain is claimed on, as 'workload metric'")
    ap.add_argument("--parent-rev")
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--parent", nargs="+", default=[])
    ap.add_argument("--change", nargs="+", default=[])
    args = ap.parse_args()
    if args.self_test:
        return self_test()
    if not (args.title and args.parent_rev and args.seconds and args.parent):
        ap.error("--title, --parent-rev, --seconds and --parent are required")
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        end_to_end = json.load(f)["end_to_end"]
    runs = []
    for path in args.parent + args.change:
        with open(path) as f:
            runs.append((path, parse_run(path, f.read())))
    workload, seed, sites, workers = common_setup(runs)
    results = [result for _, (_, result) in runs]
    out = {
        "parent_rev": args.parent_rev,
        "change_rev": None,
        "title": args.title,
        "claim": args.claim,
        "workload": workload,
        "seeds": [seed],
        "pairs": len(args.parent),
        "seconds_per_run": int(args.seconds) if args.seconds.is_integer() else args.seconds,
        "host": HOST,
        "sites": sites,
        "workers": workers,
        "metrics": paired_metrics(end_to_end, results[: len(args.parent)], results[len(args.parent):]),
    }
    print(json.dumps(out, separators=(",", ":")))


if __name__ == "__main__":
    main()
