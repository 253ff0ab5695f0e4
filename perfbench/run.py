#!/usr/bin/env python3
"""Crawl benchmark runner.

    python3 perfbench/run.py --workload scan-mem --seed 1 --seconds 20 --trace 0

Builds the `perfbench` binary from source (into $CARGO_TARGET_DIR, default
`.bench_build`), then runs cold repetitions of one workload, each in a fresh
process, until --seconds of wall time are used (at least three). Every
repetition's output is checked against the reference for its seed: the
pinned one in refs.json, or else the oracle's (tree-walking interpreter,
naive matcher, one worker), computed once per checkout and cached beside
the build. With --trace 1 it makes one traced run instead and reports the
per-layer metrics. The last stdout line is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

`--pin SEED...` recomputes refs.json for the given seeds. See README.md.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# Sites per repetition, sized so one repetition takes about 2-3 s on two
# shared cores. `compare` visits the 1.487% comparison set of its
# population six times (3 runs x 2 clients).
SITES = {"scan-mem": 5000, "scan-stream": 5000, "replay": 4000, "compare": 20000}
# Which reference a workload's output must equal: a replay reproduces the
# fault-free scan of the same population.
REF_KIND = {"scan-mem": "scan", "replay": "scan", "scan-stream": "stream", "compare": "compare"}
WORKERS = min(2, os.cpu_count() or 1)
MIN_REPS = 3
MAX_REPS = 40
# Wall-clock budget for everything after the build (the contract allows 180 s).
BUDGET_S = 150


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def target_dir():
    return os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build"))


def build():
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir())
    cmd = ["cargo", "build", "--release", "--quiet", "--manifest-path", os.path.join(HERE, "Cargo.toml")]
    if subprocess.run(cmd, env=env, stdout=sys.stderr).returncode != 0:
        sys.exit("perfbench: build failed")
    return os.path.join(target_dir(), "release", "perfbench")


class Bench:
    def __init__(self, binary, workload, seed, deadline):
        self.binary = binary
        self.workload = workload
        self.seed = seed
        self.sites = SITES[workload]
        self.deadline = deadline
        self.work = os.path.join(target_dir(), "perfbench-work", f"{workload}-{seed}-{os.getpid()}")
        shutil.rmtree(self.work, ignore_errors=True)
        os.makedirs(self.work)

    def child(self, cmd, directory, workload=None):
        """Run one benchmark process; return its JSON line."""
        args = [self.binary, cmd, "--workload", workload or self.workload, "--seed", str(self.seed),
                "--sites", str(self.sites), "--workers", str(WORKERS), "--dir", directory]
        timeout = max(1.0, self.deadline - time.monotonic())
        p = subprocess.run(args, capture_output=True, text=True, timeout=timeout)
        if p.returncode != 0:
            sys.exit(f"perfbench {cmd} failed ({p.returncode}): {p.stderr.strip()}")
        return json.loads(p.stdout.strip().splitlines()[-1])

    def reference(self):
        kind = REF_KIND[self.workload]
        key = f"{kind}/{self.sites}/{self.seed}"
        with open(os.path.join(HERE, "refs.json")) as f:
            pinned = json.load(f)
        if key in pinned:
            return pinned[key], "pinned"
        cache = os.path.join(target_dir(), "perfbench-oracle", key.replace("/", "-") + ".json")
        if os.path.exists(cache):
            with open(cache) as f:
                return json.load(f), "oracle (cached)"
        log(f"computing the oracle reference for {key}")
        ref = self.oracle()
        os.makedirs(os.path.dirname(cache), exist_ok=True)
        with open(cache, "w") as f:
            json.dump(ref, f)
        return ref, "oracle"

    def oracle(self):
        return self.child("oracle", os.path.join(self.work, "oracle"))

    def fresh_dir(self, name):
        d = os.path.join(self.work, name)
        shutil.rmtree(d, ignore_errors=True)
        return d

    def record(self, directory):
        """Record the bundle a replay reads; return its wall time."""
        t = time.time()
        self.child("record", directory, workload="replay")
        return time.time() - t

    def rep(self, i):
        d = self.fresh_dir(f"rep{i}")
        setup = self.record(d) if self.workload == "replay" else 0.0
        spawn = time.time()
        out = self.child("rep", d)
        # Set-up ends when the first item completes: that covers the
        # workers' realm templates and lazy one-time initialisation, which
        # run inside the first visit. run_compare has no per-item hook, so
        # its set-up ends where timing starts.
        out["setup_s"] = setup + out["t0_unix"] - spawn + out.get("first_done_s", 0.0)
        shutil.rmtree(d, ignore_errors=True)
        return out

    def trace(self):
        d = self.fresh_dir("trace")
        if self.workload == "replay":
            self.record(d)
        out = self.child("trace", d)
        spans = os.path.join(target_dir(), "perfbench-spans", f"{self.workload}-{self.seed}.tsv")
        os.makedirs(os.path.dirname(spans), exist_ok=True)
        shutil.move(os.path.join(d, "spans.tsv"), spans)
        log(f"spans written to {spans}")
        return out

    def check(self, out, ref):
        """Problems with one run's output (empty when it is correct)."""
        bad = []
        if out.get("digest") != ref["digest"]:
            bad.append(f"digest {out.get('digest')} != {ref['digest']}")
        if self.workload == "compare":
            if out.get("compare_set_ok") is False:
                bad.append("comparison set differs from the population's")
        else:
            for k in ("table5", "tables"):
                if out.get(k) != ref[k]:
                    bad.append(f"{k} {out.get(k)} != {ref[k]}")
            if out.get("completed") != ref["completed"] or out.get("failed_sites") != ref["failed_sites"]:
                bad.append("completed/failed counts differ from the reference")
            if out.get("attempted") != self.sites:
                bad.append(f"{out.get('attempted')} sites attempted, expected {self.sites}")
            if out.get("domain_mismatches", 0) != 0:
                bad.append(f"{out['domain_mismatches']} records carry another rank's domain")
        if self.workload == "replay" and (out.get("divergences") != 0 or out.get("replay_sites") != self.sites):
            bad.append(f"replay: {out.get('divergences')} divergences over {out.get('replay_sites')} sites")
        return bad


def quantile(sorted_xs, q):
    """Nearest-rank quantile of a sorted list."""
    i = min(len(sorted_xs) - 1, max(0, int(q * len(sorted_xs) + 0.5) - 1))
    return sorted_xs[i]


def end_to_end(b, reps):
    med = statistics.median
    m = {
        "setup_s": (med(r["setup_s"] for r in reps), "s"),
        "visits_per_s": (med(r["items"] / r["wall_s"] for r in reps), "1/s"),
        "cpu_ms_per_visit": (med(1e3 * r["cpu_s"] / r["items"] for r in reps), "ms"),
        "peak_rss_mib": (med(r["rss_kib"] / 1024 for r in reps), "MiB"),
        "bundle_bytes_per_site": (med(r["output_bytes"] / r["items"] for r in reps), "B"),
        "completed_share": (reps[-1]["completed"] / reps[-1]["attempted"], "ratio"),
    }
    if b.workload == "compare":
        # run_compare has no per-item hook: both figures carry the mean
        # service time per visit, workers x wall / visits.
        svc = med(1e3 * r["workers"] * r["wall_s"] / r["items"] for r in reps)
        m["visit_p50_ms"] = (svc, "ms")
        m["visit_p99_ms"] = (svc, "ms")
        samples = len(reps)
        note = ""
    else:
        # Per-item on-CPU time of the worker thread. The wall-clock gap
        # between a worker's completions also counts time the vCPU was
        # stolen, which on a shared host comes in bursts of milliseconds
        # and dominates its tail; it is printed for reference.
        cpu = sorted(c for r in reps for c in r["cpu_ns"])
        m["visit_p50_ms"] = (quantile(cpu, 0.50) / 1e6, "ms")
        m["visit_p99_ms"] = (quantile(cpu, 0.99) / 1e6, "ms")
        samples = len(cpu)
        gaps = sorted(g for r in reps for g in r["gaps_ns"])
        note = f"; wall-clock gaps p50 {quantile(gaps, 0.5) / 1e6:.4f} ms, p99 {quantile(gaps, 0.99) / 1e6:.4f} ms"
    return m, samples, note


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=sorted(SITES), required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--pin", type=int, nargs="*", help="recompute refs.json entries for these seeds")
    args = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)

    binary = build()
    start = time.monotonic()
    deadline = start + BUDGET_S

    if args.pin:
        path = os.path.join(HERE, "refs.json")
        with open(path) as f:
            pinned = json.load(f)
        for seed in args.pin:
            b = Bench(binary, args.workload, seed, start + 3600)
            key = f"{REF_KIND[args.workload]}/{b.sites}/{seed}"
            pinned[key] = b.oracle()
            shutil.rmtree(b.work, ignore_errors=True)
            log(f"pinned {key}: {pinned[key]}")
        with open(path, "w") as f:
            json.dump(dict(sorted(pinned.items())), f, indent=1)
            f.write("\n")
        return

    b = Bench(binary, args.workload, args.seed, deadline)
    ref, source = b.reference()
    try:
        if args.trace:
            out = b.trace()
            bad = b.check(out, ref)
            if not out["coverage_ok"]:
                bad.append(f"trace coverage: {out['L:trace.unexplained_pct']:.1f}% of site time unexplained")
            if not out["trace_records_ok"]:
                bad.append(f"traced records differ from the untraced run's ({out.get('record_mismatches')})")
            metrics = {}
            for m in spec["per_layer"]:
                metrics[m["name"]] = {"value": out["L:" + m["name"]], "unit": m["unit"]}
            attempted = out["items"]
            failed = 0 if not bad else attempted
            log(f"traced {out['spans']} spans: traced {out['traced_wall_s']:.2f} s, untraced "
                f"{out['untraced_wall_s']:.2f} s, unexplained {out['L:trace.unexplained_pct']:.2f}%, "
                f"overhead {out['L:obs.trace_overhead_pct']:.1f}%")
            for name, v in metrics.items():
                print(f"  {name:<38} {v['value']:>14.4f} {v['unit']}")
        else:
            reps, bad, failed = [], [], 0
            measure_start = time.monotonic()
            while len(reps) < MAX_REPS:
                elapsed = time.monotonic() - measure_start
                per_rep = elapsed / len(reps) if reps else 0
                if len(reps) >= MIN_REPS and (elapsed >= args.seconds or time.monotonic() + per_rep > deadline):
                    break
                out = b.rep(len(reps))
                problems = b.check(out, ref)
                if problems:
                    failed += out["items"]
                    bad += [f"rep {len(reps)}: {p}" for p in problems]
                reps.append(out)
            attempted = sum(r["items"] for r in reps)
            m, samples, note = end_to_end(b, reps)
            metrics = {e["name"]: {"value": m[e["name"]][0], "unit": e["unit"]} for e in spec["end_to_end"]}
            print(f"{args.workload} seed {args.seed}: {len(reps)} cold repetitions x {b.sites} sites, "
                  f"{WORKERS} workers on {os.cpu_count()} shared cores, {samples} latency samples{note}")
            for name, v in metrics.items():
                print(f"  {name:<24} {v['value']:>14.4f} {v['unit']}")
    finally:
        shutil.rmtree(b.work, ignore_errors=True)
    print(f"output check against the {source} reference: {'ok' if not bad else 'FAILED'}")
    for p in bad:
        print(f"  {p}")
    print(json.dumps({"correct": not bad, "attempted": attempted, "failed": failed, "metrics": metrics}))


if __name__ == "__main__":
    main()
