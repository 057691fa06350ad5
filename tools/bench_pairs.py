"""Alternating parent/change runs of the perfbench workloads, summarised as JSON.

Each side runs from its own checkout of committed files, made here with
``git archive``.  Both checkouts start in the same bytecode-cache state, none:
every ``__pycache__`` is removed and every run has PYTHONDONTWRITEBYTECODE=1,
so each interpreter compiles the modules it imports.  The command, the
workloads and the run length are those of ``BENCHMARK.json``.  There are 10
pairs per workload; pair i runs seed ``--first-seed + i``, parent first in even
pairs and change first in odd ones.

    python tools/bench_pairs.py --parent HEAD~1 --change HEAD \\
        --workdir /tmp/pairs --first-seed 1701 --out BENCH_17.json

The output has the layout of the earlier ``BENCH_*.json`` records: per
workload the seeds, per end-to-end metric of ``BENCHMARK.json`` the parent's
and the change's quartiles, the median change and the change's wins, and
every pair's metrics.  ``--claim WORKLOAD:METRIC`` adds whether the change
wins at least 9 pairs in 10 and its median gap exceeds the parent's
interquartile range.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tarfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PAIRS = 10


def checkout(ref: str, dest: Path) -> str:
    """Extract the committed files of ``ref`` into ``dest``; returns its short hash."""
    if dest.exists():
        shutil.rmtree(dest)
    dest.mkdir(parents=True)
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", ref], check=True,
                             capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(dest)
    return subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--short", ref], check=True,
                          capture_output=True, text=True).stdout.strip()


def run_once(tree: Path, bench: dict, workload: str, seed: int) -> dict:
    """One run of the benchmark's command; its last stdout line, as JSON."""
    for cache in tree.rglob("__pycache__"):
        shutil.rmtree(cache)
    env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1"}
    env.pop("PYTHONPATH", None)
    out = subprocess.run(
        [*bench["command"], "--workload", workload, "--seed", str(seed),
         "--seconds", str(bench["run_seconds"]), "--trace", "0"],
        cwd=tree, env=env, check=True, capture_output=True, text=True,
    ).stdout
    return json.loads(out.strip().splitlines()[-1])


def machine() -> dict:
    cpu = platform.processor() or "unknown"
    cpuinfo = Path("/proc/cpuinfo")
    if cpuinfo.exists():
        for line in cpuinfo.read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    return {"cpu": cpu, "cpus": os.cpu_count(), "python": platform.python_version(),
            "implementation": platform.python_implementation()}


def quartiles(values: list) -> list:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return [round(q1, 4), round(q2, 4), round(q3, 4)]


def summarise(pairs: list, metrics: list) -> dict:
    summary = {}
    for m in metrics:
        name, sign = m["name"], 1 if m["better"] == "lower" else -1
        parent = [p["parent"][name] for p in pairs]
        change = [p["change"][name] for p in pairs]
        delta = statistics.median(change) / statistics.median(parent) - 1
        wins = sum(sign * (c - p) < 0 for p, c in zip(parent, change))
        summary[name] = {
            "parent_q1_median_q3": quartiles(parent),
            "change_q1_median_q3": quartiles(change),
            "median_change": round(delta, 4),
            "change_wins": f"{wins}/{len(pairs)}",
            "within_bound": sign * delta <= m["bound"],
        }
    return summary


def claim_check(summary: dict, metric: dict) -> dict:
    """Does the change win 9 pairs in 10, by more than the parent's spread?"""
    s = summary[metric["name"]]
    q1, q2, q3 = s["parent_q1_median_q3"]
    wins, total = map(int, s["change_wins"].split("/"))
    gap = -s["median_change"] if metric["better"] == "lower" else s["median_change"]
    spread = (q3 - q1) / q2
    return {"metric": metric["name"], "wins": s["change_wins"], "median_gap": round(gap, 4),
            "parent_iqr_over_median": round(spread, 4),
            "holds": wins * 10 >= 9 * total and gap > spread}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    ap.add_argument("--parent", required=True, help="git ref of the parent")
    ap.add_argument("--change", required=True, help="git ref of the change")
    ap.add_argument("--workdir", required=True, type=Path, help="where the checkouts go")
    ap.add_argument("--first-seed", type=int, required=True)
    ap.add_argument("--claim", help="WORKLOAD:METRIC the change claims to improve")
    ap.add_argument("--claim-text", default="none")
    ap.add_argument("--other-runs", default="")
    ap.add_argument("--out", required=True, type=Path)
    args = ap.parse_args(argv)

    trees = {"parent": args.workdir / "parent", "change": args.workdir / "change"}
    parent_hash = checkout(args.parent, trees["parent"])
    checkout(args.change, trees["change"])
    bench = json.loads((trees["change"] / "BENCHMARK.json").read_text())
    metrics = bench["end_to_end"]
    seeds = list(range(args.first_seed, args.first_seed + PAIRS))
    record = {
        "what": (
            f"perfbench, --seconds {bench['run_seconds']:g} --trace 0, {PAIRS} alternating"
            f" parent/change pairs per workload on seeds {seeds[0]}-{seeds[-1]}; each side in"
            " its own checkout of the committed files. Both checkouts start in the same"
            " bytecode-cache state, none (PYTHONDONTWRITEBYTECODE=1 and no __pycache__ in"
            " either), so every interpreter compiles the modules it imports. Quartiles are"
            " statistics.quantiles(values, n=4); median_change is change median / parent"
            " median - 1; a win is a pair where the change reads better, ties counting for"
            " neither. Written by tools/bench_pairs.py."
        ),
        "machine": machine(),
        "parent": parent_hash,
        "claim": args.claim_text,
        "other_runs": args.other_runs,
        "workloads": {},
    }
    for workload in (w["name"] for w in bench["workloads"]):
        pairs = []
        for i, seed in enumerate(seeds):
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            runs = {side: run_once(trees[side], bench, workload, seed) for side in order}
            pairs.append({
                "seed": seed,
                "first": order[0],
                **{side: {m["name"]: round(runs[side]["metrics"][m["name"]]["value"], 4)
                          for m in metrics} for side in ("parent", "change")},
                "correct": runs["parent"]["correct"] and runs["change"]["correct"],
                "failed": [runs["parent"]["failed"], runs["change"]["failed"]],
            })
            print(f"{workload} seed {seed}: {pairs[-1]}", file=sys.stderr, flush=True)
        record["workloads"][workload] = {
            "seeds": seeds, "summary": summarise(pairs, metrics), "pairs": pairs,
        }
    if args.claim:
        workload, name = args.claim.split(":")
        [metric] = [m for m in metrics if m["name"] == name]
        record["claim_check"] = {
            "workload": workload, **claim_check(record["workloads"][workload]["summary"], metric),
        }
    args.out.write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
