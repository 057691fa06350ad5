"""Run the benchmark once per seed and report each metric's median and spread.

Run from the root of a source checkout::

    python3 perfbench/spread.py --workload dense-products --seeds 1-10
    python3 perfbench/spread.py --seeds 1-10 --baseline perfbench/baseline.json

The spread is the distance between the first and third quartiles
(``statistics.quantiles(values, n=4)``) as a share of the median.  Every run
is a fresh interpreter, run one after the other.  With ``--baseline`` the
medians, quartiles and machine and Python details are written as JSON.
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

import run

HERE = Path(__file__).resolve().parent


def seeds_of(text: str) -> list:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(workload: str, seed: int, seconds: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds)]
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=HERE.parent,
                          timeout=600, check=False)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} exited {proc.returncode}: {proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"] or result["failed"]:
        raise SystemExit(f"{workload} seed {seed} failed: {proc.stderr[-2000:]}")
    return result


def summary(values: list) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median}


def machine() -> dict:
    cpu = ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), "")
    except OSError:
        pass
    return {
        "cpu": cpu or platform.processor(),
        "cpus": os.cpu_count(),
        "machine": platform.machine(),
        "system": f"{platform.system()} {platform.release()}",
        "python": f"{platform.python_implementation()} {platform.python_version()}",
        "interpreter_start_ms": run.probe_ms("pass"),
    }


def main() -> int:
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", action="append", choices=names)
    parser.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--baseline", type=Path, help="write the summary here")
    args = parser.parse_args()
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    report = {"machine": machine(), "seeds": args.seeds, "seconds": args.seconds,
              "workloads": {}}
    for workload in args.workload or names:
        values: dict = {}
        start = time.perf_counter()
        for seed in seeds_of(args.seeds):
            result = run_once(workload, seed, args.seconds)
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
        wall = time.perf_counter() - start
        print(f"{workload}: {len(seeds_of(args.seeds))} runs in {wall:.0f} s")
        rows = {}
        for name, vals in values.items():
            rows[name] = summary(vals) if len(vals) > 1 else {"median": vals[0]}
            row, bound = rows[name], bounds.get(name)
            limit = f"bound {bound}" if bound else ""
            print(f"  {name:40s} median {row['median']:12.6g}"
                  + (f"  spread {row['spread']:.4f}" if "spread" in row else "")
                  + f"  {limit}")
        report["workloads"][workload] = rows
    if args.baseline:
        args.baseline.write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
