"""Benchmark for twisted-descents: one workload per run, measured for a set time.

Usage, from the root of a source checkout::

    python3 perfbench/run.py --workload dense-products --seed 3 --seconds 30 --trace 0

Workloads (see ``workloads.py``): ``verify-all``, ``dense-products`` and
``text-sparse``.  A run is a closed loop with one client: it runs passes
until ``--seconds`` have passed, checks every output, and prints its
metrics; the last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.  A pass of
``dense-products`` or ``text-sparse`` runs a fresh pool of operations drawn
from the seed and the pass number; a pass of ``verify-all`` is the whole
sweep, run in a fresh interpreter of its own.

``--trace 0`` reports the end-to-end metrics, with tracing off.
``--trace 1`` alternates untraced and traced passes and reports per-layer
counts and self times (see ``tracer.py``), per pass.

The program is imported from ``src/`` next to this directory; without it the
benchmark exits with code 2 and prints no result.
"""

import time

START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
REFERENCE = HERE / "reference.json"
SETUP_REPEATS = 9  # set-ups per run: this process and eight fresh interpreters
MIN_PASSES = 5  # each op slot's time is the median of at least this many passes
PROBE_REPEATS = 5  # fresh interpreters timed for the cli import
CHILD_TIMEOUT = 120

END_TO_END = {
    "sweep_s": "s",
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}


def per_layer_units() -> dict:
    """Every per-layer metric name with its unit, in report order."""
    import tracer
    import workloads

    units = {}
    for suite in workloads.VerifyAll.SIZES:
        units[f"verify.{suite}.s"] = "s"
    units["verify.self_s"] = "s"
    units["setcomp.objects_created"] = "count"
    for mod, functions in tracer.LAYERS.items():
        for fn, (reported, _) in functions.items():
            for stat in reported:
                unit = {"self_s": "s", "bytes": "bytes", "distinct_ratio": "ratio"}
                units[f"{mod}.{fn}.{stat}"] = unit.get(stat, "count")
    units["cli.import_ms"] = "ms"
    units["trace.overhead_ratio"] = "ratio"
    return units


# Machine speed drifts by tens of percent within a minute on a shared host.
# So a run measures it: after each op it spends CALIBRATION_SHARE of the op's
# time on fixed units of plain-Python work, and scales the pass's times by
# CALIBRATION_UNIT_S over the mean unit time it measured.  CALIBRATION_UNIT_S
# is the unit's typical time on the machine of the recorded baseline.
CALIBRATION_UNIT_S = 0.0009
CALIBRATION_SHARE = 0.1


def calibration_unit() -> float:
    """Seconds for one fixed unit of small-set, tuple and dict work."""
    start = time.perf_counter()
    acc: dict = {}
    for i in range(300):
        a = frozenset((i % 7, i % 11, i % 13, 20 + i % 5))
        b = frozenset((i % 5, i % 11, 30 + i % 3))
        key = tuple(sorted(a & b)) + tuple(sorted(a - b))
        acc[key] = acc.get(key, 0) + 1
    return time.perf_counter() - start


def speed_factor(units: int = 31) -> float:
    """Scale factor from a median of calibration units run now."""
    return CALIBRATION_UNIT_S / statistics.median(calibration_unit() for _ in range(units))


def run_pass(ops, reference=None, span=None) -> dict:
    """Run every op once and check each output; returns the pass as plain data.

    ``reference`` is the list of expected output digests, if recorded.
    ``span(label)``, if given, opens a tracer span around each op.  Times are
    scaled by the speed measured during the pass (see ``calibration_unit``).
    """
    clock = time.perf_counter
    out = {"times": [], "digests": [], "attempted": 0, "failed": 0, "problems": []}
    total = cal_time = budget = 0.0
    cal_units = 0
    for i, op in enumerate(ops):
        out["attempted"] += op.units
        start = clock()
        try:
            if span is None:
                result = op.run()
            else:
                with span(op.label):
                    result = op.run()
            failure = None
        except Exception:  # a failing op is counted, and the run goes on
            failure = f"{op.label}: {traceback.format_exc(limit=3)}"
        elapsed = clock() - start
        total += elapsed
        budget += elapsed * CALIBRATION_SHARE
        while budget > 0 or cal_units < 3:
            unit = calibration_unit()
            cal_time += unit
            cal_units += 1
            budget -= unit
        if failure:
            problems, digest, elapsed = [failure], None, None
        else:
            problems, digest = op.check(result)
            if reference is not None and digest != reference[i]:
                problems.append(f"{op.label}: output digest differs from the reference")
        out["times"].append(elapsed)
        out["digests"].append(digest)
        if problems:
            out["failed"] += min(len(problems), op.units)
            out["problems"].extend(problems)
    factor = CALIBRATION_UNIT_S * cal_units / cal_time
    out["times"] = [t if t is None else t * factor for t in out["times"]]
    out.update(factor=factor, raw_s=total, pass_s=total * factor,
               rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
    return out


class Tally:
    """Op timings, failures and memory across the passes of a run."""

    def __init__(self):
        self.op_samples: dict = {}  # op slot -> its scaled times, one per pass
        self.pass_times: list = []  # scaled to the calibration speed
        self.raw_pass_times: list = []
        self.factors: list = []
        self.rss_mb: list = []
        self.attempted = 0
        self.failed = 0
        self.problems: list = []

    def add(self, result: dict) -> float:
        """Count one pass from ``run_pass``; returns its scaled time."""
        self.attempted += result["attempted"]
        self.failed += result["failed"]
        self.problems.extend(result["problems"])
        for i, elapsed in enumerate(result["times"]):
            if elapsed is not None:
                self.op_samples.setdefault(i, []).append(elapsed)
        self.factors.append(result["factor"])
        self.raw_pass_times.append(result["raw_s"])
        self.pass_times.append(result["pass_s"])
        self.rss_mb.append(result["rss_mb"])
        return result["pass_s"]


def load_workload(name: str, seed: int):
    """Import the program from ``src/`` and build the workload; None if absent."""
    if not (SRC / "twisted_descents" / "__init__.py").is_file():
        return None
    sys.path.insert(0, str(SRC))
    import workloads

    import twisted_descents

    if Path(twisted_descents.__file__).resolve().parent != SRC / "twisted_descents":
        raise RuntimeError(f"imported twisted_descents from {twisted_descents.__file__}")
    with open(REFERENCE, encoding="utf-8") as fh:
        reference = json.load(fh)
    wl = workloads.WORKLOADS[name](seed, reference)
    wl.warm_up()
    wl.reference_digests = reference["digests"].get(name, {}).get(str(seed))
    return wl


def child(args: list, what: str) -> str:
    proc = subprocess.run(
        [sys.executable, *args], capture_output=True, text=True,
        timeout=CHILD_TIMEOUT, cwd=HERE.parent, check=False,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{what} exited {proc.returncode}: {proc.stderr[-2000:]}")
    lines = proc.stdout.strip().splitlines()
    return lines[-1] if lines else ""


def run_pool(wl, k: int, traced: bool = False) -> dict:
    """Run pass ``k`` in this process; a traced pass also reports its layers."""
    ops = wl.ops if k == 0 else wl.pool(k)
    reference = wl.reference_digests if k == 0 else None
    if not traced:
        return run_pass(ops, reference)
    import tracer

    tr = tracer.Tracer()
    tr.install()
    try:
        span = None
        if wl.span_layer is not None:
            def span(label):
                return tr.span(f"{wl.span_layer}.{label}")
        result = run_pass(ops, reference, span)
    finally:
        tr.remove()
    factor = result["factor"]
    result["layers"] = {name: v * factor if name.endswith("_s") else v
                        for name, v in tr.metrics().items()}
    return result


def one_pass(wl, args, k: int, traced: bool = False) -> dict:
    """Pass ``k``: in a fresh interpreter if the workload asks for one."""
    if not wl.fresh_process:
        return run_pool(wl, k, traced)
    line = child([__file__, "--workload", args.workload, "--seed", str(args.seed),
                  "--trace", str(int(traced)), "--pass", str(k)], "pass child")
    return json.loads(line)


def child_setup_s(args) -> float:
    line = child([__file__, "--workload", args.workload, "--seed", str(args.seed),
                  "--setup-only"], "set-up child")
    return json.loads(line)["setup_s"]


def probe_ms(code: str) -> float:
    """Median wall time of a fresh interpreter running ``code``, in ms.

    If ``code`` prints a number, that number is taken instead.
    """
    times = []
    for _ in range(PROBE_REPEATS):
        start = time.perf_counter()
        out = child(["-c", code], "probe")
        times.append(float(out) if out else (time.perf_counter() - start) * 1e3)
    return statistics.median(times)


def quantile(values: list, q: int) -> float:
    """The q-th percentile, by the exclusive method."""
    return statistics.quantiles(values, n=100)[q - 1]


def end_to_end(wl, args, setup_s: float) -> tuple:
    setups = [setup_s] + [child_setup_s(args) for _ in range(SETUP_REPEATS - 1)]
    tally = Tally()
    start = time.perf_counter()
    k = 0
    while k < MIN_PASSES or time.perf_counter() - start < args.seconds:
        tally.add(one_pass(wl, args, k))
        k += 1
    samples = list(tally.op_samples.values())
    # Each op slot's time is its median over the passes, each pass with fresh
    # operands of the slot's shape; the percentiles are taken over the slots
    # (on verify-all, over the 11 suites).
    typical = [statistics.median(s) for s in samples]
    metrics = {
        "sweep_s": statistics.median(tally.pass_times),
        "ops_per_s": sum(map(len, samples)) / sum(map(sum, samples)),
        "op_p50_ms": statistics.median(typical) * 1e3,
        "op_p90_ms": quantile(typical, 90) * 1e3,
        "peak_rss_mb": max(tally.rss_mb),
        "setup_s": statistics.median(setups),
    }
    where = "fresh interpreters" if wl.fresh_process else "fresh pools"
    print(f"{k} passes of {len(wl.ops)} ops in {where}; scaled set-ups (s): "
          + ", ".join(f"{s:.4f}" for s in setups))
    print(f"unscaled sweep_s {statistics.median(tally.raw_pass_times):.6g}; "
          f"speed factors {min(tally.factors):.3f} to {max(tally.factors):.3f}, "
          f"median {statistics.median(tally.factors):.3f}")
    return tally, {k: (v, END_TO_END[k]) for k, v in metrics.items()}


def counts_of(flat: dict) -> dict:
    return {k: v for k, v in flat.items() if not k.endswith("_s")}


def per_layer(wl, args, setup_s: float) -> tuple:
    tally = Tally()
    untraced, traced, layers = [], [], []
    start = time.perf_counter()
    k = 0
    while not traced or time.perf_counter() - start < args.seconds:
        untraced.append(tally.add(one_pass(wl, args, k)))
        result = one_pass(wl, args, k, traced=True)
        traced.append(tally.add(result))
        layers.append(result["layers"])
        k += 1
    # Counts are reported from the first traced pass; tracing its pool once
    # more must give them again.
    again = one_pass(wl, args, 0, traced=True)
    tally.add(again)
    if counts_of(again["layers"]) != counts_of(layers[0]):
        diff = sorted(name for name, v in counts_of(again["layers"]).items()
                      if layers[0].get(name) != v)
        tally.problems.append(f"counts of the first pool differ when traced again: {diff}")
    first = layers[0]
    units = per_layer_units()
    metrics = {}
    for name in units:
        key = name[:-2] + ".total_s" if name.startswith("verify.") and name.endswith(".s") \
            else name
        if name == "verify.self_s":
            values = [sum(v for k, v in f.items()
                          if k.startswith("verify.") and k.endswith(".self_s"))
                      for f in layers]
        elif key.endswith("_s"):
            values = [f.get(key, 0.0) for f in layers]
        else:
            values = [first.get(key, 0)]
        metrics[name] = statistics.median(values)
    metrics["cli.import_ms"] = probe_ms(
        f"import sys, time; sys.path.insert(0, {str(SRC)!r}); t = time.perf_counter(); "
        "import twisted_descents.cli; print((time.perf_counter() - t) * 1e3)"
    )
    metrics["trace.overhead_ratio"] = statistics.median(traced) / statistics.median(untraced)
    for name in wl.expect_calls:
        if not first[f"{name}.calls"]:
            tally.problems.append(f"{name} recorded no calls on {wl.name}")
    for name in wl.controls:
        if first[f"{name}.calls"]:
            tally.problems.append(f"control {name} recorded {first[f'{name}.calls']} calls")
    print(f"{len(untraced)} untraced and {len(traced) + 1} traced passes; "
          f"{platform.python_implementation()} {platform.python_version()} "
          f"on {platform.machine()}, {os.cpu_count()} CPUs")
    return tally, {k: (v, units[k]) for k, v in metrics.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(
        ["verify-all", "dense-products", "text-sparse"]))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--pass", type=int, dest="pass_index", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    wl = load_workload(args.workload, args.seed)
    if wl is None:
        print(f"error: no program source at {SRC}", file=sys.stderr)
        return 2
    setup_s = (time.perf_counter() - START) * speed_factor()
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0
    if args.pass_index is not None:
        print(json.dumps(run_pool(wl, args.pass_index, bool(args.trace))))
        return 0

    measure = per_layer if args.trace else end_to_end
    tally, metrics = measure(wl, args, setup_s)
    for problem in tally.problems[:10]:
        print(f"FAIL {problem}", file=sys.stderr)
    correct = not tally.problems
    print(f"workload {wl.name}, seed {args.seed}: fail_ratio "
          f"{tally.failed}/{tally.attempted} = {tally.failed / tally.attempted:.6g}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:48s} {value:14.6g} {unit}")
    print(json.dumps({
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
