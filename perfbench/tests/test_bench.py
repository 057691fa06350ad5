"""Tests of the benchmark itself.  Run from the checkout root::

    python3 -m pytest -q perfbench/tests
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import checks  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
REFERENCE = json.loads(run.REFERENCE.read_text(encoding="utf-8"))
GENERATED = [workloads.DenseProducts, workloads.TextSparse]


def bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, str(Path(cwd) / "perfbench" / "run.py"), *args],
        capture_output=True, text=True, cwd=cwd, timeout=300, check=False,
    )


def result_of(proc) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", GENERATED)
def test_inputs_repeat_per_seed_and_differ_across_seeds(workload):
    def inputs(seed):
        return [op.inputs for op in workload(seed, REFERENCE).ops]

    assert inputs(4) == inputs(4)
    assert inputs(4) != inputs(5)


@pytest.mark.parametrize("workload", GENERATED)
def test_every_pass_gets_fresh_operands_of_the_same_shapes(workload):
    wl = workload(4, REFERENCE)
    pools = [wl.ops, wl.pool(1), wl.pool(2)]
    assert [op.inputs for op in wl.pool(1)] == [op.inputs for op in pools[1]]
    kinds = [[op.label.split()[0] for op in pool] for pool in pools]
    assert kinds[0] == kinds[1] == kinds[2]
    inputs = [[op.inputs for op in pool] for pool in pools]
    for i in range(len(wl.ops)):
        if kinds[0][i] not in ("solomon", "truncation", "orbit"):
            assert inputs[0][i] != inputs[1][i] != inputs[2][i], wl.ops[i].label


def test_dense_compositions_mix_support_sizes_and_block_counts():
    shapes = workloads.DenseProducts.COMPOSE
    assert {s[0] for s in shapes} == {5, 6}
    assert len({s[3:] for s in shapes}) > 6


def first_output(workload, label_prefix):
    wl = workload(0, REFERENCE)
    op = next(op for op in wl.ops if op.label.startswith(label_prefix))
    out = op.run()
    problems, _ = op.check(out)
    assert problems == []
    return op, out


@pytest.mark.parametrize("prefix", ["compose", "coproduct", "tensor-compose", "solomon"])
def test_perturbed_library_output_is_caught(prefix):
    op, out = first_output(workloads.DenseProducts, prefix)
    terms = dict(out.terms)
    key = next(iter(terms))
    terms[key] += 1
    problems, _ = op.check(type(out)._make(terms))
    assert problems


@pytest.mark.parametrize("prefix", ["conv", "comp", "coprod", "solomon", "young"])
def test_perturbed_cli_output_is_caught(prefix):
    op, (code, text) = first_output(workloads.TextSparse, prefix)
    if prefix == "young":
        copied = text.replace("1", "2", 1) if "1" in text else text + "x"
    elif text.lstrip().startswith("{"):
        obj = json.loads(text)
        obj["terms"][0]["coeff"] += 1
        copied = json.dumps(obj)
    else:
        head, star, rest = text.partition("*")
        copied = f"{int(head) + 1}{star}{rest}"
    problems, _ = op.check((code, copied))
    assert problems
    problems, _ = op.check((2, text))
    assert problems


def test_changed_verify_law_line_is_caught():
    wl = workloads.VerifyAll(0, REFERENCE)
    op = next(op for op in wl.ops if op.label == "dims")
    results = op.run()
    assert op.check(results)[0] == []
    broken = [type(r)(r.suite, r.law, r.ok, r.detail + " 541") for r in results]
    assert op.check(broken)[0]


def test_reference_checks():
    assert checks.solomon_by_truncation((1, 1), (1, 1)) == {(1, 1): 2}
    assert checks.matrix_count((1, 1), (1, 1)) == 2
    assert checks.text_coeff_sum("-3*[{1}|{2}] + 1*[{1,2}] - 2*[]") == -4
    x = {((1,), (2,)): 2, ((1, 2),): -1}
    assert checks.compose_coeff_sum(x, x) == 1
    assert checks.coproduct_coeff_sum(x) == 4
    assert checks.tensor_compose_coeff_sum(x, x) == 4
    assert checks.conv_coeff_sum(x, {((3,),): 5}) == 5
    assert checks.is_young_factorization((2, 2), (2, 4, 1, 3), (2, 1, 4, 3), (1, 3, 2, 4))


def test_tracer_wraps_every_import_site_and_restores_them():
    import twisted_descents
    from twisted_descents import algebra, cli, setcomp, solomon, verify

    originals = {
        (m, name): getattr(m, name)
        for m, name in [(verify, "compose_basis"), (verify, "coproduct"),
                        (solomon, "composition_product"), (cli, "parse"),
                        (twisted_descents, "coproduct"), (algebra, "conv_basis")]
    }
    tr = tracer.Tracer()
    sites = tr.install()
    try:
        for (m, name), fn in originals.items():
            assert getattr(m, name) is not fn
            assert f"{m.__name__}.{name}" in sites
        x = twisted_descents.basis([[1], [2]])
        verify.coproduct(solomon.composition_product(x, x))
    finally:
        tr.remove()
    for (m, name), fn in originals.items():
        assert getattr(m, name) is fn
    flat = tr.metrics()
    assert flat["algebra.composition_product.calls"] == 1
    assert flat["algebra.compose_basis.hits"] == 1
    assert flat["algebra.coproduct.terms_out"] == 4
    assert flat["setcomp.objects_created"] > 0
    assert setcomp.SetComposition([[1, 2], [3]]).support == frozenset({1, 2, 3})


def test_metric_names_match_benchmark_json():
    assert list(run.END_TO_END) == [m["name"] for m in SPEC["end_to_end"]]
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == run.per_layer_units()
    assert sorted(w["name"] for w in SPEC["workloads"]) == sorted(workloads.WORKLOADS)


def test_printed_metrics_match_and_counts_repeat():
    e2e = result_of(bench("--workload", "dense-products", "--seed", "2", "--seconds", "1"))
    assert e2e["correct"] and e2e["failed"] == 0
    assert set(e2e["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    traced = [
        result_of(bench("--workload", "dense-products", "--seed", "2", "--seconds", "1",
                        "--trace", "1"))
        for _ in range(2)
    ]
    assert set(traced[0]["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    counts = [
        {k: v["value"] for k, v in t["metrics"].items() if v["unit"] == "count"}
        for t in traced
    ]
    assert counts[0] == counts[1]
    dense = workloads.DenseProducts
    # Every product the workload makes is seen, however the op calls it.
    assert counts[0]["algebra.composition_product.calls"] >= (
        len(dense.COMPOSE) + len(dense.ORBITS))
    assert counts[0]["algebra.coproduct.calls"] == (
        len(dense.COPRODUCT) + 2 * len(dense.TENSOR))
    assert counts[0]["oracle.represent.calls"] == 0


def test_verify_all_pass_runs_in_a_fresh_interpreter():
    proc = bench("--workload", "verify-all", "--seed", "0", "--pass", "0")
    result = result_of(proc)
    assert result["attempted"] == 39 and result["failed"] == 0
    assert len(result["times"]) == len(workloads.VerifyAll.SIZES)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", "text-sparse", "--seed", "1", "--seconds", "1",
                 cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_baseline_records_machine_and_python():
    baseline = json.loads((BENCH / "baseline.json").read_text(encoding="utf-8"))
    assert {"cpu", "cpus", "python"} <= set(baseline["machine"])
    for workload in SPEC["workloads"]:
        rows = baseline["workloads"][workload["name"]]
        assert {m["name"] for m in SPEC["end_to_end"]} <= set(rows)
