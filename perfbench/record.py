"""Record the reference outputs that every benchmark run is checked against.

Run from the root of a source checkout, on a commit whose outputs are known
to be right::

    python3 perfbench/record.py

It writes ``perfbench/reference.json``: the ``verify-all`` law lines, which do
not depend on the seed (checked on two seeds), and one digest per operation
of the first pool (pass 0) of ``dense-products`` and ``text-sparse`` for each
seed in ``SEEDS``.  Later pools are checked by the identities alone.
"""

import json
import sys
from collections import defaultdict

import run

sys.path.insert(0, str(run.SRC))
import workloads  # noqa: E402

SEEDS = range(32)


def verify_lines(seed: int) -> dict:
    wl = workloads.VerifyAll(seed, {"verify-all": defaultdict(list)})
    return {op.label: [r.line() for r in op.run()] for op in wl.ops}


def digests(name: str, seed: int) -> list:
    result = run.run_pass(workloads.WORKLOADS[name](seed, {}).ops)
    if result["problems"]:
        raise SystemExit(f"{name} seed {seed}: {result['problems'][:3]}")
    return result["digests"]


def main() -> int:
    lines = verify_lines(0)
    if verify_lines(7) != lines:
        raise SystemExit("verify-all law lines depend on the seed")
    if not all(line.startswith("PASS") for law in lines.values() for line in law):
        raise SystemExit("a verify-all law does not hold")
    reference = {"verify-all": lines, "digests": {}}
    for name in ("dense-products", "text-sparse"):
        reference["digests"][name] = {str(s): digests(name, s) for s in SEEDS}
        print(f"{name}: {len(SEEDS)} seeds recorded", flush=True)
    with open(run.REFERENCE, "w", encoding="utf-8") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
