"""The three benchmark workloads: seeded inputs, the library calls, the checks.

One pass runs every operation of a pool once, in order; a run repeats
passes.  Each operation returns its output, and ``Op.check`` compares that
output with plain-Python identities from ``checks`` and returns the problems
found together with a digest of the output.

``dense-products`` and ``text-sparse`` make a fresh pool for every pass:
pool ``k`` is drawn from ``(seed, k)``, so no pass reuses the operands of
another.  The shapes of the operations (support sizes, term counts, block
counts, partition types) are fixed lists, put in an order drawn from the
seed; so slot ``i`` has the same shape in every pool, and only its content
(labels, blocks, coefficients, part orders) changes.  Two seeds or two passes
therefore give different inputs at nearly the same cost.

``verify-all`` runs the same sweep in every pass, each in a fresh
interpreter, as ``twisted-descents verify all`` does.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from functools import cache, partial

import checks

COEFFS = (-4, -3, -2, -1, 1, 2, 3, 4)


class Op:
    """One library call on fixed inputs, with its own output check.

    ``check(output)`` returns ``(problems, digest)``; ``units`` is how many
    checked outcomes the op counts for (laws for a verify suite, else 1);
    ``inputs`` is the generated input as plain data.
    """

    __slots__ = ("label", "run", "check", "units", "inputs")

    def __init__(self, label, run, check, inputs, units=1):
        self.label = label
        self.run = run
        self.check = check
        self.inputs = inputs
        self.units = units


def random_comp(rng: random.Random, labels, blocks: int | None = None) -> tuple:
    """A random set composition of ``labels``: shuffle, then cut.

    With ``blocks`` the word is cut into exactly that many blocks, else at
    each gap with probability 1/2.
    """
    word = list(labels)
    rng.shuffle(word)
    if blocks is None:
        cuts = [i for i in range(1, len(word)) if rng.random() < 0.5]
    else:
        cuts = sorted(rng.sample(range(1, len(word)), blocks - 1))
    edges = [0, *cuts, len(word)]
    return tuple(tuple(sorted(word[a:b])) for a, b in zip(edges, edges[1:]))


def random_element(rng: random.Random, supports, blocks: int | None = None) -> dict:
    """One term per support in ``supports``, with distinct compositions.

    When 100 draws all repeat earlier compositions, the last one only gets
    a new coefficient, so an element has fewer terms than supports when few
    compositions exist.
    """
    out: dict = {}
    for s in supports:
        for _ in range(100):
            comp = random_comp(rng, s, blocks)
            if comp not in out:
                break
        out[comp] = rng.choice(COEFFS)
    return out


def shuffled(rng: random.Random, parts) -> tuple:
    parts = list(parts)
    rng.shuffle(parts)
    return tuple(parts)


def _problem(label: str, got, want) -> list[str]:
    return [] if got == want else [f"{label}: got {got}, expected {want}"]


def _canonical(x) -> str:
    """Order-free text of a library element's terms, for digests."""
    def comp(sc):
        return tuple(tuple(sorted(b)) for b in sc)

    items = []
    for key, c in x.terms.items():
        if isinstance(key, tuple) and key and not isinstance(key[0], int):
            key = tuple(comp(k) for k in key)
        elif not isinstance(key, tuple):
            key = comp(key)
        items.append((key, c))
    return repr(sorted(items))


# --------------------------------------------------------------------------
# verify-all


class VerifyAll:
    """``verify all``, one suite per op, each suite one size step below its default."""

    name = "verify-all"
    span_layer = "verify"  # the benchmark opens one span per suite
    fresh_process = True  # every pass runs in its own interpreter
    # Size passed as Config.max_n; the oracle suite runs at max_support 3.
    SIZES = {
        "assoc-conv": 4,
        "assoc-comp": 4,
        "bialgebra": 3,
        "reciprocity": 4,
        "remarkable": 4,
        "oracle": None,
        "solomon": 4,
        "equivariance": 4,
        "shuffles": 5,
        "fixed-space": 3,
        "dims": 4,
    }
    MAX_SUPPORT = 3
    expect_calls = (
        "setcomp.enumerate_set_compositions",
        "algebra.compose_basis",
        "algebra.conv_basis",
        "algebra.composition_product",
        "algebra.convolution",
        "algebra.basis",
        "algebra.coproduct",
        "algebra.tensor_composition",
        "algebra.tensor_convolution",
        "oracle.represent",
        "oracle.b_coproduct",
        "oracle.endo_convolution",
        "oracle.endo_compose",
        "oracle.endo_of",
        "solomon.solomon_compose",
        "solomon.orbit_sum",
        "solomon.truncation_check",
    )
    controls = ("textio.parse", "cli.main")

    def __init__(self, seed: int, reference: dict):
        from twisted_descents import verify

        self.verify = verify
        self.seed = seed
        lines = reference["verify-all"]
        self.ops = [
            Op(name, self._runner(name), self._checker(lines[name]),
               repr(self.config(name)), len(lines[name]))
            for name in verify.SUITES
        ]

    def config(self, name: str):
        return self.verify.Config(
            max_n=self.SIZES[name], max_support=self.MAX_SUPPORT, seed=self.seed
        )

    def _runner(self, name):
        cfg = self.config(name)
        run_suite = self.verify.run_suite
        return lambda: run_suite(name, cfg)

    @staticmethod
    def _checker(want: list[str]):
        def check(results):
            got = [r.line() for r in results]
            problems = [
                f"law line {i}: {g!r} != {w!r}"
                for i, (g, w) in enumerate(zip(got, want))
                if g != w
            ]
            if len(got) != len(want):
                problems.append(f"{len(got)} law lines, expected {len(want)}")
            return problems, checks.digest("\n".join(got))

        return check

    def pool(self, k: int) -> list:
        """The sweep is the same in every pass."""
        return self.ops

    def warm_up(self):
        """Nothing: a sweep is timed as the first work of its process."""


class Pooled:
    """A workload whose pool of ops is drawn afresh for every pass.

    ``slots()`` lists one maker per op, each called with the pass's random
    generator; the seed fixes the order of the slots.
    """

    span_layer = None
    fresh_process = False

    def __init__(self, seed: int):
        self.seed = seed
        makers = self.slots()
        random.Random(f"{self.name}:{seed}").shuffle(makers)
        self.makers = makers
        self.ops = self.pool(0)

    def pool(self, k: int) -> list:
        """The ops of pass ``k``, drawn from ``(seed, k)``; ``ops`` is pool 0."""
        rng = random.Random(f"{self.name}:{self.seed}:{k}")
        return [make(rng) for make in self.makers]


# --------------------------------------------------------------------------
# dense-products


class DenseProducts(Pooled):
    """Library products on multi-term elements where every term pair interacts."""

    name = "dense-products"
    LABELS = range(1, 31)
    # 100 ops per pass.  (support size, terms of x, terms of y, blocks of each
    # term of x, of y): one support for all terms of an op.  A block count of
    # None cuts each gap with probability 1/2.  With only 30 two-block
    # compositions of 5 labels, such an x has at most 30 terms.
    COMPOSE = [(5, 30, 100, 2, 3), (5, 60, 50, 3, 3), (5, 100, 30, 4, 2),
               (5, 50, 60, None, None), (5, 50, 50, 4, 5), (5, 80, 40, 3, 4),
               (6, 32, 96, 3, 3), (6, 48, 64, 2, 4), (6, 64, 48, 4, 4),
               (6, 60, 50, None, None), (6, 40, 60, 5, 3), (6, 60, 60, 2, 6)] * 2
    # Partition types of the two orbit sums; the seed orders the parts.
    ORBITS = [((2, 2), (1, 1, 1, 1)), ((1, 1, 1, 1), (2, 1, 1)),
              ((2, 2, 1), (3, 1, 1)), ((3, 2), (1, 1, 1, 1, 1)),
              ((2, 1, 1, 1), (2, 2, 1)), ((3, 1, 1), (1, 1, 1, 1, 1)),
              ((2, 1, 1, 1), (2, 1, 1, 1)), ((2, 2, 1), (1, 1, 1, 1, 1)),
              ((2, 2), (2, 1, 1)), ((3, 1), (1, 1, 1, 1)),
              ((2, 2, 1), (2, 2, 1)), ((3, 2), (2, 2, 1))]
    # Support size of each term; supports differ between terms.  Each op
    # splits into 512 tensor terms, so these ops cost alike and hold the
    # median op time steady from seed to seed.
    COPRODUCT = [(8, 8), (8, 7, 7), (8, 6, 6, 6, 6), (7, 7, 7, 7), (8, 7, 6, 6),
                 (7, 7, 7, 6, 6), (8, 8), (8, 7, 7), (7, 7, 7, 7), (8, 7, 6, 6)] * 2
    # (support size, terms of x, terms of y) for δx ∘₂ δy.
    TENSOR = [(3, 2, 3), (3, 4, 4), (4, 2, 2), (4, 3, 3), (4, 4, 2), (3, 5, 3),
              (4, 2, 4), (3, 3, 3), (3, 2, 2), (4, 3, 2), (3, 4, 3), (4, 2, 3),
              (3, 3, 4), (4, 3, 4)]
    SOLOMON = [((1, 1, 1), (2, 1)), ((2, 2), (1, 1, 1, 1)), ((2, 1, 1), (2, 1, 1)),
               ((3, 2), (1, 1, 1, 1, 1)), ((2, 2, 1), (2, 2, 1)),
               ((3, 3), (2, 2, 1, 1)), ((2, 2, 1, 1), (3, 2, 1)),
               ((1, 1, 1, 1, 1, 1), (3, 3)), ((3, 2, 1, 1), (2, 2, 2, 1)),
               ((1, 1, 1, 1, 1, 1, 1), (4, 3)), ((2, 2, 2, 1), (3, 2, 2)),
               ((1, 1, 1, 1, 1, 1, 1), (2, 1, 1, 1, 1, 1)),
               ((2, 1), (1, 1, 1)), ((3, 1), (2, 2)), ((2, 2, 2), (3, 3)),
               ((1, 1, 1, 1, 1), (2, 2, 1)), ((3, 2, 1), (2, 2, 2)),
               ((4, 2), (2, 2, 1, 1)), ((2, 2, 2, 1), (1, 1, 1, 1, 1, 1, 1)),
               ((3, 3, 1), (2, 2, 2, 1))]
    TRUNCATION = [((2, 1), (1, 2)), ((2, 2), (3, 1)), ((2, 1, 1), (1, 3)),
                  ((3, 2), (2, 2, 1)), ((1, 1, 1), (2, 1)), ((3, 1), (2, 2)),
                  ((1, 1, 2), (2, 2)), ((2, 2, 1), (3, 2)), ((4, 1), (2, 1, 2)),
                  ((1, 1, 1, 1), (3, 1))]
    # Solomon results up to this weight are checked against orbit sums.
    TRUNCATION_WEIGHT = 5
    expect_calls = (
        "algebra.compose_basis",
        "algebra.composition_product",
        "algebra.coproduct",
        "algebra.tensor_composition",
        "solomon.solomon_compose",
        "solomon.orbit_sum",
        "solomon.truncation_check",
    )
    controls = (
        "oracle.represent",
        "oracle.b_coproduct",
        "oracle.endo_convolution",
        "oracle.endo_compose",
        "oracle.endo_of",
        "textio.parse",
        "cli.main",
    )

    def __init__(self, seed: int, reference: dict):
        import twisted_descents as td

        self.td = td
        super().__init__(seed)

    def slots(self) -> list:
        return (
            [partial(self._compose, shape=s) for s in self.COMPOSE]
            + [partial(self._orbits, shape=s) for s in self.ORBITS]
            + [partial(self._coproduct, sizes=s) for s in self.COPRODUCT]
            + [partial(self._tensor, shape=s) for s in self.TENSOR]
            + [partial(self._solomon, shape=s) for s in self.SOLOMON]
            + [partial(self._truncation, shape=s) for s in self.TRUNCATION]
        )

    def element(self, plain: dict):
        td = self.td
        return td.TDElement({td.SetComposition(c): k for c, k in plain.items()})

    def _compose(self, rng, shape):
        size, k1, k2, b1, b2 = shape
        s = rng.sample(self.LABELS, size)
        x, y = random_element(rng, [s] * k1, b1), random_element(rng, [s] * k2, b2)
        ex, ey = self.element(x), self.element(y)
        td = self.td  # looked up at call time, so a tracer sees the call
        want = cache(lambda: checks.compose_coeff_sum(x, y))
        label = f"compose |S|={size} {k1}x{k2} blocks {b1}/{b2}"
        return Op(label, lambda: td.composition_product(ex, ey),
                  self._sum_check(label, want), (x, y))

    def _orbits(self, rng, shape):
        td = self.td
        c1, c2 = (shuffled(rng, p) for p in shape)
        want = checks.multinomial(c1) * checks.multinomial(c2)
        label = f"orbit {c1} o {c2}"

        def run():
            return td.composition_product(td.orbit_sum(c1), td.orbit_sum(c2))

        return Op(label, run, self._sum_check(label, lambda: want), (c1, c2))

    def _coproduct(self, rng, sizes):
        x = random_element(rng, [rng.sample(self.LABELS, s) for s in sizes], 3)
        ex = self.element(x)
        td = self.td
        label = f"coproduct sizes {sizes}"
        want = cache(lambda: checks.coproduct_coeff_sum(x))
        return Op(label, lambda: td.coproduct(ex), self._sum_check(label, want), x)

    def _tensor(self, rng, shape):
        td = self.td
        size, k1, k2 = shape
        s = rng.sample(self.LABELS, size)
        x, y = random_element(rng, [s] * k1, 2), random_element(rng, [s] * k2, 2)
        ex, ey = self.element(x), self.element(y)
        label = f"tensor-compose |S|={size} {k1}x{k2}"
        want = cache(lambda: checks.tensor_compose_coeff_sum(x, y))

        def run():
            return td.tensor_composition(td.coproduct(ex), td.coproduct(ey))

        return Op(label, run, self._sum_check(label, want), (x, y))

    def _solomon(self, rng, shape):
        td = self.td
        c1, c2 = (shuffled(rng, p) for p in shape)
        a, b = td.DescentElement({c1: 1}), td.DescentElement({c2: 1})
        label = f"solomon {c1} o {c2}"

        @cache
        def want():
            if sum(c1) <= self.TRUNCATION_WEIGHT:
                return checks.solomon_by_truncation(c1, c2)
            return checks.matrix_count(c1, c2)

        def check(out):
            terms = dict(out.terms)
            got = terms if sum(c1) <= self.TRUNCATION_WEIGHT else sum(terms.values())
            return _problem(label, got, want()), checks.digest(_canonical(out))

        return Op(label, lambda: td.solomon_compose(a, b), check, (c1, c2))

    def _truncation(self, rng, shape):
        td = self.td
        c1, c2 = (shuffled(rng, p) for p in shape)
        a, b = td.DescentElement({c1: 1}), td.DescentElement({c2: 1})
        label = f"truncation {c1} o {c2}"

        def check(out):
            return _problem(label, out, True), checks.digest(repr(out))

        return Op(label, lambda: td.truncation_check(a, b), check, (c1, c2))

    @staticmethod
    def _sum_check(label, want):
        def check(out):
            got = sum(out.terms.values())
            return _problem(label, got, want()), checks.digest(_canonical(out))

        return check

    def warm_up(self):
        td = self.td
        x = self.element({((1,), (2,)): 1, ((1, 2),): 2})
        td.composition_product(x, x)
        td.tensor_composition(td.coproduct(x), td.coproduct(x))
        td.composition_product(td.orbit_sum((1, 1)), td.orbit_sum((2,)))
        a = td.DescentElement({(1, 1): 1})
        td.solomon_compose(a, a)
        td.truncation_check(a, a)


# --------------------------------------------------------------------------
# text-sparse


def element_text(rng: random.Random, elem: dict) -> str:
    """Grammar text for a plain element, terms in random order."""
    items = list(elem.items())
    rng.shuffle(items)
    parts = []
    for i, (comp, c) in enumerate(items):
        body = "[" + "|".join("{" + ",".join(map(str, b)) + "}" for b in comp) + "]"
        term = body if abs(c) == 1 and rng.random() < 0.5 else f"{abs(c)}*{body}"
        if i == 0:
            parts.append(("-" if c < 0 else "") + term)
        else:
            parts.append((" - " if c < 0 else " + ") + term)
    return "".join(parts) or "0"


class TextSparse(Pooled):
    """In-process CLI calls on text operands whose term pairs mostly annihilate."""

    name = "text-sparse"
    # (label pool size, terms of a, terms of b); support sizes cycle through
    # 2 to 4, so most ∗ pairs overlap.
    CONV = [(12, 20, 100), (12, 40, 80), (12, 60, 60), (12, 80, 40), (12, 100, 20),
            (12, 30, 90)] * 5
    # (label pool size, terms of a, terms of b); 3-label supports from 9
    # labels, so most ∘ pairs differ in support.
    COMP = [(9, 30, 150), (9, 60, 120), (9, 90, 90), (9, 120, 60), (9, 150, 30),
            (9, 45, 135)] * 5
    # (label pool size, terms); support sizes cycle through 2 to 5.
    COPROD = [(10, 5), (10, 10), (10, 15), (10, 20)] * 5
    SOLOMON = [((1, 1), (2,)), ((2, 1), (1, 1, 1)), ((2, 2), (3, 1)),
               ((1, 1, 1, 1), (2, 2)), ((3, 2), (2, 2, 1)),
               ((2, 1, 1, 1), (3, 1, 1)), ((2, 2, 2), (3, 3)),
               ((1, 1, 1, 1, 1), (2, 2, 1)), ((3, 2, 1), (2, 2, 2)),
               ((2, 2, 1, 1), (4, 2))]
    YOUNG = [2, 3, 4, 5, 6, 6, 7, 7, 8, 8]
    expect_calls = (
        "cli.main",
        "textio.parse",
        "textio.render",
        "textio.render_tensor",
        "textio.element_to_json",
        "textio.tensor_to_json",
        "algebra.conv_basis",
        "algebra.convolution",
        "algebra.compose_basis",
        "algebra.composition_product",
        "algebra.coproduct",
        "solomon.solomon_compose",
    )
    controls = (
        "oracle.represent",
        "oracle.b_coproduct",
        "oracle.endo_convolution",
        "oracle.endo_compose",
        "oracle.endo_of",
        "setcomp.enumerate_set_compositions",
    )

    def __init__(self, seed: int, reference: dict):
        from twisted_descents import cli
        from twisted_descents.limits import MAX_LABEL

        self.cli = cli
        self.max_label = MAX_LABEL
        super().__init__(seed)

    def slots(self) -> list:
        """A third of each command's ops ask for ``--format json``."""
        binary = self._binary
        return (
            [partial(binary, command="conv", shape=s, sizes=(2, 3, 4), json_out=i % 3 == 2)
             for i, s in enumerate(self.CONV)]
            + [partial(binary, command="comp", shape=s, sizes=(3,), json_out=i % 3 == 2)
               for i, s in enumerate(self.COMP)]
            + [partial(self._coprod, shape=s, style=i % 3)
               for i, s in enumerate(self.COPROD)]
            + [partial(self._solomon, shape=s, json_out=i % 3 == 2)
               for i, s in enumerate(self.SOLOMON)]
            + [partial(self._young, n=n, json_out=i % 3 == 2)
               for i, n in enumerate(self.YOUNG)]
        )

    def labels(self, rng, pool):
        """A small pool of labels spread over the whole label range."""
        out = rng.sample(range(1, self.max_label + 1), pool)
        if rng.random() < 0.25:
            out[0] = self.max_label
        return out

    def call(self, argv):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = self.cli.main(argv)
        return code, buf.getvalue()

    def _op(self, label, argv, want, read):
        """Op for one CLI call: exit 0, and ``read(stdout)`` equals ``want()``."""

        def check(out):
            code, text = out
            if code != 0:
                return [f"{label}: exit code {code}"], checks.digest(f"{code}\n{text}")
            try:
                got = read(text)
            except (ValueError, KeyError) as exc:
                got = f"unreadable output ({exc})"
            return _problem(label, got, want()), checks.digest(f"{code}\n{text}")

        return Op(label, lambda: self.call(argv), check, argv)

    @staticmethod
    def _reader(json_out):
        return checks.json_coeff_sum if json_out else checks.text_coeff_sum

    def _binary(self, rng, command, shape, sizes, json_out):
        pool, k1, k2 = shape
        labels = self.labels(rng, pool)

        def supports(k):
            return [rng.sample(labels, sizes[j % len(sizes)]) for j in range(k)]

        x, y = random_element(rng, supports(k1)), random_element(rng, supports(k2))
        argv = [command, element_text(rng, x), element_text(rng, y)]
        if json_out:
            argv += ["--format", "json"]
        ident = checks.conv_coeff_sum if command == "conv" else checks.compose_coeff_sum
        want = cache(lambda: ident(x, y))
        return self._op(f"{command} {k1}x{k2}", argv, want, self._reader(json_out))

    def _coprod(self, rng, shape, style):
        pool, k = shape
        labels = self.labels(rng, pool)
        x = random_element(rng, [rng.sample(labels, 2 + j % 4) for j in range(k)])
        argv = ["coprod", element_text(rng, x)]
        argv += [[], ["--ascii"], ["--format", "json"]][style]
        want = cache(lambda: checks.coproduct_coeff_sum(x))
        return self._op(f"coprod {k} terms", argv, want, self._reader(style == 2))

    def _solomon(self, rng, shape, json_out):
        c1, c2 = (shuffled(rng, p) for p in shape)
        argv = ["solomon", ",".join(map(str, c1)), ",".join(map(str, c2))]
        if json_out:
            argv += ["--format", "json"]
        want = cache(lambda: checks.matrix_count(c1, c2))
        return self._op(f"solomon {c1} o {c2}", argv, want, self._reader(json_out))

    def _young(self, rng, n, json_out):
        perm = tuple(rng.sample(range(1, n + 1), n))
        parts = []
        while sum(parts) < n:
            parts.append(rng.randint(1, n - sum(parts)))
        parts = tuple(parts)
        argv = ["young", ",".join(map(str, parts)), ",".join(map(str, perm))]
        if json_out:
            argv += ["--format", "json"]

        def read(text):
            if json_out:
                obj = json.loads(text)
                beta, tau = tuple(obj["beta"]), tuple(obj["shuffle"])
            else:
                lines = dict(line.split(" = ") for line in text.strip().split("\n"))
                beta = tuple(int(v) for v in lines["beta"].split(","))
                tau = tuple(int(v) for v in lines["shuffle"].split(","))
            return checks.is_young_factorization(parts, perm, beta, tau)

        return self._op(f"young {parts} {perm}", argv, lambda: True, read)

    def warm_up(self):
        for argv in (["conv", "[{1}]", "[{2}]"], ["comp", "[{1}|{2}]", "2*[{1,2}]"],
                     ["coprod", "[{1}|{2}]"], ["coprod", "[{1}]", "--format", "json"],
                     ["conv", "[{1}]", "[{2}]", "--format", "json"],
                     ["solomon", "1,1", "2"], ["young", "1,1", "2,1"]):
            self.call(argv)


WORKLOADS = {w.name: w for w in (VerifyAll, DenseProducts, TextSparse)}
