"""Per-layer counts and self times, gathered by wrapping library functions.

``Tracer.install`` replaces each listed function in every loaded module of
the package that holds it under any name: the defining module, the modules
that imported it by name, and the package ``__init__``.  So calls through
``verify``, ``solomon``, ``cli`` or the package namespace are all seen.
``Tracer.remove`` puts the originals back.

A span records its duration; a layer's self time is its spans' durations
minus the durations of the traced spans they contain.  Counts are exact
integers: for a given input they repeat from run to run.
"""

from __future__ import annotations

import inspect
import sys
import time
from contextlib import contextmanager

PACKAGE = "twisted_descents"


def _pairs(stats, args, result, frame):
    stats["pairs"] += len(args[0]) * len(args[1])


def _kernel(stats, args, result, frame, stack):
    if result is not None:
        stats["hits"] += 1
        if stack:
            stack[-1][1] += 1


def _tensor(stats, args, result, frame):
    stats["pairs"] += len(args[0]) * len(args[1])
    stats["hits"] += frame[1]


def _coproduct(stats, args, result, frame):
    stats["terms_out"] += len(result)
    stats["distinct"].add(args[0])


def _represent(stats, args, result, frame):
    stats["distinct"].add((args[0], frozenset(args[1])))


def _b_coproduct(stats, args, result, frame):
    stats["distinct"].add(args[0])


def _matrices(stats, args, result, frame):
    a, b = args[0].terms, args[1].terms
    if len(a) == len(b) == 1 and set(a.values()) == set(b.values()) == {1}:
        stats["matrices"] += sum(result.terms.values())


def _bytes_in(stats, args, result, frame):
    stats["bytes"] += len(args[0].encode("utf-8"))


def _bytes_out(stats, args, result, frame):
    stats["bytes"] += len(result.encode("utf-8"))


# module -> function -> (reported stats, note).  Every wrapped function
# counts calls and self time; a note updates the other counters after a call
# returns.  ``distinct_ratio`` is distinct arguments over calls.
LAYERS = {
    "setcomp": {"enumerate_set_compositions": (("calls", "items", "self_s"), None)},
    "algebra": {
        "compose_basis": (("calls", "hits", "self_s"), _kernel),
        "conv_basis": (("calls", "hits", "self_s"), _kernel),
        "composition_product": (("calls", "pairs", "self_s"), _pairs),
        "convolution": (("calls", "pairs", "self_s"), _pairs),
        "basis": (("calls",), None),
        "coproduct": (("calls", "terms_out", "distinct_ratio", "self_s"), _coproduct),
        "tensor_composition": (("calls", "pairs", "hits", "self_s"), _tensor),
        "tensor_convolution": (("calls", "pairs", "hits", "self_s"), _tensor),
    },
    "oracle": {
        "represent": (("calls", "distinct_ratio", "self_s"), _represent),
        "b_coproduct": (("calls", "distinct_ratio", "self_s"), _b_coproduct),
        "endo_convolution": (("calls", "self_s"), None),
        "endo_compose": (("calls", "self_s"), None),
        "endo_of": (("calls", "self_s"), None),
    },
    "solomon": {
        "solomon_compose": (("calls", "matrices", "self_s"), _matrices),
        "orbit_sum": (("calls", "self_s"), None),
        "truncation_check": (("calls", "self_s"), None),
    },
    "textio": {
        "parse": (("calls", "bytes", "self_s"), _bytes_in),
        "render": (("calls", "bytes", "self_s"), _bytes_out),
        "render_tensor": (("calls", "bytes", "self_s"), _bytes_out),
        "element_to_json": (("calls", "self_s"), None),
        "tensor_to_json": (("calls", "self_s"), None),
    },
    "cli": {"main": (("calls", "self_s"), None)},
}

def _package_modules() -> list:
    return [
        m for name, m in sorted(sys.modules.items())
        if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))
    ]


class Tracer:
    """Wraps the functions in ``LAYERS`` and accumulates their statistics."""

    def __init__(self):
        self.stack: list = []  # one [child seconds, kernel hits] per open span
        self.stats: dict = {}
        self.objects_created = 0
        self._patches: list = []
        self._restore_class = None

    def _new_stats(self, name: str, reported) -> dict:
        stats = {"calls": 0, "self_s": 0.0}
        for key in reported:
            if key == "distinct_ratio":
                stats["distinct"] = set()
            elif key not in stats:
                stats[key] = 0
        self.stats[name] = stats
        return stats

    @contextmanager
    def span(self, name: str):
        """A span opened by the benchmark itself, around a call into a layer."""
        stats = self.stats.get(name) or self._new_stats(name, ("total_s",))
        frame = [0.0, 0]
        self.stack.append(frame)
        start = time.perf_counter()
        try:
            yield
        finally:
            self._close(stats, frame, start)
            stats["total_s"] += time.perf_counter() - start

    def _close(self, stats, frame, start, calls=1):
        elapsed = time.perf_counter() - start
        self.stack.pop()
        stats["calls"] += calls
        stats["self_s"] += elapsed - frame[0]
        if self.stack:
            self.stack[-1][0] += elapsed

    def _wrap(self, fn, stats, note):
        stack, close, clock = self.stack, self._close, time.perf_counter
        if note is _kernel:
            def note(stats, args, result, frame):
                _kernel(stats, args, result, frame, stack)

        def wrapper(*args, **kwargs):
            frame = [0.0, 0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                close(stats, frame, start)
            if note is not None:
                note(stats, args, result, frame)
            return result

        return wrapper

    def _wrap_generator(self, fn, stats):
        stack, close, clock = self.stack, self._close, time.perf_counter

        def wrapper(*args, **kwargs):
            stats["calls"] += 1
            it = fn(*args, **kwargs)
            while True:
                frame = [0.0, 0]
                stack.append(frame)
                start = clock()
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    close(stats, frame, start, calls=0)
                stats["items"] += 1
                yield item

        return wrapper

    def install(self):
        modules = _package_modules()
        by_name = {m.__name__: m for m in modules}
        originals = {}
        for mod, functions in LAYERS.items():
            module = by_name.get(f"{PACKAGE}.{mod}")
            for fn_name, (reported, note) in functions.items():
                stats = self._new_stats(f"{mod}.{fn_name}", reported)
                if module is None:
                    continue
                fn = getattr(module, fn_name)
                if inspect.isgeneratorfunction(fn):
                    originals[id(fn)] = (fn, self._wrap_generator(fn, stats))
                else:
                    originals[id(fn)] = (fn, self._wrap(fn, stats, note))
        for module in modules:
            for attr, value in list(vars(module).items()):
                if id(value) in originals and originals[id(value)][0] is value:
                    self._patches.append((module, attr, value))
                    setattr(module, attr, originals[id(value)][1])
        self._count_objects(by_name[f"{PACKAGE}.setcomp"].SetComposition)
        return [f"{m.__name__}.{attr}" for m, attr, _ in self._patches]

    def _count_objects(self, cls):
        """Count instances made through the constructor and through ``_make``."""
        if "__new__" in vars(cls):
            raise RuntimeError(f"{cls.__name__} defines __new__; cannot count objects")
        init, make = vars(cls)["__init__"], vars(cls)["_make"]
        tracer = self

        def counting_init(obj, *args, **kwargs):
            tracer.objects_created += 1
            init(obj, *args, **kwargs)

        def counting_make(klass, *args, **kwargs):
            tracer.objects_created += 1
            return make.__func__(klass, *args, **kwargs)

        cls.__init__ = counting_init
        cls._make = classmethod(counting_make)
        self._restore_class = (cls, init, make)

    def remove(self):
        for module, attr, value in reversed(self._patches):
            setattr(module, attr, value)
        self._patches = []
        if self._restore_class is not None:
            cls, cls.__init__, cls._make = self._restore_class
            self._restore_class = None

    def metrics(self) -> dict:
        """Flat ``<module>.<function>.<stat>`` values; sets become distinct ratios."""
        out = {"setcomp.objects_created": self.objects_created}
        for name, stats in self.stats.items():
            for key, value in stats.items():
                if key == "distinct":
                    calls = stats["calls"]
                    out[f"{name}.distinct_ratio"] = len(value) / calls if calls else 0.0
                else:
                    out[f"{name}.{key}"] = value
        return out
