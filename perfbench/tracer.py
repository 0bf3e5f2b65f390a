"""Outside-in tracing of the umbralcalc layers.

The benchmark never edits the library.  ``instrument`` replaces the public
functions of each library module, and the methods of ``Polynomial`` and
``TruncatedSeries``, with wrappers that report to a ``Tracer``, and puts the
originals back when the ``with`` block ends.  ``from .families import ...``
binds a second name for every imported function in ``identities`` and
``cli``, and ``VERIFIERS`` holds a third, so every module attribute and
every module-level dict value that refers to an original is replaced.

Layers are the library modules: polynomials, series, families, umbral,
identities and cli, plus ``bench`` for the benchmark's own code around the
calls.  The worker's calibration loop runs in frames of a layer of its own,
``calibration``, which is not in LAYERS: its time is in no layer's self
time.  Polynomial and series operations are hot leaves (a verify sweep
makes hundreds of thousands of them): they add their count and time to the
enclosing frame instead of recording a span.  Calls into the other layers
record one span each, kept in memory and written out by the caller.

Self time of a frame is its duration minus the durations of the frames it
encloses, so the self times of one traced batch, calibration's included,
add up exactly to the duration of the root ``bench`` frame.  ``Fraction`` arithmetic has no module
of its own and counts in the self time of whichever layer encloses it.

Per operation, ``calls`` counts every call into the operation's functions,
and ``seconds`` is inclusive time counted once per outermost call: a
polynomial subtraction that negates and adds internally is three calls of
``polynomials.add``, but its time counts once.
"""

from __future__ import annotations

import functools
import inspect
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

LAYERS = ("bench", "polynomials", "series", "families", "umbral", "identities", "cli")
LEAF_LAYERS = ("polynomials", "series")

KERNEL_BUILDERS = (
    "frobenius_euler_kernel",
    "bernoulli_kernel",
    "euler_kernel",
    "poly_bernoulli_kernel",
    "mixed_kernel",
)
EXPANDERS = ("polys_from_kernel", "numbers_from_kernel")
STIRLING = ("stirling2", "stirling2_triangle")
#: Operations whose distinct argument tuples are counted, to measure reuse.
KEYED_OPS = ("families.kernel", "families.stirling2")

_RING_OPS = {
    "__add__": "add", "__radd__": "add", "__sub__": "add", "__rsub__": "add",
    "__neg__": "add", "__mul__": "mul", "__rmul__": "mul", "__pow__": "pow",
    "__eq__": "eq", "__init__": "init", "derivative": "derivative",
}
_POLY_OPS = dict(
    _RING_OPS, __call__="eval", __truediv__="div", __rtruediv__="div",
    shift="shift", monomial="monomial", __str__="str", __repr__="str",
)
_SERIES_OPS = dict(
    _RING_OPS, invert="invert", compose="compose", comp_inverse="comp_inverse",
    divide_by_t="divide_by_t", truncate="truncate", valuation="valuation",
    constant="constant", identity="identity", to_jsonable="to_jsonable",
)


class Tracer:
    """Frame stack with per-layer self time, per-operation counters and an
    in-memory span list."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.layer_self = defaultdict(float)
        self.calls = Counter()
        self.seconds = defaultdict(float)
        self.counts = Counter()
        self.keys = defaultdict(set)
        self.spans = []
        self.request = None
        self._stack = []
        self._open = Counter()

    def enter(self, layer, op, record):
        self.calls[op] += 1
        outermost = not self._open[op]
        self._open[op] += 1
        span = None
        if record:
            parent = next((f[3] for f in reversed(self._stack) if f[3] is not None), None)
            span = len(self.spans)
            self.spans.append({"id": span, "parent": parent, "name": op,
                               "request": self.request})
        self._stack.append([layer, op, outermost, span, 0.0, self.clock()])

    def exit(self):
        """Close the innermost frame and return its duration."""
        end = self.clock()
        layer, op, outermost, span, child, start = self._stack.pop()
        duration = end - start
        self.layer_self[layer] += duration - child
        if self._stack:
            self._stack[-1][4] += duration
        self._open[op] -= 1
        if outermost:
            self.seconds[op] += duration
        if span is not None:
            self.spans[span]["start"] = start
            self.spans[span]["end"] = end
        return duration

    def wrap(self, fn, layer, op, before=None, after=None):
        """Return ``fn`` reporting to this tracer as operation ``op``.

        ``before(args, kwargs)`` and ``after(result)`` run outside the
        frame, so counting keys or work adds no time to any layer but the
        enclosing one.
        """
        record = layer not in LEAF_LAYERS
        enter, exit_ = self.enter, self.exit

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if before is not None:
                before(args, kwargs)
            enter(layer, op, record)
            try:
                result = fn(*args, **kwargs)
            finally:
                exit_()
            if after is not None:
                after(result)
            return result

        return wrapper

    def keyed(self, op, name):
        """``before`` hook: count calls of function ``name`` and record its
        distinct argument tuples under ``op``."""
        keys, counts, calls = self.keys[op], self.counts, f"{op}.{name}.calls"

        def before(args, kwargs):
            counts[calls] += 1
            keys.add((name, args, tuple(sorted(kwargs.items()))))

        return before

    def coeff_products(self, op, cls):
        """``before`` hook for a product: add len(a) * len(b) to
        ``counts[op + ".coeff_products"]``, a scalar factor counting 1."""
        counts, name = self.counts, f"{op}.coeff_products"

        def before(args, kwargs):
            a, b = args
            counts[name] += len(a.coefficients) * (
                len(b.coefficients) if isinstance(b, cls) else 1
            )

        return before


def _plain_functions(module):
    for name in module.__all__:
        value = getattr(module, name)
        if inspect.isfunction(inspect.unwrap(value)):
            yield name, value


def _family_op(name):
    if name in KERNEL_BUILDERS:
        return "families.kernel"
    if name in EXPANDERS or name.endswith(("_polys", "_poly", "_numbers")):
        return "families.expand"
    if name in STIRLING:
        return "families.stirling2"
    return f"families.{name}"


@contextmanager
def instrument(tracer):
    """Route every public library call through ``tracer`` until exit."""
    import umbralcalc
    from umbralcalc import cli, families, identities, polynomials, series, umbral

    undo = []
    replacement = {}

    for cls, layer, table in (
        (polynomials.Polynomial, "polynomials", _POLY_OPS),
        (series.TruncatedSeries, "series", _SERIES_OPS),
    ):
        for attr, short in table.items():
            raw = cls.__dict__.get(attr)
            if raw is None:
                continue
            op = f"{layer}.{short}"
            before = tracer.coeff_products(op, cls) if short == "mul" else None
            if isinstance(raw, classmethod):
                wrapped = classmethod(tracer.wrap(raw.__func__, layer, op, before))
            else:
                wrapped = tracer.wrap(raw, layer, op, before)
            undo.append((cls, attr, raw))
            setattr(cls, attr, wrapped)

    for module in (polynomials, series, families, umbral):
        layer = module.__name__.rsplit(".", 1)[1]
        for name, fn in _plain_functions(module):
            op = _family_op(name) if module is families else f"{layer}.{name}"
            before = tracer.keyed(op, name) if op in KEYED_OPS else None
            replacement[id(fn)] = tracer.wrap(fn, layer, op, before)
    for identity, fn in identities.VERIFIERS.items():
        op = f"identities.{identity}"

        def after(report, key=f"{op}.checks"):
            tracer.counts[key] += report.checked

        replacement[id(fn)] = tracer.wrap(fn, "identities", op, after=after)
    fn = identities.verify_all
    replacement[id(fn)] = tracer.wrap(fn, "identities", "identities.verify_all")
    replacement[id(cli.main)] = _wrap_main(tracer, cli.main)

    for module in (umbralcalc, polynomials, series, families, umbral, identities, cli):
        namespace = vars(module)
        targets = [namespace] + [v for v in namespace.values() if isinstance(v, dict)]
        for target in targets:
            for key, value in list(target.items()):
                wrapped = replacement.get(id(value))
                if wrapped is not None:
                    undo.append((target, key, value))
                    target[key] = wrapped
    try:
        yield tracer
    finally:
        for target, key, value in reversed(undo):
            if isinstance(target, dict):
                target[key] = value
            else:
                setattr(target, key, value)


def _wrap_main(tracer, main):
    """cli.main as one span per request, named after its subcommand."""

    @functools.wraps(main)
    def wrapper(argv=None):
        tracer.enter("cli", f"cli.{argv[0]}" if argv else "cli.main", True)
        try:
            return main(argv)
        finally:
            tracer.exit()

    return wrapper
