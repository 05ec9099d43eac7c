"""Layer spans and work counters for the traced run.

Tracer.install wraps the public functions of each layer module, and the
arithmetic operators of EndMatrix, TransversalDist and Character, in
wrappers that open a span per call.  A wrapped function is replaced in
every nilcone namespace that holds it, so a call made through a name
imported with ``from ... import`` opens the span as well.  Spans nest; a
layer's self time is its spans' time minus their child spans.

Counters are computed from arguments and results after the span has
closed.  The time they take is kept off the tracer's clock (see now()), so
self times and the traced loop's wall time measure the program, and the
bookkeeping shows only as tracing overhead in real time.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter

LAYERS = ("sl2", "transversal", "solver", "characters", "oracle", "cli")

# Class operators traced besides each layer's public module-level functions.
METHODS = {
    "sl2": {"EndMatrix": ("__add__", "__sub__", "__neg__", "__mul__", "__rmul__",
                          "__pow__", "__eq__")},
    "transversal": {"TransversalDist": ("__add__", "__sub__", "__neg__", "__mul__",
                                        "__rmul__", "__eq__")},
    "solver": {"CasimirPolynomial": ("apply",)},
    "characters": {"Character": ("__add__", "__sub__", "__mul__", "stretch")},
    "oracle": {"QuadratureGrid": ("nodes",),
               "TestFunction": ("value", "diff", "mul_poly", "casimir", "__add__",
                                "__rmul__", "__mul__")},
}

SPAN_LIMIT = 20000     # spans kept for the trace file; later ones are only summed


def _bits(value) -> int:
    return max(value.numerator.bit_length(), value.denominator.bit_length())


class Tracer:
    def __init__(self):
        self.offset = 0.0             # bookkeeping time kept off the clock
        self.stack = []               # open spans: [layer, start, child time, id]
        self.self_s = Counter()
        self.calls = Counter()
        self.counts = Counter()
        self.root_s = 0.0             # summed duration of spans opened outside any span
        self.coeff_bits = 0
        self.seen_products = set()
        self.seen_characters = set()
        self.query = -1
        self.spans = []
        self.opened = 0
        self._patches = []

    def now(self) -> float:
        return time.perf_counter() - self.offset

    # -- spans ---------------------------------------------------------------

    def _call(self, layer, name, fn, count, args, kwargs):
        self.opened += 1
        span_id = self.opened
        parent = self.stack[-1][3] if self.stack else None
        frame = [layer, self.now(), 0.0, span_id]
        self.stack.append(frame)
        done = False
        try:
            result = fn(*args, **kwargs)
            done = True
            return result
        finally:
            end = self.now()
            started = time.perf_counter()
            self.stack.pop()
            duration = end - frame[1]
            self.self_s[layer] += duration - frame[2]
            if self.stack:
                self.stack[-1][2] += duration
            else:
                self.root_s += duration
            self.calls[layer] += 1
            if len(self.spans) < SPAN_LIMIT:
                self.spans.append((self.query, span_id, parent, layer, name, frame[1], end))
            if done and count is not None:
                count(self, args, result)
            self.offset += time.perf_counter() - started

    def _wrap(self, layer, name, fn, count):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self._call(layer, name, fn, count, args, kwargs)
        return traced

    # -- installation ----------------------------------------------------------

    def install(self) -> None:
        """Patch every layer; remove() puts the originals back."""
        modules = {layer: sys.modules[f"nilcone.{layer}"] for layer in LAYERS}
        namespaces = [mod for name, mod in sorted(sys.modules.items())
                      if name == "nilcone" or name.startswith("nilcone.")]
        for layer, mod in modules.items():
            for name, obj in sorted(vars(mod).items()):
                if (name.startswith("_") or isinstance(obj, type) or not callable(obj)
                        or getattr(obj, "__module__", None) != mod.__name__):
                    continue
                traced = self._wrap(layer, name, obj, COUNTERS.get((layer, name)))
                for ns in namespaces:
                    for attr, value in list(vars(ns).items()):
                        if value is obj:
                            self._patch(ns, attr, traced)
            for cls_name, methods in METHODS.get(layer, {}).items():
                cls = getattr(mod, cls_name)
                for meth in methods:
                    fn = cls.__dict__[meth]
                    label = f"{cls_name}.{meth}"
                    self._patch(cls, meth,
                                self._wrap(layer, label, fn, COUNTERS.get((layer, label))))

    def _patch(self, owner, attr, value) -> None:
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def remove(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()


# ---------------------------------------------------------------------------
# counters, keyed by (layer, traced name)


def _count_matmul(tracer, args, result):
    a, b = args[0], args[1]
    if type(b) is not type(a):
        return                                  # scalar multiple, not a product
    tracer.counts["sl2.matmul_calls"] += 1
    tracer.counts["sl2.matmul_products"] += (a.n + 1) ** 3
    key = hash((a.rows, b.rows))
    if key in tracer.seen_products:
        tracer.counts["sl2.matmul_repeats"] += 1
    else:
        tracer.seen_products.add(key)


def _count_dist(tracer, args, result):
    terms = getattr(result, "terms", None)
    if terms is None:
        return
    tracer.counts["transversal.terms_out"] += len(terms)
    if terms:
        tracer.coeff_bits = max(tracer.coeff_bits, max(map(_bits, terms.values())))


def _count_kernel(tracer, args, result):
    n, K = args[0], args[1]
    tracer.counts["solver.nullspace_cols"] += (n + 1) * (K + 1)
    tracer.counts["solver.basis_elements"] += len(result)


def _count_solutions(tracer, args, result):
    tracer.counts["solver.basis_elements"] += len(result)


def _seen_character(tracer, key):
    tracer.counts["characters.keyed_calls"] += 1
    if key in tracer.seen_characters:
        tracer.counts["characters.repeats"] += 1
    else:
        tracer.seen_characters.add(key)


def _count_sym_power(tracer, args, result):
    m, c = args[0], args[1]
    tracer.counts["characters.sym_power_degree_sum"] += m
    _seen_character(tracer, ("sym_power", m, frozenset(c.coeffs.items())))


def _count_invariant_dim(tracer, args, result):
    _seen_character(tracer, ("invariant_dim", args[0], args[1]))


def _count_nodes(tracer, args, result):
    nodes = args[0].m ** 2
    tracer.counts["oracle.nodes"] += nodes
    tracer.counts["oracle.bytes_computed"] += 3 * 8 * nodes     # a, b, weight as float64


def _count_command(tracer, args, result):
    tracer.counts["cli.commands"] += 1


COUNTERS = {
    ("cli", "main"): _count_command,
    ("sl2", "EndMatrix.__mul__"): _count_matmul,
    ("solver", "kernel_basis"): _count_kernel,
    ("solver", "solve_polynomial"): _count_solutions,
    ("characters", "sym_power"): _count_sym_power,
    ("characters", "invariant_dim"): _count_invariant_dim,
    ("oracle", "QuadratureGrid.nodes"): _count_nodes,
}
for _name in ("d_dy", "mul_y", "apply_endo", "equivariance_defect", "radial_casimir",
              "radial_mn", "delta_seed", "zero", "TransversalDist.__add__",
              "TransversalDist.__sub__", "TransversalDist.__neg__", "TransversalDist.__mul__",
              "TransversalDist.__rmul__"):
    COUNTERS[("transversal", _name)] = _count_dist
