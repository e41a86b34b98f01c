"""Per-layer spans around amlab's public functions, installed from outside.

Tracer.install() replaces each wrapped function under every amlab module
attribute that refers to it (so `derivations.defects` is wrapped as well
as `diagonals.defects`), and uninstall() puts the originals back.  A span
records its layer, name, start, end, parent and the job it ran in.  A
layer's self time is the time of its spans minus the time of their child
spans.  Counts are taken at the same boundaries.

Element arithmetic (algebra.multiply, commutator, norm, same_space and the
linalg.vec_* helpers) runs in every layer's inner loops.  It is not wrapped:
its time stays in the self time of whichever layer called it, like the
scalars and maps modules.
"""

import functools
import inspect
import os
import sys
import time

LAYERS = ("cli", "serialize", "algebra", "linalg", "derivations", "diagonals", "witness")
ELEMENT_ARITHMETIC = {"multiply", "commutator", "norm", "same_space", "vec_scale",
                      "vec_add_scaled", "vec_sub", "vec_chop", "vec_is_zero"}
IDENTITY_DEFECTS = {"derivation_defect", "jordan_defect", "lie_defect",
                    "centrality_defect", "trace_defect"}
ACTIONS = {"sandwich_action", "image_action", "inner_derivation"}
DECOMPOSITIONS = {"jordan_decompose", "lie_decompose", "central_jordan_decompose"}


def bits(x):
    """Largest bit length of the numerator or denominator of a scalar."""
    num, den = x.as_integer_ratio()
    return max(abs(num).bit_length(), den.bit_length())


def vectors_of(name, result):
    """The sparse vectors an elimination entry point returns."""
    if result is None or name == "rank":
        return []
    if name == "span_basis":
        return result.rows
    if name == "solve":
        return [result]
    if name == "coordinates_in_span":
        return [dict(enumerate(result))]
    return result


def triples_checked(algebra):
    """Basis triples _check_associativity visits, from the table's support."""
    d = algebra.dim
    into = [0] * d     # pairs (i, j) in the table, by j
    out_of = [0] * d   # pairs (j, k) in the table, by j
    for i, j in algebra.mul:
        into[j] += 1
        out_of[i] += 1
    # (i, j, k) with (i, j) in the table, then those with (j, k) not yet seen
    return 2 * len(algebra.mul) * d - sum(a * b for a, b in zip(into, out_of))


class Tracer:
    """Spans and counters of one traced run, kept in memory."""

    def __init__(self):
        self.spans = []          # (job, layer, name, start, end, parent index)
        self.stack = []          # open frames: [span index, layer, name, start, child time]
        self.self_time = {}      # (layer, name) -> seconds
        self.total_time = {}     # (layer, name) -> seconds, outermost of a name only
        self.counters = {}
        self.job = None
        self._patched = []

    def count(self, key, value=1):
        self.counters[key] = self.counters.get(key, 0) + value

    # -- spans ----------------------------------------------------------------------

    def wrap(self, layer, name, fn, after=None):
        tracer = self

        @functools.wraps(fn)
        def span(*args, **kwargs):
            parent = tracer.stack[-1] if tracer.stack else None
            frame = [len(tracer.spans), layer, name, time.perf_counter(), 0.0]
            tracer.spans.append(None)
            tracer.stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                tracer.stack.pop()
                duration = end - frame[3]
                key = (layer, name)
                tracer.self_time[key] = tracer.self_time.get(key, 0.0) + duration - frame[4]
                if not any(f[2] == name for f in tracer.stack):
                    tracer.total_time[key] = tracer.total_time.get(key, 0.0) + duration
                if parent is not None:
                    parent[4] += duration
                tracer.spans[frame[0]] = (tracer.job, layer, name, frame[3], end,
                                          None if parent is None else parent[0])
            if after is not None:
                after(parent, args, kwargs, result)
            return result

        return span

    def install(self):
        """Wrap every layer's public functions wherever amlab modules refer to them."""
        modules = [m for n, m in sorted(sys.modules.items())
                   if n == "amlab" or n.startswith("amlab.")]
        wrappers = {}
        for layer in LAYERS:
            module = sys.modules[f"amlab.{layer}"]
            for name, fn in vars(module).items():
                if (inspect.isfunction(fn) and fn.__module__ == module.__name__
                        and not name.startswith("_") and name not in ELEMENT_ARITHMETIC):
                    wrappers[id(fn)] = self.wrap(layer, name, fn, self._after(layer, name))
        for module in modules:
            for name, value in list(vars(module).items()):
                if id(value) in wrappers:
                    self._patch(module, name, wrappers[id(value)])
        algebra = sys.modules["amlab.algebra"]
        linalg = sys.modules["amlab.linalg"]
        cls = algebra.AlgebraPresentation
        self._patch(cls, "__init__", self.wrap("algebra", "AlgebraPresentation",
                                               cls.__init__, self._after_presentation))
        self._patch(linalg.Span, "add", self._counted_add(linalg.Span.add))

    def uninstall(self):
        for owner, name, original in reversed(self._patched):
            setattr(owner, name, original)
        self._patched = []

    def _patch(self, owner, name, value):
        self._patched.append((owner, name, getattr(owner, name)))
        setattr(owner, name, value)

    # -- counters ---------------------------------------------------------------------

    def _after(self, layer, name):
        if layer == "linalg":
            return lambda parent, args, kwargs, result: \
                self._after_linalg(name, parent, result)
        if name == "load_json":
            return lambda parent, args, kwargs, result: \
                self.count("serialize.bytes_in", os.path.getsize(args[0]))
        if name == "dump_json":
            return lambda parent, args, kwargs, result: \
                self.count("serialize.bytes_out", len(result.encode("utf-8")))
        if name in IDENTITY_DEFECTS:
            return lambda *_: self.count("derivations.identity_defect_calls")
        if name == "defects":
            return lambda *_: self.count("diagonals.defects_calls")
        if name == "trace_feasibility":
            return self._after_feasibility
        return None

    def _after_linalg(self, name, parent, result):
        if parent is not None and parent[1] == "linalg":
            return  # counted by the outermost elimination call
        self.count("linalg.calls")
        vectors = vectors_of(name, result)
        self.count("linalg.out_nnz", sum(len(v) for v in vectors))
        top = max((bits(x) for v in vectors for x in v.values()), default=0)
        self.counters["linalg.max_bits"] = max(self.counters.get("linalg.max_bits", 0), top)

    def _after_presentation(self, parent, args, kwargs, result):
        self.count("algebra.presentations")
        validate = kwargs.get("validate", args[9] if len(args) > 9 else True)
        if validate:
            self.count("algebra.triples_checked", triples_checked(args[0]))

    def _after_feasibility(self, parent, args, kwargs, result):
        algebra = args[0]
        self.count("witness.generators", sum(
            algebra.product_indices(p, q) != algebra.product_indices(q, p)
            for p in range(algebra.dim) for q in range(p + 1, algebra.dim)))

    def _counted_add(self, add):
        tracer = self

        @functools.wraps(add)
        def counted(span, v):
            tracer.count("linalg.rows_in")
            tracer.count("linalg.nnz_in", len(v))
            row = add(span, v)
            if row is not None:
                tracer.count("linalg.rank")
            return row

        return counted

    # -- metrics ----------------------------------------------------------------------

    def metrics(self, rounds):
        """Per-layer metrics per timed round; the ratio and the bit maximum are not per round."""
        def self_s(layer, names=None):
            return sum(v for (lay, n), v in self.self_time.items()
                       if lay == layer and (names is None or n in names))

        def total_s(names):
            return sum(v for (_, n), v in self.total_time.items() if n in names)

        c = self.counters
        loads = {n for lay, n in self.self_time
                 if lay == "serialize" and (n == "load_json" or n.endswith("_from_dict"))}
        sums = {
            "cli.self_s": self_s("cli"),
            "serialize.load_s": self_s("serialize", loads),
            "serialize.dump_s": self_s("serialize") - self_s("serialize", loads),
            "serialize.bytes_in": c.get("serialize.bytes_in", 0),
            "serialize.bytes_out": c.get("serialize.bytes_out", 0),
            "algebra.validate_s": self_s("algebra", {"AlgebraPresentation", "unitize"}),
            "algebra.presentations": c.get("algebra.presentations", 0),
            "algebra.triples_checked": c.get("algebra.triples_checked", 0),
            "linalg.busy_s": self_s("linalg"),
            "linalg.calls": c.get("linalg.calls", 0),
            "linalg.rows_in": c.get("linalg.rows_in", 0),
            "linalg.nnz_in": c.get("linalg.nnz_in", 0),
            "linalg.rank": c.get("linalg.rank", 0),
            "linalg.out_nnz": c.get("linalg.out_nnz", 0),
            "derivations.rows_s": self_s("derivations", {"classify_maps"}),
            "derivations.identity_defect_s": total_s(IDENTITY_DEFECTS),
            "derivations.identity_defect_calls": c.get("derivations.identity_defect_calls", 0),
            "derivations.action_s": total_s(ACTIONS),
            "derivations.decompose_self_s": self_s("derivations", DECOMPOSITIONS),
            "diagonals.defects_s": total_s({"defects"}),
            "diagonals.defects_calls": c.get("diagonals.defects_calls", 0),
            "diagonals.report_s": self_s("diagonals", {"defect_report"}),
            "witness.feasibility_s": total_s({"trace_feasibility"}),
            "witness.generators": c.get("witness.generators", 0),
        }
        out = {k: v / rounds for k, v in sums.items()}
        rows = c.get("linalg.rows_in", 0)
        out["linalg.rank_per_row"] = c.get("linalg.rank", 0) / rows if rows else 0.0
        out["linalg.max_bits"] = c.get("linalg.max_bits", 0)
        return out


PER_LAYER_UNITS = {
    "cli.self_s": "s",
    "serialize.load_s": "s",
    "serialize.dump_s": "s",
    "serialize.bytes_in": "bytes",
    "serialize.bytes_out": "bytes",
    "algebra.validate_s": "s",
    "algebra.presentations": "count",
    "algebra.triples_checked": "count",
    "linalg.busy_s": "s",
    "linalg.calls": "count",
    "linalg.rows_in": "count",
    "linalg.nnz_in": "count",
    "linalg.rank": "count",
    "linalg.rank_per_row": "ratio",
    "linalg.out_nnz": "count",
    "linalg.max_bits": "bits",
    "derivations.rows_s": "s",
    "derivations.identity_defect_s": "s",
    "derivations.identity_defect_calls": "count",
    "derivations.action_s": "s",
    "derivations.decompose_self_s": "s",
    "diagonals.defects_s": "s",
    "diagonals.defects_calls": "count",
    "diagonals.report_s": "s",
    "witness.feasibility_s": "s",
    "witness.generators": "count",
}
