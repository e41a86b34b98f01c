"""JSON and CSV forms of every artifact the command line reads and writes.

All scalars pass through scalars.to_json, so rationals travel as exact
"p/q" strings and re-parse to equal values.  The "algebra" field on
dependent artifacts (tensors, elements, functionals, nets) is an
informational reference tag: loading always happens against an explicit
presentation, and a stored tag is kept but not dereferenced.
"""

import csv
import io
import json
import math

from . import scalars
from .algebra import AlgebraPresentation
from .derivations import BimodulePresentation
from .diagonals import DiagonalNet
from .maps import LinearMap
from .scalars import SchemaError
from .tensor import Tensor2
from .witness import Functional


def _ref(space):
    return space.name


def _require(cond, message):
    if not cond:
        raise SchemaError(message)


def _as_list(obj, key):
    _require(isinstance(obj, dict), f"expected an object with a {key!r} field")
    value = obj.get(key)
    _require(isinstance(value, list), f"field {key!r} must be a list")
    return value


def _table(entries, what, layout, scalar):
    """{(i, j): {k: coeff}} from [i, j, k, coeff] entries, repeats summed;
    what names the entries in errors and layout spells out their shape.
    Each distinct string literal is coerced once; other values (a true
    must still fail, and -0.0 and 0.0 or 1 and 1.0 never share) each time."""
    table = {}
    literals = {}
    for entry in entries:
        _require(isinstance(entry, list) and len(entry) == 4,
                 f"{what} entries must be {layout}")
        i, j, k, c = entry
        for n in (i, j, k):
            _require(type(n) is int, f"basis index {n!r} in a {what} entry must be an "
                                     f"integer (true and false are not indices)")
        if type(c) is str:
            x = literals.get(c)
            if x is None:
                x = literals[c] = scalar(c)
        else:
            x = scalar(c)
        row = table.get((i, j))
        if row is None:
            table[(i, j)] = {k: x}
        elif k in row:
            row[k] += x
        else:
            row[k] = x
    return table


def _basis(data):
    basis = _as_list(data, "basis")
    _require(all(isinstance(label, str) for label in basis), "basis labels must be strings")
    return basis


# -- algebra -----------------------------------------------------------------

# presentation provenance that survives a JSON round trip (plain data only;
# object references like unitization parents or direct-sum blocks do not)
_PORTABLE_META = ("matrix_n", "triangular_n", "group_table", "group_identity",
                  "group_inverse", "block_offsets")


def algebra_to_dict(algebra):
    mul = [[i, j, k, scalars.to_json(c)]
           for (i, j), row in sorted(algebra.mul.items())
           for k, c in sorted(row.items())]
    unit = None
    if algebra.unit is not None:
        unit = [scalars.to_json(algebra.unit.get(i, algebra.scalar(0)))
                for i in range(algebra.dim)]
    out = {"basis": list(algebra.labels),
           "weights": [scalars.to_json(w) for w in algebra.weights],
           "mul": mul,
           "unit": unit}
    meta = {k: algebra.meta[k] for k in _PORTABLE_META if k in algebra.meta}
    if meta:
        out["meta"] = meta
    return out


def algebra_from_dict(data, mode, tol=scalars.DEFAULT_FLOAT_TOL, name=None):
    basis = _basis(data)
    weights = data.get("weights")
    mul = _table(_as_list(data, "mul"), "mul", "[i, j, k, coeff]",
                 lambda c: scalars.coerce(c, mode))
    unit = data.get("unit")
    if unit is not None:
        _require(isinstance(unit, list) and len(unit) == len(basis),
                 "unit must be a dense coefficient list over the basis")
        unit = {i: x for i, x in enumerate(scalars.coerce(c, mode) for c in unit) if x != 0}
    meta = data.get("meta")
    meta = {} if meta is None else meta
    _require(isinstance(meta, dict), "meta must be an object")
    meta = {k: meta[k] for k in _PORTABLE_META if k in meta}
    return AlgebraPresentation(basis, mul, weights, unit, mode=mode, tol=tol,
                               name=name or data.get("name"), meta=meta)


# -- elements ----------------------------------------------------------------

def element_to_dict(x, label=None):
    out = {"algebra": _ref(x.space),
           "coeffs": [[i, scalars.to_json(c)] for i, c in sorted(x.coeffs.items())]}
    if label is not None:
        out["label"] = label
    return out


def element_from_dict(data, space):
    pairs = _as_list(data, "coeffs")
    coeffs = {}
    for entry in pairs:
        _require(isinstance(entry, list) and len(entry) == 2,
                 "element coeffs must be [index, coeff] pairs")
        i, c = entry
        _require(type(i) is int, "element indices must be integers")
        coeffs[i] = coeffs.get(i, 0) + space.scalar(c)
    return space.element(coeffs)


def element_list_to_dict(elements, labels=None, space=None):
    if space is None and elements:
        space = elements[0].space
    labels = labels or [None] * len(elements)
    return {"algebra": _ref(space) if space else None,
            "elements": [element_to_dict(x, lab) for x, lab in zip(elements, labels)]}


def element_list_from_dict(data, space):
    items = _as_list(data, "elements")
    elements = []
    labels = []
    for k, item in enumerate(items):
        elements.append(element_from_dict(item, space))
        labels.append(str(item.get("label", f"a{k}")))
    return elements, labels


# -- tensors and nets --------------------------------------------------------

def tensor_to_dict(t):
    return {"algebra": _ref(t.space),
            "terms": [[i, j, scalars.to_json(c)] for i, j, c in t.terms()]}


def tensor_from_dict(data, space):
    terms = _as_list(data, "terms")
    cleaned = []
    for entry in terms:
        _require(isinstance(entry, list) and len(entry) == 3,
                 "tensor terms must be [i, j, coeff] triples")
        i, j, c = entry
        _require(type(i) is type(j) is int, "tensor leg indices must be integers")
        cleaned.append((i, j, c))
    return Tensor2.from_terms(space, cleaned)


def net_to_dict(net):
    return {"algebra": _ref(net.space) if net.space else None,
            "tolerance": scalars.to_json(net.tolerance),
            "entries": [tensor_to_dict(t)["terms"] for t in net.entries],
            "test_set": [element_to_dict(a, lab)
                         for a, lab in zip(net.test_set, net.labels)]}


def net_from_dict(data, space):
    entries = [tensor_from_dict({"terms": terms}, space)
               for terms in _as_list(data, "entries")]
    test_set, labels = element_list_from_dict({"elements": _as_list(data, "test_set")}, space)
    tolerance = space.scalar(data.get("tolerance", 0))
    _require(tolerance >= 0, "tolerance must be nonnegative")
    return DiagonalNet(entries, test_set, tolerance, labels)


# -- functionals and feasibility ---------------------------------------------

def functional_to_dict(f):
    return {"algebra": _ref(f.space),
            "values": [scalars.to_json(v) for v in f.values]}


def functional_from_dict(data, space):
    values = _as_list(data, "values")
    _require(len(values) == space.dim, "functional needs one value per basis element")
    return Functional(space, [space.scalar(v) for v in values])


def feasibility_to_dict(result):
    out = {"decision": result.decision, "commutator_dim": result.commutator_dim}
    if result.functional is not None:
        out["functional"] = functional_to_dict(result.functional)
    if result.certificate is not None:
        out["certificate"] = [[p, q, scalars.to_json(c)]
                              for p, q, c in result.certificate]
    return out


def witness_report_to_dict(report):
    return {"functional": functional_to_dict(report.functional),
            "commutator_defect": scalars.to_json(report.commutator_defect),
            "unit_residual": scalars.to_json(report.unit_residual),
            "normalized": report.normalized}


# -- bimodules and linear maps -----------------------------------------------

def bimodule_to_dict(X):
    left = [[i, j, k, scalars.to_json(c)]
            for (i, j), row in sorted(X.left.items())
            for k, c in sorted(row.items())]
    right = [[j, i, k, scalars.to_json(c)]
             for (j, i), row in sorted(X.right.items())
             for k, c in sorted(row.items())]
    return {"algebra": _ref(X.algebra),
            "basis": list(X.labels),
            "weights": [scalars.to_json(w) for w in X.weights],
            "left": left,
            "right": right}


def bimodule_from_dict(data, algebra):
    basis = _basis(data)
    weights = data.get("weights")
    left = _table(_as_list(data, "left"), "left action", "[a, x, y, coeff]",
                  algebra.scalar)
    right = _table(_as_list(data, "right"), "right action", "[x, a, y, coeff]",
                   algebra.scalar)
    return BimodulePresentation(algebra, basis, left, right, weights,
                                name=data.get("name"))


def linear_map_to_dict(m):
    """The map as a dense matrix; row j lists the image of domain basis j."""
    zero, dim = scalars.to_json(m.codomain.scalar(0)), m.codomain.dim
    matrix = []
    for image in m.images:
        row = [zero] * dim
        for k, c in image.items():
            row[k] = scalars.to_json(c)
        matrix.append(row)
    return {"domain": _ref(m.domain),
            "codomain": _ref(m.codomain),
            "matrix": matrix}


def linear_map_from_dict(data, domain, codomain):
    rows = _as_list(data, "matrix")
    _require(len(rows) == domain.dim, "matrix needs one row per domain basis vector")
    images = []
    for row in rows:
        _require(isinstance(row, list) and len(row) == codomain.dim,
                 "matrix rows must be dense over the codomain basis")
        images.append({k: codomain.scalar(c) for k, c in enumerate(row)})
    return LinearMap(domain, codomain, images)


# -- groups --------------------------------------------------------------

def group_from_dict(data):
    table = _as_list(data, "table")
    _require(all(isinstance(row, list) and all(type(g) is int for g in row) for row in table),
             "group table must be a list of rows of integer indices")
    labels = data.get("labels")
    _require(labels is None or isinstance(labels, list)
             and all(isinstance(label, str) for label in labels),
             "group labels must be a list of strings")
    return table, labels


# -- decomposition reports -------------------------------------------------

def _quality_to_dict(q):
    return {"max_defect": scalars.to_json(q.max_defect),
            "symmetry_defect": scalars.to_json(q.symmetry_defect),
            "tolerance": scalars.to_json(q.tolerance),
            "exact": q.exact}


def _norms_to_dict(norms):
    return {lab: scalars.to_json(v) for lab, v in norms.items()}


def jordan_report_to_dict(rep):
    return {"ok": rep.ok,
            "exact": rep.exact,
            "omega": element_to_dict(rep.omega),
            "central_stage_matrix": linear_map_to_dict(rep.central_stage)["matrix"],
            "central_defect": scalars.to_json(rep.central_defect),
            "residuals": _norms_to_dict(rep.residuals),
            "stage_one_residuals": _norms_to_dict(rep.stage_one_residuals),
            "stage_one_bounds": _norms_to_dict(rep.stage_one_bounds),
            "diagonal": _quality_to_dict(rep.quality)}


def central_jordan_report_to_dict(rep):
    return {"ok": rep.ok,
            "x": element_to_dict(rep.x),
            "residuals": _norms_to_dict(rep.residuals),
            "derivation_defect": scalars.to_json(rep.derivation_defect),
            "symmetric_bimodule": rep.symmetric_bimodule,
            "diagonal": _quality_to_dict(rep.quality)}


def lie_report_to_dict(rep):
    out = {"ok": rep.ok,
           "exact": rep.exact,
           "inner_matrix": linear_map_to_dict(rep.inner)["matrix"],
           "central_trace_matrix": linear_map_to_dict(rep.central_trace)["matrix"],
           "x": element_to_dict(rep.x),
           "residuals": _norms_to_dict(rep.residuals),
           "residual_bounds": _norms_to_dict(rep.residual_bounds),
           "inner_derivation_defect": scalars.to_json(rep.inner_derivation_defect),
           "trace_centrality_defect": scalars.to_json(rep.trace_centrality_defect),
           "trace_commutator_defect": scalars.to_json(rep.trace_commutator_defect),
           "diagonal": _quality_to_dict(rep.quality)}
    if rep.submodule is not None:
        out["submodule"] = {"sum_in_submodule": rep.submodule.sum_in_submodule,
                            "inner_in_submodule": rep.submodule.inner_in_submodule,
                            "trace_in_submodule_center":
                                rep.submodule.trace_in_submodule_center}
    return out


# -- defect reports ------------------------------------------------------

def defect_report_to_dict(report):
    entries = []
    for e in report.entries:
        entries.append({
            "index": e.index,
            "symmetric": e.symmetric,
            "symmetry_defect": scalars.to_json(e.symmetry_defect),
            "proj_norm": scalars.to_json(e.proj_norm),
            "verdict": e.verdict,
            "rows": [{"element": r.element_label,
                      "d1": scalars.to_json(r.d1),
                      "d2": scalars.to_json(r.d2),
                      "d3": scalars.to_json(r.d3),
                      "d4": scalars.to_json(r.d4)} for r in e.rows],
        })
    return {"tolerance": scalars.to_json(report.tolerance),
            "require_symmetric": report.require_symmetric,
            "verdict": report.verdict,
            "entries": entries}


DEFECT_CSV_HEADER = ["entry_index", "element_label", "d1", "d2", "d3", "d4",
                     "symmetric", "verdict"]


def defect_report_csv(report):
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(DEFECT_CSV_HEADER)
    for e in report.entries:
        for r in e.rows:
            writer.writerow([e.index, r.element_label,
                             scalars.render(r.d1), scalars.render(r.d2),
                             scalars.render(r.d3), scalars.render(r.d4),
                             e.symmetric, e.verdict])
    return buf.getvalue()


CONVERGENCE_CSV_HEADER = ["n", "element", "d1", "d2", "d3", "d4", "tail_bound"]


def convergence_rows_csv(rows):
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(CONVERGENCE_CSV_HEADER)
    for row in rows:
        writer.writerow([row["n"], row["element"],
                         scalars.render(row["d1"]), scalars.render(row["d2"]),
                         scalars.render(row["d3"]), scalars.render(row["d4"]),
                         scalars.render(row["tail_bound"])])
    return buf.getvalue()


# -- file helpers ----------------------------------------------------------

def _non_finite(literal):
    raise SchemaError(f"non-finite JSON number {literal}; scalars must be finite")


def _finite_float(literal):
    x = float(literal)
    if math.isinf(x):
        raise SchemaError(f"JSON number {literal} is beyond the float range")
    return x


def load_json(path):
    """The JSON value in path; Infinity, NaN and numbers that overflow a float
    (1e400) are a SchemaError that names the literal."""
    try:
        with open(path, "r", encoding="utf-8") as f:
            return json.load(f, parse_float=_finite_float, parse_constant=_non_finite)
    except OSError as exc:
        raise SchemaError(f"cannot read {path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise SchemaError(f"malformed JSON in {path}: {exc}") from None


_STR = json.encoder.encode_basestring_ascii
_INF = float("inf")


def _float(x):
    if x != x:
        return "NaN"
    if x == _INF:
        return "Infinity"
    if x == -_INF:
        return "-Infinity"
    return float.__repr__(x)


def _key(key):
    if isinstance(key, str):
        return _STR(key)
    if key is None or isinstance(key, (int, float)):
        return _STR(json.dumps(key))
    raise TypeError(f"keys must be str, int, float, bool or None, "
                    f"not {key.__class__.__name__}")


def _encode(obj, newline):
    """json.dumps(obj, indent=2) at the depth whose line break and indent is
    newline; a list of only strings or only floats is joined in one pass."""
    if isinstance(obj, str):
        return _STR(obj)
    if isinstance(obj, float):
        return _float(obj)
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        inner = newline + "  "
        types = set(map(type, obj))
        if types == {str}:
            body = ("," + inner).join(map(_STR, obj))
        elif types == {float}:
            body = ("," + inner).join(map(float.__repr__, obj))
            if "n" in body:   # nan or inf
                body = ("," + inner).join(map(_float, obj))
        else:
            body = ("," + inner).join([_encode(x, inner) for x in obj])
        return f"[{inner}{body}{newline}]"
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        inner = newline + "  "
        body = ("," + inner).join([f"{_key(k)}: {_encode(v, inner)}" for k, v in obj.items()])
        return f"{{{inner}{body}{newline}}}"
    return json.dumps(obj)


def dump_json(obj, path=None):
    """json.dumps(obj, indent=2), byte for byte; written with a final newline."""
    text = _encode(obj, "\n")
    if path is None:
        return text
    with open(path, "w", encoding="utf-8") as f:
        f.write(text + "\n")
    return text
