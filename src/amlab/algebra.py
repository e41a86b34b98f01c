"""Finite-dimensional weighted-l1 algebras presented by structure constants.

A presentation fixes a finite basis b_0..b_{d-1}, positive weights w_i, and
sparse structure constants c_{ijk} with b_i b_j = sum_k c_{ijk} b_k.  The
norm of sum a_i b_i is sum |a_i| w_i.  On construction we validate
associativity on basis triples, on integer_tables (the constants with one
denominator cleared, ints in rational mode: the table of the algebra as a
bimodule over itself, which the regular bimodule shares), and certify
submultiplicativity (sum_k |c_{ijk}| w_k <= w_i w_j for every pair); a
presentation failing the certificate is accepted with a warning flag and
norm inequalities are then not guaranteed.
"""

import math
from fractions import Fraction
from functools import cached_property

from . import scalars
from . import linalg
from .scalars import RATIONAL, DEFAULT_FLOAT_TOL, SchemaError


class AlgebraError(ValueError):
    """Misuse of the API: mixed presentations, elements over the wrong space."""


class PresentationError(AlgebraError):
    """A presentation (or map/module built on one) failed invariant validation."""


class BasisSpace:
    """A labeled, weighted basis with a scalar mode; base for algebras and bimodules.

    eps is the exact-vs-float rule for zero tests: scalar(0) in rational mode
    and tol in float mode.  A vector is zero when its weighted norm is <= eps,
    which in rational mode (weights are positive) means literally zero.
    """

    def __init__(self, labels, weights=None, mode=RATIONAL, tol=DEFAULT_FLOAT_TOL, name=None):
        scalars.check_mode(mode)
        labels = tuple(str(x) for x in labels)
        if len(set(labels)) != len(labels):
            raise PresentationError("basis labels must be distinct")
        self.labels = labels
        self.mode = mode
        self.tol = scalars.check_tol(tol)
        self.eps = self.scalar(0) if mode == RATIONAL else self.tol
        self.name = name
        if weights is None:
            weights = [1] * len(labels)
        if len(weights) != len(labels):
            raise PresentationError("weights and basis labels differ in length")
        self.weights = tuple(scalars.coerce(w, mode) for w in weights)
        for w in self.weights:
            if not w > 0:
                raise PresentationError(f"weights must be positive, got {w}")
        self._index = {lab: i for i, lab in enumerate(labels)}

    @property
    def dim(self):
        return len(self.labels)

    def label_index(self, label):
        try:
            return self._index[label]
        except KeyError:
            raise SchemaError(f"unknown basis label {label!r}") from None

    def scalar(self, value):
        return scalars.coerce(value, self.mode)

    def check_index(self, i):
        # type, not isinstance: a bool (JSON true/false) is an int but no index
        if type(i) is not int or not 0 <= i < self.dim:
            raise SchemaError(f"basis index {i!r} out of range for dimension {self.dim}")
        return i

    def element(self, coeffs):
        """Element from a dict {index or label: scalar} or a dense list."""
        data = {}
        if isinstance(coeffs, dict):
            items = coeffs.items()
        else:
            items = enumerate(coeffs)
        for key, value in items:
            i = self.label_index(key) if isinstance(key, str) else self.check_index(key)
            c = self.scalar(value)
            if c != 0:
                data[i] = data.get(i, 0) + c
        return Element(self, {i: c for i, c in data.items() if c != 0})

    def basis_element(self, i):
        return Element(self, {self.check_index(i): self.scalar(1)})

    def basis_elements(self):
        return [self.basis_element(i) for i in range(self.dim)]

    def zero(self):
        return Element(self, {})

    def _clean_table(self, table, first, second):
        """A table {(i, j): {k: c}} over this space with checked indices and
        coerced nonzero entries; i indexes first and j second (spaces)."""
        out = {}
        for (i, j), entry in table.items():
            first.check_index(i)
            second.check_index(j)
            row = {}
            for k, c in entry.items():
                self.check_index(k)
                c = self.scalar(c)
                if c != 0:
                    row[k] = c
            if row:
                out[(i, j)] = row
        return out

    def is_zero_scalar(self, x):
        return abs(x) <= self.eps

    def _vec_small(self, vec):
        return sum(abs(c) * self.weights[k] for k, c in vec.items()) <= self.eps

    def _agree(self, lhs, rhs):
        """Equal up to eps in the weighted norm: exact equality in rational mode."""
        return lhs == rhs or self._vec_small(linalg.vec_sub(lhs, rhs))


class AlgebraPresentation(BasisSpace):
    """Structure-constant presentation of a weighted-l1 algebra.

    mul maps (i, j) to {k: c_{ijk}}; absent pairs multiply to zero.
    meta is free-form provenance (block offsets, group tables, unitization
    parent) used by constructors that need to relate presentations.
    """

    def __init__(self, labels, mul, weights=None, unit=None, mode=RATIONAL,
                 tol=DEFAULT_FLOAT_TOL, name=None, meta=None, validate=True):
        super().__init__(labels, weights, mode, tol, name)
        self.mul = self._clean_table(mul, self, self)
        self.unit = None
        if unit is not None:
            u = self.element(unit)
            self.unit = dict(u.coeffs)
        self.meta = dict(meta or {})
        self.warnings = []
        self.submultiplicative = True
        if validate:
            self._check_associativity()
            self._check_submultiplicativity()
            if self.unit is not None:
                self._check_unit()

    def product_indices(self, i, j):
        """Structure-constant row for b_i b_j (empty dict when the product is zero)."""
        return self.mul.get((i, j), _EMPTY)

    @cached_property
    def integer_tables(self):
        """The table in integer form (IntegerTables), as the algebra's own
        regular bimodule; built by validation or on first use."""
        return IntegerTables(self.mode, self.mul, self.mul, self.mul, self.dim, self.dim)

    def _check_associativity(self):
        """(b_i b_j) b_k == b_i (b_j b_k) on every triple with a nonzero side.

        A side is nonzero only if (i, j) or (j, k) is in the table: the first
        pass takes the triples with (i, j) in it, the second those with
        (j, k) in it and (i, j) not.  Each triple runs on integer_tables,
        where both sides carry the same factor D^2.
        """
        mul = self.mul
        for (i, j) in mul:
            for k in range(self.dim):
                self._check_triple(i, j, k)
        for (j, k) in mul:
            for i in range(self.dim):
                if (i, j) not in mul:
                    self._check_triple(i, j, k)

    def _check_triple(self, i, j, k):
        """One basis triple, on integer_tables: left[i][m] is the row of
        b_i b_m and right[k][m] that of b_m b_k."""
        ints = self.integer_tables
        left_i, right_k = ints.left[i], ints.right[k]
        lhs = {}
        for m, c in left_i.get(j, _EMPTY).items():
            row = right_k.get(m)
            if row:
                linalg.vec_add_scaled(lhs, row, c)
        rhs = {}
        for m, c in ints.left[j].get(k, _EMPTY).items():
            row = left_i.get(m)
            if row:
                linalg.vec_add_scaled(rhs, row, c)
        if not self._agree(lhs, rhs):
            raise PresentationError(
                f"associativity fails on basis triple "
                f"({self.labels[i]}, {self.labels[j]}, {self.labels[k]})")

    def _check_submultiplicativity(self):
        """sum_k |c_ijk| w_k <= w_i w_j on every pair in the table, on
        integer_tables: in rational mode with the weights' denominators
        cleared too (v = W w), as W sum_k |C_ijk| v_k <= D v_i v_j, summed
        once per shared row; in float mode up to eps."""
        ints, w = self.integer_tables, self.weights
        if self.mode == RATIONAL:
            den = math.lcm(*(x.denominator for x in w))
            v = [x.numerator * (den // x.denominator) for x in w]
            total_scale, bound_scale, slack = den, ints.scale, 0
        else:
            v, total_scale, bound_scale, slack = w, 1, 1, self.eps
        totals = {}
        for (i, j) in self.mul:
            row = ints.mul[(i, j)]
            total = totals.get(id(row))
            if total is None:
                total = sum(abs(c) * v[k] for k, c in row.items())
                total = totals[id(row)] = total_scale * total
            if total > bound_scale * v[i] * v[j] + slack:
                self.submultiplicative = False
                total = sum(abs(c) * w[k] for k, c in self.mul[(i, j)].items())
                self.warnings.append(
                    f"submultiplicativity certificate fails at "
                    f"({self.labels[i]}, {self.labels[j]}): {total} > {w[i] * w[j]}")
        # warn once; norm inequalities are skipped downstream when not certified

    def _check_unit(self):
        """b_i u == b_i == u b_i for every i, on integer_tables (both sides
        carry the factor D)."""
        ints = self.integer_tables
        for i in range(self.dim):
            b = {i: ints.scale}
            if (not self._agree(_act(ints.right[i], self.unit), b)
                    or not self._agree(_act(ints.left[i], self.unit), b)):
                raise PresentationError(f"claimed unit does not fix basis element {self.labels[i]}")

    def unit_element(self):
        if self.unit is None:
            return None
        return Element(self, dict(self.unit))

    def is_commutative(self):
        return self.integer_tables.actions_commute(self._agree)

    def structurally_equal(self, other):
        """Same labels, weights, table and unit (element mixing still requires identity)."""
        if self is other:
            return True
        return (isinstance(other, AlgebraPresentation)
                and self.labels == other.labels
                and self.weights == other.weights
                and self.mode == other.mode
                and self.mul == other.mul
                and self.unit == other.unit)

    def __repr__(self):
        tag = self.name or f"{self.dim}-dim algebra"
        return f"<AlgebraPresentation {tag}>"


_EMPTY = {}


class IntegerTables:
    """A bimodule's structure and action tables with one common denominator cleared.

    Every entry is scale times the true constant (scalars.clear_denominators):
    an int in rational mode, where scale is the lcm D of the algebra's and
    both actions' denominators, and the float itself in float mode, where
    scale is 1; a table object passed twice is cleared once.  mul maps (i, j)
    to the row of b_i b_j.  left[i] and right[i] map each module index j with
    a nonzero action, in increasing order, to the row of b_i x_j and of x_j b_i.
    Equal rows are stored once (a group algebra's tables hold one row per
    group element), so rows are read-only.

    Index d = dim is the unit e adjoined in the unitization A#: mul holds A#'s
    unit rows (d, i) and (i, d) -> {i: scale} and (d, d) -> {d: scale}, and
    left[d] and right[d] map each of the module_dim module indices j to
    {j: scale}, e acting as the identity.
    """

    __slots__ = ("scale", "mul", "left", "right")

    def __init__(self, mode, mul, left, right, dim, module_dim):
        distinct = {id(t): t for t in (mul, left, right)}
        self.scale, *cleared = scalars.clear_denominators(mode, *distinct.values())
        cleared = dict(zip(distinct, cleared))
        mul, left, right = (cleared[id(t)] for t in (mul, left, right))
        rows = {}

        def shared(row):
            return rows.setdefault(tuple(row.items()), row)

        self.mul = {key: shared(row) for key, row in mul.items()}
        for i in range(dim):
            self.mul[(dim, i)] = self.mul[(i, dim)] = shared({i: self.scale})
        self.mul[(dim, dim)] = shared({dim: self.scale})
        self.left = [{} for _ in range(dim)]
        self.right = [{} for _ in range(dim)]
        for (i, j), row in sorted(left.items()):
            self.left[i][j] = shared(row)
        for (j, i), row in sorted(right.items()):
            self.right[i][j] = shared(row)
        identity = {j: shared({j: self.scale}) for j in range(module_dim)}
        self.left.append(identity)
        self.right.append(identity)

    def actions_commute(self, agree):
        """True when agree(b_i x_j, x_j b_i) holds on every basis pair."""
        return all(agree(left.get(j, _EMPTY), right.get(j, _EMPTY))
                   for left, right in zip(self.left, self.right)
                   for j in left.keys() | right.keys())


def _act(rows, vec):
    """sum of c * rows[j] over the entries c at j of vec; rows is one index's
    action in IntegerTables, and the arithmetic is that of the operands."""
    out = {}
    for j, c in vec.items():
        row = rows.get(j)
        if row:
            linalg.vec_add_scaled(out, row, c)
    return out


def _block_layout(spaces):
    """(labels, weights, offsets) of the l1 direct sum, labels prefixed by block number."""
    labels, weights, offsets = [], [], []
    for bi, space in enumerate(spaces):
        offsets.append(len(labels))
        labels.extend(f"{bi}:{lab}" for lab in space.labels)
        weights.extend(space.weights)
    return labels, weights, offsets


def _shifted(table, first, second, row):
    """table {(i, j): {k: c}} with i, j and k shifted by first, second and row."""
    return {(i + first, j + second): {k + row: c for k, c in entry.items()}
            for (i, j), entry in table.items()}


def _is_scalar(x):
    return isinstance(x, (int, float, Fraction, str)) and not isinstance(x, bool)


def same_space(x, y, what="operands"):
    if x.space is not y.space:
        raise AlgebraError(f"{what} live over different presentations")


class Element:
    """Sparse coefficient vector over a presentation's basis.

    Zero coefficients are never stored.  Values are immutable by
    convention: every operation returns a fresh Element.
    """

    __slots__ = ("space", "coeffs")

    def __init__(self, space, coeffs):
        self.space = space
        self.coeffs = coeffs

    def norm(self):
        w = self.space.weights
        return sum((abs(c) * w[i] for i, c in self.coeffs.items()), self.space.scalar(0))

    def is_zero(self):
        return self.norm() <= self.space.eps

    def __add__(self, other):
        same_space(self, other)
        out = dict(self.coeffs)
        linalg.vec_add_scaled(out, other.coeffs, 1)
        return Element(self.space, out)

    def __sub__(self, other):
        same_space(self, other)
        out = dict(self.coeffs)
        linalg.vec_add_scaled(out, other.coeffs, -1)
        return Element(self.space, out)

    def __neg__(self):
        return Element(self.space, {i: -c for i, c in self.coeffs.items()})

    def scaled(self, c):
        c = self.space.scalar(c)
        if c == 0:
            return Element(self.space, {})
        return Element(self.space, {i: c * x for i, x in self.coeffs.items()})

    def __rmul__(self, other):
        if not _is_scalar(other):
            return NotImplemented
        return self.scaled(other)

    def __mul__(self, other):
        if isinstance(other, Element):
            return multiply(self, other)
        if not _is_scalar(other):
            return NotImplemented
        return self.scaled(other)

    def __eq__(self, other):
        return (isinstance(other, Element) and self.space is other.space
                and self.coeffs == other.coeffs)

    def __hash__(self):
        return hash((id(self.space), tuple(sorted(self.coeffs.items()))))

    def get(self, i):
        return self.coeffs.get(i, 0)

    def support(self):
        return sorted(self.coeffs)

    def __repr__(self):
        if not self.coeffs:
            return "0"
        parts = [f"{c}*{self.space.labels[i]}" for i, c in sorted(self.coeffs.items())]
        return " + ".join(parts)


def multiply(a, b):
    """Product through the structure constants; both factors over one algebra."""
    same_space(a, b, "factors")
    space = a.space
    if not isinstance(space, AlgebraPresentation):
        raise AlgebraError("product requires an algebra presentation, not a bare module")
    out = {}
    for i, ci in a.coeffs.items():
        for j, cj in b.coeffs.items():
            row = space.product_indices(i, j)
            if row:
                linalg.vec_add_scaled(out, row, ci * cj)
    return Element(space, out)


def norm(a):
    return a.norm()


def commutator(a, b):
    return multiply(a, b) - multiply(b, a)


def unitize(algebra):
    """Adjoin a unit e of weight 1; the norm becomes ||a|| + |lambda| on a + lambda e.

    Applied unconditionally, whether or not the algebra already has a unit.
    The result records its parent so module actions can treat e as the
    identity.
    """
    d = algebra.dim
    label = "e"
    while label in algebra.labels:
        label += "'"
    labels = algebra.labels + (label,)
    weights = list(algebra.weights) + [1]
    mul = {key: dict(row) for key, row in algebra.mul.items()}
    one = algebra.scalar(1)
    for i in range(d):
        mul[(d, i)] = {i: one}
        mul[(i, d)] = {i: one}
    mul[(d, d)] = {d: one}
    unit = {d: one}
    name = f"{algebra.name}#" if algebra.name else None
    meta = {"unitized_from": algebra, "adjoined_index": d}
    return AlgebraPresentation(labels, mul, weights, unit, algebra.mode,
                               algebra.tol, name, meta)


def opposite(algebra):
    """Same space, product reversed: a o b = ba."""
    mul = {(j, i): dict(row) for (i, j), row in algebra.mul.items()}
    name = f"{algebra.name}^op" if algebra.name else None
    return AlgebraPresentation(algebra.labels, mul, algebra.weights,
                               dict(algebra.unit) if algebra.unit else None,
                               algebra.mode, algebra.tol, name,
                               {"opposite_of": algebra})


def center(algebra):
    """Basis of {x : x b_i == b_i x for every basis element}: the center of
    the algebra as a bimodule over itself."""
    from .derivations import regular_bimodule
    return [Element(algebra, z.coeffs) for z in regular_bimodule(algebra).center()]


def basis_commutators(algebra):
    """(p, q, [b_p, b_q]) for p < q, as sparse vectors, skipping zero commutators."""
    for p in range(algebra.dim):
        for q in range(p + 1, algebra.dim):
            v = dict(algebra.product_indices(p, q))
            linalg.vec_add_scaled(v, algebra.product_indices(q, p), -1)
            if v:
                yield p, q, v


def commutator_subspace(algebra):
    """Basis of span{b_p b_q - b_q b_p}, by exact elimination."""
    sp = linalg.Span(algebra.eps)
    for _, _, v in basis_commutators(algebra):
        sp.add(v)
    return [Element(algebra, {i: algebra.scalar(c) for i, c in sorted(v.items())})
            for v in sp.rows]


def generating_set(algebra):
    """Basis indices S that generate the algebra.

    S is picked greedily in basis order: b_i joins S when it is not in the
    closure of the elements picked before it.  The closure is span(S) closed
    under v -> v b_s for s in S, which is the subalgebra S generates (every
    product of elements of S is a word s_1 ... s_k).  It is built exactly on
    integer_tables, so every b_i is either in S or proven to lie in the
    closure.  In float mode S is the whole basis, whatever the tolerance: a
    float table is associative only up to rounding, and a rounded product
    that lies in the closure leaves a residue, so no closure read off it is
    a proof.
    """
    if algebra.mode != RATIONAL:
        return list(range(algebra.dim))
    right = algebra.integer_tables.right
    closure = linalg.Span()
    found = []          # vectors spanning the closure, each reached from S
    gens = []
    for i in range(algebra.dim):
        v = {i: 1}
        if closure.add(v) is None:
            continue
        gens.append(i)
        found.append(v)
        pending = [(u, i) for u in found] + [(v, s) for s in gens[:-1]]
        while pending:
            v, s = pending.pop()
            w = _act(right[s], v)
            if closure.add(w) is not None:
                found.append(w)
                pending.extend((w, t) for t in gens)
    return gens
