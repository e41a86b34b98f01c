"""Finite Banach bimodules and derivation-type maps.

A bimodule presentation fixes module basis vectors x_0..x_{m-1}, weights,
and sparse action tables for b_i x_j and x_j b_i; the module laws
(ab)x = a(bx), x(ab) = (xa)b and (ax)b = a(xb) are validated on basis
triples.  A map D into the module is a derivation / Jordan derivation /
Lie derivation when the corresponding product rule holds.  Each identity
is written once, as per-basis-pair terms (_identity_terms).  The five
defect gates (derivation_defect ... trace_defect) evaluate the terms of
every pair on a map, since they report a norm.  classify_maps returns the
solution space of those terms' linear equations, by one of three routes,
chosen from the input.  In rational mode central_trace is read off as
Hom(A/[A, A], Z(X)) from commutator_subspace and the module's center, and
on an algebra whose trace-form diagonal (diagonals.trace_form_diagonal) is
certified an exact symmetric diagonal, the derivation, Jordan and Lie
spaces are read off the decomposition theorems: inner derivations, plus
central traces for Lie.  Everywhere else, float mode included, the
equations of every basis pair are eliminated (_eliminated), so a gate is
zero exactly when the map solves them.

In rational mode these run in ints: a bimodule's algebra.IntegerTables hold
its algebra's and both action tables with one common denominator cleared,
built once on first use; the regular bimodule shares its algebra's, which
validation built.  The rows classify_maps eliminates are those tables'
ints, the gates clear a map's images and the weights once and divide once
at the end, and the module actions (left_index, right_index,
sandwich_action, image_action, inner_derivation) return Fractions only in
their results.  Float mode runs the same code with a scale of 1 and the
same float operations.  The tables also carry the adjoined unit of the
unitization A# as index d = dim A, acting on the module as the identity, so
a map or tensor over A# runs through the same rows as one over A.

The decomposition procedures run against a symmetric diagonal over the
unitization of the algebra (a diagonal of a unital algebra is lifted
automatically), whose defects are measured once per tensor.  Both routes
share stage one: x is the diagonal pushed through the map (image_action)
and S(a) the sandwich of D(a) through it; a Jordan derivation satisfies
D(a) = (a x - x a) - S(a) and a Lie derivation D(a) = (a x - x a) + S(a).
The Jordan route repeats the construction once on the central remainder
and halves it; the Lie route returns the inner part and the central-trace
remainder as two maps.
"""

from dataclasses import dataclass
from functools import cached_property
from itertools import chain

from . import linalg, scalars
from .algebra import (AlgebraError, AlgebraPresentation, BasisSpace, Element,
                      IntegerTables, PresentationError, _EMPTY, _act, _block_layout,
                      _shifted, commutator_subspace, generating_set)
from .diagonals import defects, trace_form_diagonal, unitized_diagonal
from .maps import LinearMap, map_from_flat

MAP_KINDS = ("derivation", "jordan", "lie", "central_trace")


class BimodulePresentation(BasisSpace):
    """Banach bimodule over a presented algebra, given by action tables.

    left maps (algebra index, module index) to sparse module vectors for
    b_i x_j; right maps (module index, algebra index) for x_j b_i.
    """

    def __init__(self, algebra, labels, left, right, weights=None, name=None,
                 validate=True):
        if not isinstance(algebra, AlgebraPresentation):
            raise AlgebraError("a bimodule needs an algebra presentation")
        super().__init__(labels, weights, algebra.mode, algebra.tol, name)
        self.algebra = algebra
        self.left = self._clean_table(left, algebra, self)
        self.right = self._clean_table(right, self, algebra)
        if validate:
            self._check_module_laws()

    @classmethod
    def regular(cls, algebra, name=None):
        """The algebra as a bimodule over itself, sharing its table and integer_tables."""
        X = cls(algebra, algebra.labels, {}, {}, algebra.weights,
                name or (f"{algebra.name} (regular)" if algebra.name else None),
                validate=False)
        X.left = X.right = algebra.mul
        X.integer_tables = algebra.integer_tables
        return X

    @cached_property
    def action_bound(self):
        """max ||b_i x_j|| / (w_i v_j) over both tables, the weighted-l1
        operator bound of the bilinear action; computed on first use."""
        w, v = self.algebra.weights, self.weights
        best = self.scalar(0)
        for (i, j), row in chain(self.left.items(),
                                 (((i, j), row) for (j, i), row in self.right.items())):
            n = sum(abs(c) * v[k] for k, c in row.items()) / (w[i] * v[j])
            if n > best:
                best = n
        return best

    @cached_property
    def integer_tables(self):
        """The algebra's and both action tables in integer form (IntegerTables),
        built on first use."""
        return IntegerTables(self.mode, self.algebra.mul, self.left, self.right,
                             self.algebra.dim, self.dim)

    def left_index(self, i, vec):
        """b_i acting on a sparse module vector."""
        return self._apply(self.integer_tables.left[i], vec)

    def right_index(self, vec, i):
        """A sparse module vector times b_i."""
        return self._apply(self.integer_tables.right[i], vec)

    def _apply(self, rows, vec):
        """One index's rows of integer_tables applied to vec, in ints."""
        scale, (v,) = scalars.clear_denominators(self.mode, [vec])
        return self._unscaled(_act(rows, v), self.integer_tables.scale * scale)

    def _unscaled(self, vec, scale):
        return {k: scalars.unscale(self.mode, c, scale) for k, c in vec.items()}

    def _check_module_laws(self):
        """The three module laws on basis triples, on integer_tables (every side
        carries the factor D^2); a law whose two sides read no table row at
        x_k holds trivially and is skipped."""
        alg = self.algebra
        ints = self.integer_tables
        left, right = ints.left, ints.right
        for i in range(alg.dim):
            left_i, right_i = left[i], right[i]
            for j in range(alg.dim):
                prod = ints.mul.get((i, j), _EMPTY)
                left_j, right_j = left[j], right[j]
                for k in range(self.dim):
                    jk = left_j.get(k, _EMPTY)
                    if (prod or jk) and not self._agree(
                            linalg.vec_combination((c, left[m].get(k)) for m, c in prod.items()),
                            _act(left_i, jk)):
                        raise PresentationError(
                            f"left module law fails at ({alg.labels[i]}, "
                            f"{alg.labels[j]}, {self.labels[k]})")
                    ki = right_i.get(k, _EMPTY)
                    if (prod or ki) and not self._agree(
                            linalg.vec_combination((c, right[m].get(k)) for m, c in prod.items()),
                            _act(right_j, ki)):
                        raise PresentationError(
                            f"right module law fails at ({self.labels[k]}, "
                            f"{alg.labels[i]}, {alg.labels[j]})")
                    ik, kj = left_i.get(k, _EMPTY), right_j.get(k, _EMPTY)
                    if (ik or kj) and not self._agree(_act(right_j, ik), _act(left_i, kj)):
                        raise PresentationError(
                            f"mixed module law fails at ({alg.labels[i]}, "
                            f"{self.labels[k]}, {alg.labels[j]})")

    def adjoined_identity_index(self, carrier):
        """None when carrier is this module's algebra; the unit index when it
        is that algebra's unitization (where the adjoined unit acts as the
        identity on the module, as index algebra.dim of integer_tables).
        Raises AlgebraError for any other carrier."""
        if carrier is self.algebra:
            return None
        if carrier.meta.get("unitized_from") is self.algebra:
            return carrier.meta["adjoined_index"]
        raise AlgebraError(
            "carrier is neither the module's algebra nor its unitization")

    def act_left(self, a, x):
        """a x for a over the algebra or its unitization."""
        if x.space is not self:
            raise AlgebraError("module element is over a different bimodule")
        self.adjoined_identity_index(a.space)
        return Element(self, linalg.vec_combination(
            (c, self.left_index(i, x.coeffs)) for i, c in a.coeffs.items()))

    def act_right(self, x, a):
        if x.space is not self:
            raise AlgebraError("module element is over a different bimodule")
        self.adjoined_identity_index(a.space)
        return Element(self, linalg.vec_combination(
            (c, self.right_index(x.coeffs, i)) for i, c in a.coeffs.items()))

    def center(self):
        """Basis of {x : b_i x == x b_i for every algebra basis element}, from
        integer_tables, whose scale the nullspace does not depend on."""
        ints = self.integer_tables
        rows = []
        for left, right in zip(ints.left, ints.right):  # the unit's rows add none
            per_coord = {}
            for j in range(self.dim):
                for k, c in linalg.vec_sub(left.get(j, _EMPTY), right.get(j, _EMPTY)).items():
                    per_coord.setdefault(k, {})[j] = c
            rows.extend(per_coord.values())
        return [Element(self, {k: self.scalar(c) for k, c in v.items()})
                for v in linalg.nullspace(rows, self.dim, self.eps)]

    def is_symmetric_bimodule(self):
        """True when every action commutes: b_i x_j == x_j b_i on basis pairs."""
        return self.integer_tables.actions_commute(self._agree)

    def __repr__(self):
        tag = self.name or f"{self.dim}-dim bimodule"
        return f"<BimodulePresentation {tag}>"


def regular_bimodule(algebra, name=None):
    return BimodulePresentation.regular(algebra, name)


def direct_sum_bimodule(modules, name=None):
    """l1 direct sum of bimodules over one common algebra."""
    if not modules:
        raise AlgebraError("direct sum needs at least one module")
    algebra = modules[0].algebra
    for m in modules:
        if m.algebra is not algebra:
            raise AlgebraError("summands are modules over different algebras")
    labels, weights, offsets = _block_layout(modules)
    left = {}
    right = {}
    for o, m in zip(offsets, modules):
        left.update(_shifted(m.left, 0, o, o))
        right.update(_shifted(m.right, o, 0, o))
    return BimodulePresentation(algebra, labels, left, right, weights,
                                name or "module sum", validate=False)


# ---------------------------------------------------------------------------
# evaluations against a tensor
# ---------------------------------------------------------------------------

def sandwich_action(x, t):
    """sum c_ij b_i x b_j over the terms of t; x a module element.

    t may live over the module's algebra or over its unitization, whose
    adjoined unit acts as the identity.
    """
    X = x.space
    if not isinstance(X, BimodulePresentation):
        raise AlgebraError("sandwich evaluation needs a bimodule element")
    X.adjoined_identity_index(t.space)
    ints = X.integer_tables
    x_scale, (xv,) = scalars.clear_denominators(X.mode, [x.coeffs])
    t_scale, (tv,) = scalars.clear_denominators(X.mode, [t.coeffs])
    out = {}
    for (i, j), c in tv.items():
        linalg.vec_add_scaled(out, _act(ints.right[j], _act(ints.left[i], xv)), c)
    return Element(X, X._unscaled(out, ints.scale ** 2 * x_scale * t_scale))


def image_action(T, t):
    """sum c_ij b_i T(b_j) over the terms of t, with T(e) = 0 on the adjoined unit.

    T maps the algebra into a bimodule over it; t may live over the algebra
    or its unitization.
    """
    X = T.codomain
    if not isinstance(X, BimodulePresentation):
        raise AlgebraError("image evaluation needs a map into a bimodule")
    if T.domain is not X.algebra:
        raise AlgebraError("map must be defined on the module's algebra")
    X.adjoined_identity_index(t.space)
    ints = X.integer_tables
    images_scale, images = scalars.clear_denominators(X.mode, T.images + [{}])
    t_scale, (tv,) = scalars.clear_denominators(X.mode, [t.coeffs])
    out = {}
    for (i, j), c in tv.items():
        img = images[j]
        if img:
            linalg.vec_add_scaled(out, _act(ints.left[i], img), c)
    return Element(X, X._unscaled(out, ints.scale * images_scale * t_scale))


# ---------------------------------------------------------------------------
# identity defects and classification
# ---------------------------------------------------------------------------

def _identity_terms(mul, d, kind):
    """The identity's terms on a map D, one list per basis pair (i, j).

    mul is the d-dimensional domain's product table {(i, j): row}.  A term
    (coefficient, q, op) stands for D(b_q) when op is None, for b_i D(b_q)
    when op is ("L", i) and for D(b_q) b_j when op is ("R", j); the identity
    holds at the pair when its terms sum to zero.  An action term's
    coefficient is 1 or -1, so on IntegerTables, whose product and action
    constants carry the same scale, the terms are the identity times that
    scale.  Jordan, Lie and trace pairs run over i <= j or i < j: swapping i
    and j gives the same terms up to sign.
    """
    if kind == "derivation":
        for i in range(d):
            for j in range(d):
                terms = [(c, q, None) for q, c in mul.get((i, j), _EMPTY).items()]
                yield terms + [(-1, i, ("R", j)), (-1, j, ("L", i))]
    elif kind == "jordan":
        for i in range(d):
            for j in range(i, d):
                acc = dict(mul.get((i, j), _EMPTY))
                linalg.vec_add_scaled(acc, mul.get((j, i), _EMPTY), 1)
                terms = [(c, q, None) for q, c in acc.items()]
                yield terms + [(-1, i, ("R", j)), (-1, j, ("L", i)),
                               (-1, j, ("R", i)), (-1, i, ("L", j))]
    elif kind == "lie":
        for i in range(d):
            for j in range(i + 1, d):
                acc = linalg.vec_sub(mul.get((i, j), _EMPTY), mul.get((j, i), _EMPTY))
                terms = [(c, q, None) for q, c in acc.items()]
                yield terms + [(-1, i, ("R", j)), (-1, j, ("L", i)),
                               (1, j, ("R", i)), (1, i, ("L", j))]
    elif kind == "central":
        for i in range(d):
            for j in range(d):
                yield [(1, j, ("L", i)), (-1, j, ("R", i))]
    elif kind == "trace":
        for i in range(d):
            for j in range(i + 1, d):
                acc = linalg.vec_sub(mul.get((i, j), _EMPTY), mul.get((j, i), _EMPTY))
                yield [(c, q, None) for q, c in acc.items()]
    else:
        raise ValueError(f"unknown identity kind {kind!r}")


def _identity_defect(D, kind):
    """Largest weighted norm over basis pairs of the identity's residual at D.

    D's domain is the module's algebra or its unitization, whose adjoined
    unit acts as the identity (index dom.dim of the bimodule's integer
    tables); the trace identity has no action terms and accepts any domain
    and codomain.  The residuals and their norms are computed in ints, on
    integer tables, D's images and the codomain's weights with their
    denominators cleared, and divided out once at the end.
    """
    X, dom = D.codomain, D.domain
    if kind == "trace":
        ints = dom.integer_tables
    elif isinstance(X, BimodulePresentation):
        X.adjoined_identity_index(dom)
        ints = X.integer_tables
    else:
        raise AlgebraError(f"the {kind} identity needs a map into a bimodule")
    images_scale, images = scalars.clear_denominators(X.mode, D.images)
    weights_scale, (w,) = scalars.clear_denominators(X.mode, [dict(enumerate(X.weights))])
    worst = 0
    for terms in _identity_terms(ints.mul, dom.dim, kind):
        residual = {}
        for alpha, q, op in terms:
            vec = images[q]
            if not vec:
                continue
            if op is not None:
                vec = _act((ints.left if op[0] == "L" else ints.right)[op[1]], vec)
            linalg.vec_add_scaled(residual, vec, alpha)
        n = sum(abs(c) * w[k] for k, c in residual.items())
        if n > worst:
            worst = n
    return scalars.unscale(X.mode, worst, ints.scale * images_scale * weights_scale)


def derivation_defect(D):
    """max || D(b_i b_j) - D(b_i) b_j - b_i D(b_j) || over basis pairs."""
    return _identity_defect(D, "derivation")


def jordan_defect(D):
    """max || D(b_i b_j + b_j b_i) - D(b_i) b_j - b_i D(b_j) - D(b_j) b_i - b_j D(b_i) ||."""
    return _identity_defect(D, "jordan")


def lie_defect(D):
    """max || D([b_i, b_j]) - D(b_i) b_j - b_i D(b_j) + D(b_j) b_i + b_j D(b_i) ||."""
    return _identity_defect(D, "lie")


def centrality_defect(D):
    """max || b_i D(b_j) - D(b_j) b_i ||; zero when D is central-valued."""
    return _identity_defect(D, "central")


def trace_defect(D):
    """max || D(b_i b_j - b_j b_i) ||; zero when D kills commutators."""
    return _identity_defect(D, "trace")


def inner_derivation(X, x):
    """The inner derivation a -> a x - x a for a module element x, on the
    integer tables with x's denominators cleared once."""
    if x.space is not X:
        raise AlgebraError("element is over a different bimodule")
    ints = X.integer_tables
    x_scale, (xv,) = scalars.clear_denominators(X.mode, [x.coeffs])
    images = [X._unscaled(linalg.vec_sub(_act(ints.left[q], xv), _act(ints.right[q], xv)),
                          ints.scale * x_scale)
              for q in range(X.algebra.dim)]
    return LinearMap(X.algebra, X, images)


def _identity_rows(algebra, X, kind):
    """Linear equations on the flattened map matrix imposed by the identity
    on every basis pair.

    The rows are built on X.integer_tables, so in rational mode they are in
    ints: the equations times the tables' scale.  Action terms walk only the
    nonzero entries of their index; a product term writes alpha at column
    q*m + k of coordinate k's row.
    """
    m = X.dim
    ints = X.integer_tables
    rows = []
    for terms in _identity_terms(ints.mul, algebra.dim, kind):
        per_coord = {}
        for alpha, q, op in terms:
            base = q * m
            if op is None:
                for k in range(m):
                    row, col = per_coord.setdefault(k, {}), base + k
                    v = row.get(col, 0) + alpha
                    if v == 0:
                        row.pop(col, None)
                    else:
                        row[col] = v
                continue
            for k, vec in (ints.left if op[0] == "L" else ints.right)[op[1]].items():
                col = base + k
                for l, c in vec.items():
                    row = per_coord.setdefault(l, {})
                    v = row.get(col, 0) + alpha * c
                    if v == 0:
                        row.pop(col, None)
                    else:
                        row[col] = v
        rows.extend(r for r in per_coord.values() if r)
    return rows


def _central_traces(algebra, X):
    """Hom(A/[A, A], Z(X)), flattened: the maps w (x) z, entry w_q z_k at
    q*m + k, for w in the nullspace of a basis of [A, A] and z in X.center(),
    in that order; a factor's basis vector is 1 at its own free column, 0 at
    the others' and ends there, so these are nullspace's basis of every
    pair's rows, in order."""
    m = X.dim
    traces = linalg.nullspace([c.coeffs for c in commutator_subspace(algebra)], algebra.dim)
    center = X.center()
    return [{q * m + k: a * b for q, a in w.items() for k, b in z.coeffs.items()}
            for w in traces for z in center]


def _has_exact_symmetric_diagonal(algebra):
    """True when trace_form_diagonal gives a tensor that passes the certificate:
    symmetric, with all four defects zero at each element of a generating set.

    The generators suffice: the elements a at which all four defects vanish
    form a subalgebra, as (ab) t = a (t b) = (t a) b = t (ab) and
    c (ab) = (c a) b = ab for c = contract(t), and likewise for the flip.
    """
    omega, _ = trace_form_diagonal(algebra)
    return omega is not None and omega.symmetry_defect() == 0 and all(
        max(defects(omega, algebra.basis_element(s))) == 0 for s in generating_set(algebra))


def _by_the_theorems(algebra, X, kind):
    """The derivation, Jordan or Lie maps of an algebra with an exact symmetric
    diagonal, read off the decomposition theorems (B. E. Johnson 1996; the
    paper's last section): into every bimodule every derivation is inner,
    every Jordan derivation is a derivation, and every Lie derivation is a
    derivation plus a central trace.  So derivation = jordan = span{ad_x_j}
    over the module basis, with ad_x_j(b_q) = b_q x_j - x_j b_q read off
    integer_tables, and lie adds _central_traces.

    The span is returned in nullspace's canonical form, the reduced basis
    whose rows end at distinct columns with a 1 there and a 0 at the others'
    ends, sorted by that column: column c enters one Span as N - 1 - c, so
    each stored row's pivot is its largest column.
    """
    m, N = X.dim, algebra.dim * X.dim
    ints = X.integer_tables
    vectors = [{} for _ in range(m)]
    for q in range(algebra.dim):
        end = N - 1 - q * m
        for sign, rows in ((1, ints.left[q]), (-1, ints.right[q])):
            for j, row in rows.items():
                linalg.vec_add_scaled(vectors[j], {end - k: c for k, c in row.items()}, sign)
    if kind == "lie":
        vectors.extend({N - 1 - c: x for c, x in v.items()}
                       for v in _central_traces(algebra, X))
    rows = linalg.span_basis(vectors).rows
    return sorted(({N - 1 - c: x for c, x in row.items()} for row in rows), key=max)


def _eliminated(algebra, X, kinds):
    """nullspace of the identity rows of each of kinds on every basis pair,
    concatenated."""
    rows = [row for kind in kinds for row in _identity_rows(algebra, X, kind)]
    return linalg.nullspace(rows, algebra.dim * X.dim, algebra.eps)


def classify_maps(algebra, X, kind):
    """Exact basis of the space of maps satisfying the requested identity.

    kind is one of "derivation", "jordan", "lie" or "central_trace"
    (central-valued maps killing commutators).  The basis is nullspace's
    canonical one for the identity's equations on the flattened map matrix.

    In rational mode central_trace is read off as Hom(A/[A, A], Z(X)).  For
    the other kinds the trace-form diagonal (diagonals.trace_form_diagonal)
    is built and certified exact and symmetric first; when it passes, the
    space is spanned by the inner derivations, plus the central traces for
    lie (_by_the_theorems).  When it does not, as on a non-semisimple
    algebra, and for every kind in float mode, the identity's rows on every
    basis pair are eliminated (the central and trace rows for
    central_trace).
    """
    if X.algebra is not algebra:
        raise AlgebraError("module is not over the given algebra")
    if kind not in MAP_KINDS:
        raise ValueError(f"unknown map kind {kind!r}; expected one of {MAP_KINDS}")
    exact = algebra.mode == scalars.RATIONAL
    if exact and kind == "central_trace":
        basis = _central_traces(algebra, X)
    elif exact and _has_exact_symmetric_diagonal(algebra):
        basis = _by_the_theorems(algebra, X, kind)
    else:
        basis = _eliminated(algebra, X, ("central", "trace") if kind == "central_trace"
                            else (kind,))
    return [map_from_flat(algebra, X, v) for v in basis]


def central_derivation_space(algebra, X, diagonal=None):
    """Basis of central-valued derivations, from the derivation and central
    rows of every basis pair; empty when an exact symmetric diagonal is
    supplied (any nonzero solution would falsify the library)."""
    if X.algebra is not algebra:
        raise AlgebraError("module is not over the given algebra")
    basis = [map_from_flat(algebra, X, v)
             for v in _eliminated(algebra, X, ("derivation", "central"))]
    checked = False
    if diagonal is not None:
        _, quality = _prepare_diagonal(X, diagonal)
        if _diagonal_fault(quality) is None:
            checked = True
            if basis:
                raise AlgebraError(
                    "nonzero central derivation coexists with an exact symmetric "
                    "diagonal; the implementation is inconsistent")
    return CentralDerivationReport(basis=basis, vanishing_checked=checked)


@dataclass
class CentralDerivationReport:
    basis: list
    vanishing_checked: bool

    @property
    def dim(self):
        return len(self.basis)


# ---------------------------------------------------------------------------
# decompositions
# ---------------------------------------------------------------------------

@dataclass
class DiagonalQuality:
    max_defect: object
    symmetry_defect: object
    tolerance: object

    @property
    def symmetric(self):
        return self.symmetry_defect <= self.tolerance

    @property
    def exact(self):
        return self.max_defect == 0 and self.symmetry_defect == 0


def _prepare_diagonal(X, t, tolerance=None):
    """Lift t to the unitization if needed and measure its defects there.

    The defect quadruple at each basis element of the unitization (the
    adjoined unit last, at index dim A) is measured once and cached on the
    tensor: the quality reads their max, the residual bounds read their
    rows, and decomposition loops re-verify the same diagonal many times.
    """
    algebra = X.algebra
    if t.space is algebra:
        if "unitized" not in t._cache:
            t._cache["unitized"] = unitized_diagonal(t)
        ts = t._cache["unitized"]
    else:
        X.adjoined_identity_index(t.space)  # raises when unrelated
        ts = t
    if "diag_defects" not in ts._cache:
        ts._cache["diag_defects"] = [defects(ts, a) for a in ts.space.basis_elements()]
    quality = DiagonalQuality(
        max_defect=max([algebra.scalar(0)] + [max(row) for row in ts._cache["diag_defects"]]),
        symmetry_defect=ts.symmetry_defect(),
        tolerance=tolerance if tolerance is not None else X.eps)
    return ts, quality


def _diagonal_fault(quality):
    """Why the diagonal fails acceptance (max defect and symmetry defect
    within tolerance), or None when it passes."""
    if not quality.max_defect <= quality.tolerance:
        return (f"diagonal defects ({quality.max_defect}) exceed tolerance "
                f"({quality.tolerance})")
    if not quality.symmetric:
        return "tensor is not symmetric within tolerance"
    return None


def _require_diagonal(X, t, tolerance):
    ts, quality = _prepare_diagonal(X, t, tolerance)
    fault = _diagonal_fault(quality)
    if fault is not None:
        raise AlgebraError(fault)
    return ts, quality


def _require_map(D, defect, kind, tolerance):
    """Raise unless defect(D) is within tolerance (the codomain's eps by default)."""
    value = defect(D)
    if value > (tolerance if tolerance is not None else D.codomain.eps):
        raise AlgebraError(f"map is not {kind} (defect {value})")


def _residual_bound(D, q, rows):
    """Defect-driven bound on the stage-one residual at algebra basis element q.

    rows are the diagonal's defect quadruples at the basis of A#, the
    adjoined unit e last.  || D(a) - contract(t) D(a) || <= M_X * d2(e) *
    ||D(a)||, plus the action defects d1, d3 at b_q through D's operator
    norm: the estimate that replaces equality for a nonzero-defect diagonal.
    """
    X = D.codomain
    d1, _, d3, _ = rows[q]
    d2_at_e = rows[D.domain.dim][1]
    # the adjoined unit acts with constant 1, so the action factor for
    # elements of the unitization is max(M_X, 1)
    action = max(X.action_bound, X.scalar(1))
    return (action * d2_at_e * D.image_of_basis(q).norm()
            + D.op_norm() * (d1 + d3))


def _stage_one(D, ts, quality, residual):
    """The construction both routes share: x the diagonal ts pushed through D,
    ad_x, and the sandwich map S: a -> sandwich(D(a), ts).

    Returns x, ad_x, S, the norm of residual(D(b), ad_x(b), S(b)) per basis
    label, the defect-driven bounds per label (empty for an exact diagonal),
    and whether every residual is within its bound or the tolerance.
    """
    X, alg = D.codomain, D.domain
    x = image_action(D, ts)
    ad_x = inner_derivation(X, x)
    S = LinearMap(alg, X, [dict(sandwich_action(D.image_of_basis(q), ts).coeffs)
                           for q in range(alg.dim)])
    labels = list(enumerate(alg.labels))
    residuals = {label: residual(D.image_of_basis(q), ad_x.image_of_basis(q),
                                 S.image_of_basis(q)).norm() for q, label in labels}
    bounds = {} if quality.exact else {
        label: _residual_bound(D, q, ts._cache["diag_defects"]) for q, label in labels}
    within = all(residuals[lab] <= bounds[lab] or residuals[lab] <= quality.tolerance
                 for lab in bounds)
    return x, ad_x, S, residuals, bounds, within


@dataclass
class JordanDecomposition:
    omega: Element                 # D(a) == a omega - omega a on the basis
    x: Element                     # first-stage image of the diagonal through D
    central_stage: LinearMap       # the sandwich remainder, verified central
    x1: Element                    # image of the diagonal through the remainder
    residuals: dict                # label -> || D(b) - (b omega - omega b) ||
    stage_one_residuals: dict      # label -> residual of the signed identity
    stage_one_bounds: dict         # label -> defect-driven bound (approximate case)
    central_defect: object
    quality: DiagonalQuality
    exact: bool
    ok: bool


def jordan_decompose(D, t, tolerance=None):
    """Split a Jordan derivation into an inner derivation via the diagonal.

    Computes x as the diagonal pushed through D, the central remainder as
    the sandwich of D through the diagonal, repeats once, and returns
    omega = x - x1/2 with D(a) = a omega - omega a verified on the basis.

    Against an exact diagonal the remainder must be central within the
    tolerance.  Against a nonzero-defect diagonal its centrality defect
    grows with ||D|| times the diagonal's defects, so it is reported without
    being gated, as in lie_decompose, and ok rests on the stage-one bounds.
    """
    X = D.codomain
    _require_map(D, jordan_defect, "a Jordan derivation", tolerance)
    ts, quality = _require_diagonal(X, t, tolerance)
    # a Jordan derivation is D = ad_x - S
    x, _, delta, stage1, bounds, within = _stage_one(
        D, ts, quality, lambda Db, ad, s: Db - (ad - s))
    cdef = centrality_defect(delta)
    if quality.exact and cdef > quality.tolerance:
        raise AlgebraError(
            f"central stage fails centrality (defect {cdef}); "
            "the supplied tensor is not a symmetric diagonal")
    x1 = image_action(delta, ts)
    half = X.scalar(1) / X.scalar(2)
    omega = x - x1.scaled(half)
    inner = inner_derivation(X, omega)
    residuals = {label: (D.image_of_basis(q) - inner.image_of_basis(q)).norm()
                 for q, label in enumerate(D.domain.labels)}
    ok = (all(r <= quality.tolerance for r in residuals.values())
          if quality.exact else within)
    return JordanDecomposition(omega=omega, x=x, central_stage=delta, x1=x1,
                               residuals=residuals, stage_one_residuals=stage1,
                               stage_one_bounds=bounds, central_defect=cdef,
                               quality=quality, exact=quality.exact, ok=ok)


@dataclass
class CentralJordanReport:
    x: Element
    residuals: dict                # label -> || D(b) - (b x - x b)/2 ||
    derivation_defect: object      # of D itself, which the halving certifies
    symmetric_bimodule: bool
    quality: DiagonalQuality
    ok: bool


def central_jordan_decompose(D, t, tolerance=None):
    """Verify a central Jordan derivation is half an inner commutator.

    For central D the sandwich remainder collapses onto D itself, so
    D(a) = (a x - x a) / 2 with x the diagonal through D; this form makes D
    a derivation outright, and on a symmetric bimodule it forces D = 0.
    """
    X = D.codomain
    _require_map(D, jordan_defect, "a Jordan derivation", tolerance)
    _require_map(D, centrality_defect, "central-valued", tolerance)
    ts, quality = _require_diagonal(X, t, tolerance)
    x = image_action(D, ts)
    half = X.scalar(1) / X.scalar(2)
    ad_x = inner_derivation(X, x)
    residuals = {label: (D.image_of_basis(q) - ad_x.image_of_basis(q).scaled(half)).norm()
                 for q, label in enumerate(D.domain.labels)}
    dd = derivation_defect(D)
    ok = all(r <= quality.tolerance for r in residuals.values()) and dd <= quality.tolerance
    return CentralJordanReport(x=x, residuals=residuals, derivation_defect=dd,
                               symmetric_bimodule=X.is_symmetric_bimodule(),
                               quality=quality, ok=ok)


@dataclass
class SubmoduleReport:
    sum_in_submodule: bool         # (d + tau)(A) lands in the designated span
    inner_in_submodule: bool       # d(A) lands in the span
    trace_in_submodule_center: bool


@dataclass
class LieDecomposition:
    inner: LinearMap               # a -> a x - x a
    central_trace: LinearMap       # the sandwich remainder
    x: Element
    residuals: dict                # label -> || D(b) - inner(b) - trace(b) ||
    residual_bounds: dict          # defect-driven bounds (approximate case)
    inner_derivation_defect: object
    trace_centrality_defect: object
    trace_commutator_defect: object
    quality: DiagonalQuality
    submodule: SubmoduleReport = None
    exact: bool = False
    ok: bool = False


def lie_decompose(D, t, tolerance=None, submodule=None):
    """Split a Lie derivation as inner derivation plus central trace.

    With x the diagonal through D, the inner part is a -> a x - x a and the
    remainder is the sandwich of D through the diagonal; the remainder is
    central-valued and kills commutators.  When submodule spanning vectors
    are supplied, membership of each part in the designated subbimodule is
    checked as well.

    Against a nonzero-defect diagonal (explicit tolerance required) the
    residuals are compared to their defect-driven bounds rather than to
    zero, and the centrality/trace defects of the remainder are reported
    without being gated.
    """
    X = D.codomain
    _require_map(D, lie_defect, "a Lie derivation", tolerance)
    ts, quality = _require_diagonal(X, t, tolerance)
    # a Lie derivation is D = ad_x + S
    x, d_map, tau, residuals, bounds, within = _stage_one(
        D, ts, quality, lambda Db, ad, s: Db - ad - s)
    dd = derivation_defect(d_map)
    tc = centrality_defect(tau)
    tt = trace_defect(tau)
    sub_report = None
    if submodule is not None:
        sub_report = _submodule_report(X, d_map, tau, submodule)
    ok = (all(v <= quality.tolerance for v in [dd, tc, tt, *residuals.values()])
          if quality.exact else within)
    if sub_report is not None:
        ok = ok and sub_report.inner_in_submodule and sub_report.trace_in_submodule_center
    return LieDecomposition(inner=d_map, central_trace=tau, x=x,
                            residuals=residuals, residual_bounds=bounds,
                            inner_derivation_defect=dd,
                            trace_centrality_defect=tc, trace_commutator_defect=tt,
                            quality=quality, submodule=sub_report,
                            exact=quality.exact, ok=ok)


def _submodule_report(X, d_map, tau, span_vectors):
    sp = linalg.span_basis([dict(v.coeffs) for v in span_vectors], X.eps)
    center_span = linalg.span_basis([dict(v.coeffs) for v in X.center()], X.eps)

    def inside(m, span):
        return all(span.contains(img) for img in m.images)

    both = d_map + tau
    return SubmoduleReport(
        sum_in_submodule=inside(both, sp),
        inner_in_submodule=inside(d_map, sp),
        trace_in_submodule_center=inside(tau, sp)
        and all(center_span.contains(img) for img in tau.images))


# ---------------------------------------------------------------------------
# quotients and net reports
# ---------------------------------------------------------------------------

def quotient_bimodule(X, span_vectors):
    """Quotient of a bimodule by an action-invariant subspace.

    Returns the quotient presentation (coset basis indexed by the module
    coordinates outside the subspace's pivot set, with representative
    weights) together with the quotient map, a module morphism.
    """
    sp = linalg.span_basis([dict(v.coeffs) for v in span_vectors], X.eps)
    for v in span_vectors:
        if v.space is not X:
            raise AlgebraError("spanning vector is over a different bimodule")
    for i in range(X.algebra.dim):
        for row in list(sp.rows):
            if not sp.contains(X.left_index(i, row)) or \
                    not sp.contains(X.right_index(row, i)):
                raise PresentationError(
                    "designated subspace is not invariant under the actions")
    pivots = set(sp.pivots)
    coset = [k for k in range(X.dim) if k not in pivots]
    pos = {k: idx for idx, k in enumerate(coset)}

    def project(vec):
        res = sp.reduce(vec)
        return {pos[k]: c for k, c in res.items()}

    left = {}
    right = {}
    for i in range(X.algebra.dim):
        for k in coset:
            row = project(X.left_index(i, {k: X.scalar(1)}))
            if row:
                left[(i, pos[k])] = row
            row = project(X.right_index({k: X.scalar(1)}, i))
            if row:
                right[(pos[k], i)] = row
    labels = [f"[{X.labels[k]}]" for k in coset]
    weights = [X.weights[k] for k in coset]
    W = BimodulePresentation(X.algebra, labels, left, right, weights,
                             name=(f"{X.name}/sub" if X.name else "quotient"))
    qmap = LinearMap(X, W, [project({k: X.scalar(1)}) for k in range(X.dim)])
    return W, qmap


def net_boundedness(net, X, maps=()):
    """Per-entry maxima of the sandwich and image evaluations over a net.

    Reports max ||sandwich(x_j, t)|| over the module basis and, per supplied
    map, ||image_action(D, t)||, so the boundedness hypotheses behind the
    decompositions can be inspected on concrete nets.
    """
    sandwich_max = []
    image_norms = [[] for _ in maps]
    for t in net.entries:
        sandwich_max.append(max([X.scalar(0)] + [
            sandwich_action(X.basis_element(j), t).norm() for j in range(X.dim)]))
        for slot, D in enumerate(maps):
            image_norms[slot].append(image_action(D, t).norm())
    return {"sandwich_max": sandwich_max,
            "image_norms": image_norms}
