"""Generating sets, and the routes classify_maps takes to its spaces.

In rational mode classify_maps reads the central traces off as
Hom(A/[A, A], Z(X)).  On an algebra whose trace-form diagonal is certified
exact and symmetric, on a generating set, it reads the derivation, Jordan
and Lie spaces off the decomposition theorems.  Everywhere else, float mode
at any tolerance included, it eliminates the identity's rows on every basis
pair, as central_derivation_space always does.  The oracle here is the
identity on every ordered basis pair, written out in Fraction (or float)
arithmetic on the presentation's own tables, independently of the library's
term encoding, and eliminated: never the theorems.
"""

from fractions import Fraction

import pytest

from amlab import (AlgebraError, AlgebraPresentation, BimodulePresentation,
                   abelian_product_table, center, central_derivation_space, classify_maps,
                   commutator_subspace, cyclic_group_table, defects, derivations,
                   direct_sum_algebra, direct_sum_bimodule, elementary, group_algebra, linalg,
                   matrix_algebra, multiply, quotient_bimodule, regular_bimodule,
                   symmetric_group_table, trace_form_diagonal, upper_triangular_algebra)
from amlab.algebra import generating_set
from amlab.maps import flatten_map

from test_derivations import module_on_new_basis, rescaled_m3
from test_diagonals import quaternions


def full_pair_rows(A, X, kind):
    """The identity on every ordered pair (i, j), as rows over the flattened map
    matrix: column q * m + k is the coefficient of x_k in D(b_q)."""
    m = X.dim

    def add(rows, l, col, c):
        row = rows.setdefault(l, {})
        row[col] = row.get(col, 0) + c

    def image(rows, v, c):                  # c * D(v), v in A
        for q, a in v.items():
            for l in range(m):
                add(rows, l, q * m + l, c * a)

    def right(rows, q, j, c):               # c * D(b_q) b_j
        for k in range(m):
            for l, a in X.right.get((k, j), {}).items():
                add(rows, l, q * m + k, c * a)

    def left(rows, i, q, c):                # c * b_i D(b_q)
        for k in range(m):
            for l, a in X.left.get((i, k), {}).items():
                add(rows, l, q * m + k, c * a)

    out = []
    for i in range(A.dim):
        for j in range(A.dim):
            bracket = linalg.vec_sub(A.product_indices(i, j), A.product_indices(j, i))
            rows = {}
            if kind == "derivation":
                image(rows, A.product_indices(i, j), 1)
                right(rows, i, j, -1)
                left(rows, i, j, -1)
            elif kind == "jordan":
                image(rows, linalg.vec_add_scaled(dict(A.product_indices(i, j)),
                                                  A.product_indices(j, i), 1), 1)
                right(rows, i, j, -1)
                left(rows, i, j, -1)
                right(rows, j, i, -1)
                left(rows, j, i, -1)
            elif kind == "lie":
                image(rows, bracket, 1)
                right(rows, i, j, -1)
                left(rows, i, j, -1)
                right(rows, j, i, 1)
                left(rows, j, i, 1)
            elif kind == "central":
                left(rows, i, j, 1)
                right(rows, j, i, -1)
            else:
                image(rows, bracket, 1)
            out.extend({col: c for col, c in row.items() if c} for row in rows.values())
    return [row for row in out if row]


def full_pair_nullspace(A, X, kinds, rows=None):
    """The solutions of the identities on every pair; rows caches each kind's rows."""
    rows = {} if rows is None else rows
    for kind in kinds:
        if kind not in rows:
            rows[kind] = full_pair_rows(A, X, kind)
    return linalg.nullspace([row for kind in kinds for row in rows[kind]],
                            A.dim * X.dim, A.eps)


CLASSIFIED = {"derivation": ("derivation",), "jordan": ("jordan",), "lie": ("lie",),
              "central_trace": ("central", "trace")}
ROUTED = ["derivation", "jordan", "lie"]


def changed_basis_m3(mode="rational"):
    """M3 on the basis c_k = E_k + r_k E_{k+1} + s_k E_{k+3}: every product has
    several terms, and the greedy generating set differs from M3's.  In float
    mode the constants are rounded, so products are associative only up to
    rounding."""
    A = matrix_algebra(3)
    d = A.dim
    r = [Fraction(x) for x in ("1/2", -3, "2/7", 1, "5/3", -1, "3/4", 2)]
    s = [Fraction(x) for x in (2, "-1/3", "4/5", 1, "1/6", -2)]
    P = [{k: Fraction(1)} for k in range(d)]
    for k in range(d - 1):
        P[k][k + 1] = r[k]
    for k in range(d - 3):
        P[k][k + 3] = s[k]

    def in_c(v):                            # w with sum_k w_k c_k == v (P unit upper triangular)
        w, v = {}, dict(v)
        for k in range(d):
            c = v.get(k, 0)
            if c:
                w[k] = c
                linalg.vec_add_scaled(v, P[k], -c)
        return w

    mul = {}
    for i in range(d):
        for j in range(d):
            prod = {}
            for a, x in P[i].items():
                for b, y in P[j].items():
                    linalg.vec_add_scaled(prod, A.product_indices(a, b), x * y)
            if prod:
                mul[(i, j)] = in_c(prod)
    return AlgebraPresentation([f"c{k}" for k in range(d)], mul, mode=mode,
                               name="M3 changed basis")


def permuted(A, order, name):
    """A on its basis reordered: new index k is old index order[k]."""
    new = {old: k for k, old in enumerate(order)}
    mul = {(new[i], new[j]): {new[k]: c for k, c in row.items()}
           for (i, j), row in A.mul.items()}
    return AlgebraPresentation([A.labels[i] for i in order], mul, name=name)


def rational_algebras():
    return [matrix_algebra(2), matrix_algebra(3), matrix_algebra(4),
            upper_triangular_algebra(3), upper_triangular_algebra(4),
            group_algebra(*symmetric_group_table(3)), group_algebra(*symmetric_group_table(4)),
            group_algebra(*cyclic_group_table(4)),
            direct_sum_algebra([matrix_algebra(2), upper_triangular_algebra(2)]),
            rescaled_m3("rational"), changed_basis_m3(),
            # E12, E23, E13, ...: the product of the first two comes later
            permuted(upper_triangular_algebra(3), [1, 4, 2, 0, 3, 5], "T3 permuted"),
            AlgebraPresentation([], {}, name="zero-dimensional")]


NOT_SEMISIMPLE = {"T3", "T4", "M2+T2", "T3 permuted"}


def one_sided_modules(A):
    """A acting on its own space by left multiplication only, by right
    multiplication only, not at all, and the sum of these with the regular
    module, by id."""
    left = BimodulePresentation(A, A.labels, A.mul, {})
    right = BimodulePresentation(A, A.labels, {}, A.mul)
    zero = BimodulePresentation(A, A.labels, {}, {})
    summed = direct_sum_bimodule([regular_bimodule(A), left, right, zero])
    return {f"{A.name} left only": left, f"{A.name} right only": right,
            f"{A.name} zero action": zero, f"{A.name} summed": summed}


def module_cases():
    """Modules over algebras that have an exact symmetric diagonal, so classify
    reads every kind but central_trace off the theorems, by id."""
    s3 = group_algebra(*symmetric_group_table(3))
    R = regular_bimodule(s3)
    pair = direct_sum_bimodule([R, R])
    quotient, _ = quotient_bimodule(pair, [pair.element({k: 1, s3.dim + k: -1})
                                           for k in range(s3.dim)])
    m2, m3 = matrix_algebra(2), changed_basis_m3()
    cases = {"S3 sum": pair, "S3 quotient": quotient,
             "S3 new basis": module_on_new_basis(s3, s3),
             "M3 rescaled new basis": module_on_new_basis(rescaled_m3("rational"),
                                                          rescaled_m3("rational")),
             "M3 changed sum": direct_sum_bimodule([regular_bimodule(m3),
                                                    regular_bimodule(m3)])}
    for A in (s3, m2, direct_sum_algebra([m2, s3])):
        cases.update(one_sided_modules(A))
    return cases


MODULE_CASES = module_cases()


def closure_of(A, gens):
    """span(gens) closed under v -> v b_s for s in gens, in Element
    arithmetic, until a pass adds nothing."""
    sp = linalg.Span()
    for s in gens:
        sp.add({s: Fraction(1)})
    grew = True
    while grew:
        grew = False
        for v in list(sp.rows):
            for s in gens:
                w = multiply(A.element(v), A.basis_element(s))
                grew |= sp.add(dict(w.coeffs)) is not None
    return sp


@pytest.mark.parametrize("A", rational_algebras(), ids=lambda A: A.name)
def test_the_generating_set_is_greedy_and_its_closure_is_the_algebra(A):
    gens = generating_set(A)
    assert closure_of(A, gens).dim == A.dim
    # b_i is picked exactly when the closure of the elements picked before it misses it
    for i in range(A.dim):
        before = closure_of(A, [g for g in gens if g < i])
        assert (i in gens) == (not before.contains({i: 1}))


def test_generating_sets_are_smaller_than_the_basis():
    for A in (matrix_algebra(3), matrix_algebra(5), group_algebra(*symmetric_group_table(4))):
        assert len(generating_set(A)) < A.dim
    assert generating_set(group_algebra(*symmetric_group_table(4))) == [0, 1, 2, 6]
    assert generating_set(matrix_algebra(5)) == [0, 1, 2, 3, 4, 5, 10, 15, 20]


def test_a_product_of_an_earlier_and_a_later_generator_is_not_picked():
    A = permuted(upper_triangular_algebra(3), [1, 4, 2, 0, 3, 5], "T3 permuted")
    assert generating_set(A) == [0, 1, 3, 4, 5]


def test_a_commutative_algebra_is_lie_generated_only_by_its_whole_basis():
    """Every bracket of l1(C4) vanishes, so the Lie subalgebra a set of basis
    elements generates is their span, and only the whole basis reaches A;
    the associative generating set is b_0, b_1."""
    A = group_algebra(*cyclic_group_table(4))
    assert commutator_subspace(A) == []
    for p in range(A.dim):
        for q in range(A.dim):
            a, b = A.basis_element(p), A.basis_element(q)
            assert not (multiply(a, b) - multiply(b, a)).coeffs
    assert generating_set(A) == [0, 1]


FLOAT_ALGEBRAS = [matrix_algebra(3, mode="float"), matrix_algebra(4, mode="float"),
                  upper_triangular_algebra(4, mode="float"),
                  group_algebra(*symmetric_group_table(3), mode="float"),
                  group_algebra(*symmetric_group_table(4), mode="float"),
                  changed_basis_m3("float")]
# float mode with eps == 0: still no rational route
TOL_ZERO = {"M3 tol 0": matrix_algebra(3, mode="float", tol=0.0),
            "l1(G6) tol 0": group_algebra(*symmetric_group_table(3), mode="float", tol=0.0)}


def test_a_float_algebra_is_generated_by_its_whole_basis():
    """An exact closure of a float table counts rounding residues as new
    directions: changed-basis M3's would reach dimension 9 from c0, c1 alone,
    although c0, c1, c3 are needed."""
    assert generating_set(changed_basis_m3()) == [0, 1, 3]
    for A in FLOAT_ALGEBRAS + list(TOL_ZERO.values()):
        assert generating_set(A) == list(range(A.dim))


def assert_same_solutions(A, X, routed, monkeypatch):
    """classify_maps and central_derivation_space against every pair's
    elimination; routed says whether the derivation, Jordan and Lie spaces
    must be read off the theorems."""
    taken = []
    by_the_theorems = derivations._by_the_theorems
    monkeypatch.setattr(derivations, "_by_the_theorems",
                        lambda A, X, kind: taken.append(kind) or by_the_theorems(A, X, kind))
    rows = {}
    for kind, kinds in CLASSIFIED.items():
        got = [flatten_map(D) for D in classify_maps(A, X, kind)]
        assert got == full_pair_nullspace(A, X, kinds, rows), kind
    assert taken == (ROUTED if routed else [])
    want = full_pair_nullspace(A, X, ("derivation", "central"), rows)
    assert [flatten_map(D) for D in central_derivation_space(A, X).basis] == want


@pytest.mark.parametrize("A", rational_algebras(), ids=lambda A: A.name)
def test_classify_on_generators_matches_every_pair(A, monkeypatch):
    assert_same_solutions(A, regular_bimodule(A), A.name not in NOT_SEMISIMPLE, monkeypatch)


@pytest.mark.parametrize("X", MODULE_CASES.values(), ids=list(MODULE_CASES))
def test_classify_on_generators_matches_every_pair_on_other_modules(X, monkeypatch):
    assert_same_solutions(X.algebra, X, True, monkeypatch)


def test_a_tampered_diagonal_fails_the_certificate_and_classify_eliminates(monkeypatch):
    """A symmetric term that commutes with nothing breaks the certificate, and
    the elimination then returns the same bases the theorems gave."""
    A = matrix_algebra(3)
    X = regular_bimodule(A)
    want = {kind: [flatten_map(D) for D in classify_maps(A, X, kind)] for kind in ROUTED}
    t, _ = trace_form_diagonal(A)
    e11 = A.basis_element(0)
    tampered = t + elementary(e11, e11)
    assert tampered.symmetry_defect() == 0
    assert max(defects(tampered, A.basis_element(1))) > 0
    monkeypatch.setattr(derivations, "trace_form_diagonal", lambda algebra: (tampered, []))
    assert not derivations._has_exact_symmetric_diagonal(A)
    monkeypatch.setattr(derivations, "_by_the_theorems", lambda *a: pytest.fail("routed"))
    for kind in ROUTED:
        assert [flatten_map(D) for D in classify_maps(A, X, kind)] == want[kind], kind


def semisimple_catalog():
    m2 = matrix_algebra(2)
    s3 = group_algebra(*symmetric_group_table(3))
    return [m2, matrix_algebra(3), s3, group_algebra(*cyclic_group_table(4)),
            group_algebra(*abelian_product_table([2, 3])), direct_sum_algebra([m2, s3]),
            quaternions()]


@pytest.mark.parametrize("A", semisimple_catalog(),
                         ids=["M2", "M3", "S3", "C4", "C2xC3", "M2+S3", "quaternions"])
def test_every_pair_has_the_dimensions_of_the_decomposition_theorems(A):
    """With an exact symmetric diagonal (Johnson 1996; the paper's last section):
    derivation = jordan = d - dim Z(A), lie = derivation + central_trace and
    central_trace = dim(A/[A, A]) * dim Z(A), on the regular bimodule.  The
    dimensions come from every pair's elimination, not from the theorems."""
    X, rows = regular_bimodule(A), {}
    dim = {kind: len(full_pair_nullspace(A, X, kinds, rows))
           for kind, kinds in CLASSIFIED.items()}
    z, quotient = len(center(A)), A.dim - len(commutator_subspace(A))
    assert dim["derivation"] == dim["jordan"] == A.dim - z
    assert dim["lie"] == dim["derivation"] + dim["central_trace"]
    assert dim["central_trace"] == quotient * z


@pytest.mark.parametrize("A", FLOAT_ALGEBRAS, ids=lambda A: A.name)
def test_float_classify_has_the_dimensions_of_every_pair(A):
    X, rows = regular_bimodule(A), {}
    for kind, kinds in CLASSIFIED.items():
        assert len(classify_maps(A, X, kind)) == len(full_pair_nullspace(A, X, kinds, rows))
    assert (central_derivation_space(A, X).dim
            == len(full_pair_nullspace(A, X, ("derivation", "central"), rows)))


def assert_every_pair_is_eliminated(A, kinds, monkeypatch):
    """classify_maps on kinds, then central_derivation_space, each hand
    linalg.nullspace exactly the every-pair rows of their identities,
    concatenated."""
    seen = []
    nullspace = linalg.nullspace
    monkeypatch.setattr(linalg, "nullspace",
                        lambda rows, *a: seen.append(rows) or nullspace(rows, *a))
    X = regular_bimodule(A)

    def every_pair(identities):
        return [row for k in identities for row in derivations._identity_rows(A, X, k)]

    for kind in kinds:
        del seen[:]
        classify_maps(A, X, kind)
        assert seen == [every_pair(CLASSIFIED[kind])], kind
    del seen[:]
    central_derivation_space(A, X)
    assert seen == [every_pair(("derivation", "central"))]


@pytest.mark.parametrize("A", [A for A in rational_algebras() if A.name in NOT_SEMISIMPLE]
                         + [matrix_algebra(3)], ids=lambda A: A.name)
def test_rational_classify_eliminates_the_rows_of_every_pair(A, monkeypatch):
    """Where no diagonal is certified, the derivation, Jordan and Lie spaces are
    eliminated on every pair: T3 permuted has a generating set of 5 of its 6
    basis elements and M2+T2 one of 6 of 7, and neither saves a row.
    central_derivation_space eliminates on every algebra, M3 included."""
    kinds = ROUTED if A.name in NOT_SEMISIMPLE else []
    assert_every_pair_is_eliminated(A, kinds, monkeypatch)


@pytest.mark.parametrize("A", [matrix_algebra(4), group_algebra(*symmetric_group_table(4))],
                         ids=lambda A: A.name)
def test_classify_eliminates_no_identity_rows_with_a_diagonal(A, monkeypatch):
    """Every kind is read off the theorems or the center: no identity row is built."""
    monkeypatch.setattr(derivations, "_identity_rows", lambda *a, **k: pytest.fail("called"))
    X = regular_bimodule(A)
    z = len(center(A))
    dims = {kind: len(classify_maps(A, X, kind)) for kind in CLASSIFIED}
    assert dims["derivation"] == dims["jordan"] == A.dim - z
    assert dims["lie"] == dims["derivation"] + dims["central_trace"]


@pytest.mark.parametrize("A", FLOAT_ALGEBRAS + list(TOL_ZERO.values()),
                         ids=[A.name for A in FLOAT_ALGEBRAS] + list(TOL_ZERO))
def test_float_classify_eliminates_the_rows_of_every_pair(A, monkeypatch):
    assert_every_pair_is_eliminated(A, CLASSIFIED, monkeypatch)


@pytest.mark.parametrize("A", TOL_ZERO.values(), ids=list(TOL_ZERO))
def test_float_mode_at_tolerance_zero_has_no_diagonal_and_the_rational_dimensions(A):
    """eps is 0.0 there, but a float table proves nothing, so there is no
    trace-form diagonal; the every-pair elimination gets the rational
    dimensions."""
    with pytest.raises(AlgebraError):
        trace_form_diagonal(A)
    exact = (matrix_algebra(3) if A.name == "M3"
             else group_algebra(*symmetric_group_table(3)))
    X, R = regular_bimodule(A), regular_bimodule(exact)
    for kind in CLASSIFIED:
        assert len(classify_maps(A, X, kind)) == len(classify_maps(exact, R, kind)), kind


def modulo(X, indices):
    """X modulo the invariant subspace spanned by the module basis vectors at indices."""
    return quotient_bimodule(X, [X.basis_element(k) for k in indices])[0]


def central_trace_modules():
    """Modules whose center is not their algebra's, with dim Hom(A/[A, A], Z(X))."""
    t3 = upper_triangular_algebra(3)
    one_sided = BimodulePresentation(t3, t3.labels, t3.mul, {}, name="T3 left only")
    diagonal = modulo(regular_bimodule(t3), [1, 2, 4])     # T3 mod E12, E13, E23
    sum_algebra = direct_sum_algebra([matrix_algebra(2), t3])
    t3_block = modulo(regular_bimodule(sum_algebra), range(4))
    m3 = changed_basis_m3()
    return [(one_sided, 0), (diagonal, 9), (t3_block, 4),
            (direct_sum_bimodule([regular_bimodule(t3)] * 2), 6),
            (direct_sum_bimodule([one_sided, diagonal]), 9),
            (direct_sum_bimodule([t3_block, t3_block]), 8),
            (module_on_new_basis(m3, m3), 1),
            (direct_sum_bimodule([module_on_new_basis(m3, m3)] * 2), 2)]


CENTRAL_TRACE_IDS = ["T3 one-sided", "T3 mod upper", "M2+T3 mod M2", "T3 doubled",
                     "one-sided + T3 mod upper", "M2+T3 mod M2 doubled",
                     "M3 changed, new basis", "M3 changed, new basis doubled"]


@pytest.mark.parametrize("X,dim", central_trace_modules(), ids=CENTRAL_TRACE_IDS)
def test_central_traces_are_the_solutions_of_every_pair(X, dim):
    """Hom(A/[A, A], Z(X)) read off the factors is the nullspace of the central
    and trace rows on every pair: the same Fractions, in the same order."""
    A = X.algebra
    got = [flatten_map(D) for D in classify_maps(A, X, "central_trace")]
    want = full_pair_nullspace(A, X, ("central", "trace"))
    assert len(got) == dim
    assert [sorted(v.items()) for v in got] == [sorted(v.items()) for v in want]
    assert all(type(c) is Fraction for v in got for c in v.values())


@pytest.mark.parametrize("X,dim", central_trace_modules(), ids=CENTRAL_TRACE_IDS)
def test_rational_central_traces_eliminate_no_system_over_the_maps(X, dim, monkeypatch):
    """Only the d-column system of [A, A] and the m-column one of the center are
    solved; no identity row is built and no generating set is sought."""
    A, seen = X.algebra, []
    nullspace = linalg.nullspace
    monkeypatch.setattr(linalg, "nullspace",
                        lambda rows, ncols, *a: seen.append(ncols) or nullspace(rows, ncols, *a))
    for name in ("_identity_rows", "generating_set"):
        monkeypatch.setattr(derivations, name, lambda *a, **k: pytest.fail("called"))
    assert len(classify_maps(A, X, "central_trace")) == dim
    assert seen == [A.dim, X.dim]
