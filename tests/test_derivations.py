"""Bimodules, classification oracles, and the decomposition procedures."""

import dataclasses
import random
from fractions import Fraction
from itertools import chain

import pytest

from amlab import (AlgebraError, AlgebraPresentation, BimodulePresentation,
                   DiagonalNet, Element, LinearMap, PresentationError, Tensor2,
                   central_derivation_space, central_jordan_decompose,
                   centrality_defect, classify_maps, contract, cyclic_group_table,
                   defects, derivation_defect, direct_sum_bimodule, elementary, flip,
                   group_algebra, group_diagonal, image_action, inner_derivation,
                   jordan_decompose, jordan_defect, left_action, lie_decompose,
                   lie_defect, matrix_algebra, matrix_diagonal, multiply,
                   net_boundedness, opposite_left_action, opposite_right_action,
                   quotient_bimodule, regular_bimodule, right_action,
                   sandwich_action, symmetric_group_table, trace_defect, unitize,
                   unitized_diagonal, upper_triangular_algebra)

from amlab.maps import flatten_map
from amlab import derivations, linalg, scalars, serialize
from amlab.catalog import direct_sum_algebra
from amlab.diagonals import direct_sum_diagonal
from oracles import tensor_arithmetic_defects


def rand_element(rng, space, lo=-3, hi=3):
    return space.element({i: Fraction(rng.randint(lo, hi))
                          for i in range(space.dim)})


def rand_tensor(rng, algebra, nterms=8, lo=-3, hi=3):
    return Tensor2(algebra, {(rng.randrange(algebra.dim), rng.randrange(algebra.dim)):
                             Fraction(rng.randint(lo, hi)) for _ in range(nterms)})


def trace_map(algebra, X, c):
    """a -> trace(a) c for the matrix-unit presentation."""
    n = algebra.meta["matrix_n"]
    images = []
    for q in range(algebra.dim):
        i, j = divmod(q, n)
        images.append(dict(c.coeffs) if i == j else {})
    return LinearMap(algebra, X, images)


@pytest.fixture(scope="module")
def x2(m2):
    return regular_bimodule(m2)


@pytest.fixture(scope="module")
def t2(m2):
    return matrix_diagonal(2, algebra=m2)


# -- bimodule basics -----------------------------------------------------------

def test_regular_bimodule_laws_and_bound(m2, x2):
    assert x2.action_bound == 1
    assert not x2.is_symmetric_bimodule()
    assert len(x2.center()) == 1  # scalar multiples of the identity


def test_commutative_regular_bimodule_is_symmetric():
    A = group_algebra(*cyclic_group_table(3))
    X = regular_bimodule(A)
    assert X.is_symmetric_bimodule()
    assert len(X.center()) == 3


def test_module_law_violation_rejected(m2):
    # left action by E11 only, inconsistent with the product E11 = E11 E11
    left = {(0, 0): {1: 1}}
    with pytest.raises(PresentationError):
        BimodulePresentation(m2, ["x", "y"], left, {})


def test_bimodule_actions_over_unitization(m2, x2):
    from amlab import unitize
    sharp = unitize(m2)
    e = sharp.unit_element()
    x = x2.element({"E12": 3, "E21": -2})
    assert x2.act_left(e, x) == x
    assert x2.act_right(x, e) == x


# -- sandwich and image evaluations ----------------------------------------------

def test_sandwich_worked_examples(m2, x2, t2):
    assert sandwich_action(x2.element({"E12": 1}), t2).is_zero()
    half_unit = x2.element({"E11": Fraction(1, 2), "E22": Fraction(1, 2)})
    assert sandwich_action(x2.element({"E11": 1}), t2) == half_unit


def test_sandwich_on_elementary(m2, x2):
    rng = random.Random(3)
    a, b = rand_element(rng, m2), rand_element(rng, m2)
    x = rand_element(rng, x2)
    t = elementary(a, b)
    assert sandwich_action(x, t) == x2.act_right(x2.act_left(a, x), b)


def test_image_action_worked_example(m2, x2, t2):
    D = inner_derivation(x2, x2.element({"E12": -1}))  # a -> E12 a - a E12
    assert image_action(D, t2) == x2.element({"E12": -1})


def test_tensor_built_from_floats_acts_like_one_built_from_fractions(m2, x2):
    floats = {(0, 0): 0.5, (1, 2): 0.25, (3, 1): -1.5, (2, 2): 0.0}
    t_float = Tensor2(m2, floats)
    t_exact = Tensor2(m2, {key: Fraction(c) for key, c in floats.items() if c})
    assert list(t_float.coeffs.items()) == list(t_exact.coeffs.items())
    assert all(type(c) is Fraction for c in t_float.coeffs.values())
    rng = random.Random(17)
    for x in x2.basis_elements() + [rand_element(rng, x2)]:
        assert sandwich_action(x, t_float) == sandwich_action(x, t_exact)
    D = inner_derivation(x2, x2.element({"E12": -1}))
    assert image_action(D, t_float) == image_action(D, t_exact)
    f2 = matrix_algebra(2, mode="float")
    t = Tensor2(f2, {(0, 0): Fraction(1, 2)})
    assert t.coeffs == {(0, 0): 0.5} and type(t.coeffs[(0, 0)]) is float


def test_image_action_zero_map(m2, x2, t2):
    assert image_action(LinearMap.zero(m2, x2), t2).is_zero()


def test_image_action_trace_map(m2, x2, t2):
    D = trace_map(m2, x2, x2.element({"E11": 1, "E22": 1}))
    assert image_action(D, t2) == x2.element({"E11": Fraction(1, 2),
                                              "E22": Fraction(1, 2)})


def test_sandwich_of_central_is_contract_times_x(m2, x2):
    rng = random.Random(5)
    for _ in range(10):
        t = rand_tensor(rng, m2)
        lam = Fraction(rng.randint(-3, 3))
        x = x2.element({"E11": lam, "E22": lam})  # central
        assert sandwich_action(x, t) == x2.act_left(contract(t), x)


# -- the two product-rule identities (signs pinned on random tensors) -------------

def test_jordan_identity_expansion_has_minus_sandwich(m2, x2):
    # Phi_D(a t - t a) = a Phi_D(t) + Phi_D(a o t) - contract(t) D(a)
    #                    - Phi_D(t) a - Phi_D(t o a) - sandwich(D(a), t)
    rng = random.Random(7)
    D = inner_derivation(x2, rand_element(rng, x2))
    assert jordan_defect(D) == 0
    for _ in range(10):
        t = rand_tensor(rng, m2)
        a = rand_element(rng, m2)
        x = image_action(D, t)
        lhs = image_action(D, left_action(a, t) - right_action(t, a))
        rhs = (x2.act_left(a, x)
               + image_action(D, opposite_left_action(a, t))
               - x2.act_left(contract(t), D(a))
               - x2.act_right(x, a)
               - image_action(D, opposite_right_action(t, a))
               - sandwich_action(D(a), t))
        assert lhs == rhs


def test_lie_identity_expansion_has_plus_sandwich(m2, x2):
    # Phi_D(a t - t a) = a Phi_D(t) - Phi_D(a o t) + sandwich(D(a), t)
    #                    - contract(t) D(a) + Phi_D(t o a) - Phi_D(t) a
    rng = random.Random(11)
    D = inner_derivation(x2, rand_element(rng, x2)) + \
        trace_map(m2, x2, x2.element({"E11": 2, "E22": 2}))
    assert lie_defect(D) == 0
    for _ in range(10):
        t = rand_tensor(rng, m2)
        a = rand_element(rng, m2)
        x = image_action(D, t)
        lhs = image_action(D, left_action(a, t) - right_action(t, a))
        rhs = (x2.act_left(a, x)
               - image_action(D, opposite_left_action(a, t))
               + sandwich_action(D(a), t)
               - x2.act_left(contract(t), D(a))
               + image_action(D, opposite_right_action(t, a))
               - x2.act_right(x, a))
        assert lhs == rhs


def test_central_derivation_identity_minus_sign():
    # for central derivations, Phi_delta(a t - t a) = -contract(flip(t)) delta(a);
    # the identity needs an algebra with nonzero central derivations, so dual
    # numbers rather than matrix units
    A = AlgebraPresentation(["1", "x"], {(0, 0): {0: 1}, (0, 1): {1: 1},
                                         (1, 0): {1: 1}}, unit=[1, 0])
    X = regular_bimodule(A)
    delta = LinearMap(A, X, [{}, {1: Fraction(1)}])
    assert derivation_defect(delta) == 0
    assert centrality_defect(delta) == 0
    rng = random.Random(13)
    for _ in range(10):
        t = rand_tensor(rng, A, nterms=4)
        a = rand_element(rng, A)
        lhs = image_action(delta, left_action(a, t) - right_action(t, a))
        rhs = X.act_left(contract(flip(t)), delta(a))
        assert lhs == rhs.scaled(-1)


# -- classification ---------------------------------------------------------------

def test_classification_dimensions_m2(m2, x2):
    assert len(classify_maps(m2, x2, "derivation")) == 3
    assert len(classify_maps(m2, x2, "jordan")) == 3
    assert len(classify_maps(m2, x2, "lie")) == 4
    assert len(classify_maps(m2, x2, "central_trace")) == 1


def test_classified_maps_satisfy_their_identity(m2, x2):
    for kind, defect in (("derivation", derivation_defect),
                         ("jordan", jordan_defect), ("lie", lie_defect)):
        for D in classify_maps(m2, x2, kind):
            assert defect(D) == 0
    for D in classify_maps(m2, x2, "central_trace"):
        assert centrality_defect(D) == 0
        assert trace_defect(D) == 0


def test_derivations_of_m2_are_inner(m2, x2):
    inners = [flatten_map(inner_derivation(x2, x2.basis_element(j)))
              for j in range(4)]
    span = linalg.span_basis(inners)
    for D in classify_maps(m2, x2, "derivation"):
        assert span.contains(flatten_map(D))


def test_lie_space_is_derivations_plus_trace(m2, x2):
    gen = [flatten_map(D) for D in classify_maps(m2, x2, "derivation")]
    gen += [flatten_map(D) for D in classify_maps(m2, x2, "central_trace")]
    span = linalg.span_basis(gen)
    lie = classify_maps(m2, x2, "lie")
    assert span.dim == len(lie)
    for D in lie:
        assert span.contains(flatten_map(D))


def test_jordan_space_on_semisimple_commutative_is_trivial():
    A = group_algebra(*cyclic_group_table(2))
    X = regular_bimodule(A)
    assert classify_maps(A, X, "jordan") == []
    assert classify_maps(A, X, "derivation") == []


def test_jordan_equals_derivation_into_symmetric_bimodule(m2):
    # trivial actions give a symmetric bimodule; both identities then say
    # "vanish on (symmetrized) products", which span all of M2
    X = BimodulePresentation(m2, ["w"], {}, {})
    assert X.is_symmetric_bimodule()
    assert classify_maps(m2, X, "jordan") == []
    assert classify_maps(m2, X, "derivation") == []


# -- jordan decomposition -----------------------------------------------------------

def test_jordan_decompose_worked_example(m2, x2, t2):
    D = inner_derivation(x2, x2.element({"E12": -1}))
    rep = jordan_decompose(D, t2)
    assert rep.ok and rep.exact
    assert rep.omega == x2.element({"E12": -1})
    assert rep.central_stage.is_zero()
    assert all(r == 0 for r in rep.residuals.values())
    assert all(r == 0 for r in rep.stage_one_residuals.values())


def test_jordan_decompose_zero_map(m2, x2, t2):
    rep = jordan_decompose(LinearMap.zero(m2, x2), t2)
    assert rep.ok
    assert rep.omega.is_zero()


def test_jordan_decompose_random_inner(m2, x2, t2):
    rng = random.Random(17)
    for _ in range(10):
        D = inner_derivation(x2, rand_element(rng, x2))
        rep = jordan_decompose(D, t2)
        assert rep.ok
        recovered = inner_derivation(x2, rep.omega)
        assert recovered == D


def test_jordan_decompose_group_algebra_trivial():
    A = group_algebra(*cyclic_group_table(2))
    X = regular_bimodule(A)
    t = group_diagonal(*cyclic_group_table(2), algebra=A)
    rep = jordan_decompose(LinearMap.zero(A, X), t)
    assert rep.ok and rep.omega.is_zero()


def test_jordan_decompose_rejects_non_jordan(m2, x2, t2):
    bad = LinearMap(m2, x2, [{1: Fraction(1)} for _ in range(4)])
    assert jordan_defect(bad) > 0
    with pytest.raises(AlgebraError):
        jordan_decompose(bad, t2)


def test_jordan_decompose_rejects_defective_diagonal(m2, x2):
    t = matrix_diagonal(2, algebra=m2) + elementary(m2.element({"E12": 1}),
                                                    m2.element({"E12": 1}))
    with pytest.raises(AlgebraError):
        jordan_decompose(LinearMap.zero(m2, x2), t)


def test_jordan_decompose_approximate_diagonal_reports_bounds(m2, x2):
    noise = elementary(m2.element({"E12": Fraction(1, 100)}),
                       m2.element({"E21": Fraction(1, 100)}))
    t = matrix_diagonal(2, algebra=m2) + noise + flip(noise)
    rng = random.Random(19)
    D = inner_derivation(x2, rand_element(rng, x2))
    rep = jordan_decompose(D, t, tolerance=Fraction(1, 50))
    assert not rep.exact
    assert rep.quality.max_defect > 0
    for lab, res in rep.stage_one_residuals.items():
        assert res <= rep.stage_one_bounds[lab] + rep.quality.tolerance
    assert rep.ok


def test_jordan_verdict_reads_the_callers_tolerance(m2, x2, t2):
    """An exact diagonal and a map within tolerance of a derivation: both
    routes judge their residuals against the tolerance the caller passed."""
    D = inner_derivation(x2, x2.element({"E12": 1})) + LinearMap(
        m2, x2, [{0: Fraction(1, 1000)}, {}, {}, {}])
    tol = Fraction(1, 10)
    assert jordan_defect(D) == Fraction(1, 500) and lie_defect(D) == Fraction(1, 1000)
    rep = jordan_decompose(D, t2, tolerance=tol)
    assert rep.exact
    assert max(rep.residuals.values()) == Fraction(1, 1000)
    assert rep.ok
    assert lie_decompose(D, t2, tolerance=tol).ok


# -- central jordan ------------------------------------------------------------------

def test_central_jordan_zero_map_passes(m2, x2, t2):
    rep = central_jordan_decompose(LinearMap.zero(m2, x2), t2)
    assert rep.ok
    assert not rep.symmetric_bimodule


def test_central_jordan_on_commutative_forces_zero():
    A = group_algebra(*cyclic_group_table(3))
    X = regular_bimodule(A)
    t = group_diagonal(*cyclic_group_table(3), algebra=A)
    # any central Jordan derivation must be half a commutator, hence zero here;
    # the only available one is D = 0, which the report certifies as a derivation
    rep = central_jordan_decompose(LinearMap.zero(A, X), t)
    assert rep.ok
    assert rep.symmetric_bimodule
    assert rep.derivation_defect == 0


def test_central_jordan_symmetric_bimodule_route(m2, t2):
    # over a symmetric bimodule every map is central-valued; the only Jordan
    # derivation into the trivial-action module is zero, and the halving
    # certifies it as a derivation
    X = BimodulePresentation(m2, ["w"], {}, {})
    rep = central_jordan_decompose(LinearMap.zero(m2, X), t2)
    assert rep.ok
    assert rep.symmetric_bimodule
    assert rep.derivation_defect == 0


def test_central_jordan_rejects_non_central(m2, x2, t2):
    rng = random.Random(23)
    D = inner_derivation(x2, rand_element(rng, x2))
    if centrality_defect(D) == 0:  # regenerate deterministically if degenerate
        D = inner_derivation(x2, x2.element({"E12": 1}))
    with pytest.raises(AlgebraError):
        central_jordan_decompose(D, t2)


# -- lie decomposition ----------------------------------------------------------------

def test_lie_decompose_worked_example(m2, x2, t2):
    c = x2.element({"E11": 1, "E22": 1})
    D = inner_derivation(x2, x2.element({"E12": -1})) + trace_map(m2, x2, c)
    rep = lie_decompose(D, t2)
    assert rep.ok and rep.exact
    assert rep.inner == inner_derivation(x2, x2.element({"E12": -1}))
    assert rep.central_trace == trace_map(m2, x2, c)
    assert rep.trace_commutator_defect == 0
    assert rep.trace_centrality_defect == 0


def test_lie_decompose_pure_trace(m2, x2, t2):
    c = x2.element({"E11": -2, "E22": -2})
    D = trace_map(m2, x2, c)
    rep = lie_decompose(D, t2)
    assert rep.ok
    assert rep.inner.is_zero()
    assert rep.central_trace == D


def test_lie_decompose_zero(m2, x2, t2):
    rep = lie_decompose(LinearMap.zero(m2, x2), t2)
    assert rep.ok and rep.inner.is_zero() and rep.central_trace.is_zero()


def test_lie_decompose_remainder_in_central_trace_space(m2, x2, t2):
    rng = random.Random(29)
    span = linalg.span_basis([flatten_map(D)
                              for D in classify_maps(m2, x2, "central_trace")])
    for _ in range(5):
        lam = rng.randint(-2, 2)
        D = inner_derivation(x2, rand_element(rng, x2)) + \
            trace_map(m2, x2, x2.element({"E11": lam, "E22": lam}))
        rep = lie_decompose(D, t2)
        assert rep.ok
        assert span.contains(flatten_map(D - rep.inner))


def test_lie_decompose_approximate_diagonal_reports_bounds(m2, x2):
    noise = elementary(m2.element({"E21": Fraction(1, 90)}),
                       m2.element({"E12": Fraction(1, 90)}))
    t = matrix_diagonal(2, algebra=m2) + noise + flip(noise)
    c = x2.element({"E11": 1, "E22": 1})
    D = inner_derivation(x2, x2.element({"E12": -1})) + trace_map(m2, x2, c)
    rep = lie_decompose(D, t, tolerance=Fraction(1, 40))
    assert not rep.exact
    assert rep.quality.max_defect > 0
    for lab, res in rep.residuals.items():
        assert res <= rep.residual_bounds[lab] + rep.quality.tolerance
    assert rep.ok


def test_lie_decompose_rejects_non_lie(m2, x2, t2):
    bad = LinearMap(m2, x2, [{1: Fraction(1)} for _ in range(4)])
    with pytest.raises(AlgebraError):
        lie_decompose(bad, t2)


# -- central derivation space ----------------------------------------------------------

def test_central_derivations_vanish_m2_m3(m2, m3):
    for A in (m2, m3):
        X = regular_bimodule(A)
        n = A.meta["matrix_n"]
        rep = central_derivation_space(A, X, diagonal=matrix_diagonal(n, algebra=A))
        assert rep.dim == 0
        assert rep.vanishing_checked


def test_central_derivation_beside_an_exact_diagonal_is_an_algebra_error(m2, monkeypatch):
    # only an inconsistent elimination could produce one; it must not escape as an assert
    monkeypatch.setattr(linalg, "nullspace", lambda *args: [{0: Fraction(1)}])
    with pytest.raises(AlgebraError, match="nonzero central derivation"):
        central_derivation_space(m2, regular_bimodule(m2),
                                 diagonal=matrix_diagonal(2, algebra=m2))


def test_a_diagonal_with_a_nan_coefficient_is_not_accepted():
    """One acceptance rule: the decompositions refuse the tensor, and
    central_derivation_space does not count it as a vanishing check."""
    A = matrix_algebra(2, mode="float")
    X = regular_bimodule(A)
    t = matrix_diagonal(2, algebra=A) + Tensor2(A, {(1, 2): float("nan")})
    for decompose in (jordan_decompose, lie_decompose):
        with pytest.raises(AlgebraError, match="diagonal defects|not symmetric"):
            decompose(LinearMap.zero(A, X), t)
    assert not central_derivation_space(A, X, diagonal=t).vanishing_checked


def test_central_derivations_trivial_module(m2):
    X = BimodulePresentation(m2, ["w"], {}, {})
    rep = central_derivation_space(m2, X)
    assert rep.dim == 0


def test_central_derivations_commutative_semisimple():
    A = group_algebra(*cyclic_group_table(3))
    rep = central_derivation_space(A, regular_bimodule(A))
    assert rep.dim == 0


def test_dual_numbers_have_central_derivations():
    # sanity: the oracle does find them when the diagonal hypothesis fails
    A = AlgebraPresentation(["1", "x"], {(0, 0): {0: 1}, (0, 1): {1: 1},
                                         (1, 0): {1: 1}}, unit=[1, 0])
    rep = central_derivation_space(A, regular_bimodule(A))
    assert rep.dim == 1


# -- quotient bimodule -----------------------------------------------------------------

def test_quotient_block(m2, x2):
    Y = direct_sum_bimodule([x2, regular_bimodule(m2)])
    sub = [Y.basis_element(k) for k in range(4)]
    W, q = quotient_bimodule(Y, sub)
    assert W.dim == 4
    for i in range(m2.dim):
        b = m2.basis_element(i)
        for k in range(Y.dim):
            y = Y.basis_element(k)
            assert q(Y.act_left(b, y)) == W.act_left(b, q(y))
            assert q(Y.act_right(y, b)) == W.act_right(q(y), b)
    for v in sub:
        assert q(v).is_zero()


def test_quotient_rejects_non_invariant(m2, x2):
    Y = direct_sum_bimodule([x2, regular_bimodule(m2)])
    with pytest.raises(PresentationError):
        quotient_bimodule(Y, [Y.basis_element(0)])


def test_submodule_membership_argument(m2, x2, t2):
    # delta maps into the first block, tau is a central trace into the first
    # block; the quotient of the sum by the first block carries the induced
    # central derivation, which must vanish, putting delta's range in the block
    Y = direct_sum_bimodule([x2, regular_bimodule(m2)])
    x0 = Y.element({0: Fraction(0), 1: Fraction(2), 2: Fraction(-1)})  # block 0
    delta = inner_derivation(Y, x0)
    cI = Y.element({0: 1, 3: 1})
    tau = trace_map(m2, Y, cI)
    assert centrality_defect(tau) == 0 and trace_defect(tau) == 0
    sub = [Y.basis_element(k) for k in range(4)]
    span = linalg.span_basis([dict(v.coeffs) for v in sub])
    # hypothesis: the combined map lands in the subbimodule
    both = delta + tau
    assert all(span.contains(img) for img in both.images)
    W, q = quotient_bimodule(Y, sub)
    induced = q.compose(delta)
    assert derivation_defect(induced) == 0
    assert centrality_defect(induced) == 0
    rep = central_derivation_space(m2, W, diagonal=t2)
    assert rep.dim == 0 and rep.vanishing_checked
    assert induced.is_zero()
    # conclusion: delta and tau separately map into the subbimodule
    assert all(span.contains(img) for img in delta.images)
    assert all(span.contains(img) for img in tau.images)


def test_lie_decompose_submodule_report(m2, x2, t2):
    Y = direct_sum_bimodule([x2, regular_bimodule(m2)])
    x0 = Y.element({1: Fraction(1)})
    D = inner_derivation(Y, x0) + trace_map(m2, Y, Y.element({0: 1, 3: 1}))
    rep = lie_decompose(D, t2, submodule=[Y.basis_element(k) for k in range(4)])
    assert rep.submodule is not None
    assert rep.submodule.sum_in_submodule
    assert rep.submodule.inner_in_submodule
    assert rep.submodule.trace_in_submodule_center
    assert rep.ok


def test_hom_checks():
    from amlab import check_epimorphism, hom_defect, is_surjective
    from amlab import block_embedding, block_projection, direct_sum_algebra
    A = matrix_algebra(2)
    B = matrix_algebra(2)
    S = direct_sum_algebra([A, B])
    emb = block_embedding(S, 0)
    assert hom_defect(emb) == 0          # multiplicative
    assert not is_surjective(emb)        # misses the second block
    with pytest.raises(PresentationError):
        check_epimorphism(emb)
    proj = block_projection(S, 1)
    check_epimorphism(proj)              # multiplicative and onto


# -- the defect gates against an independent reference ------------------------------

# The five product rules written out in Element arithmetic over every basis pair,
# independently of the term encoding that the gates and classify_maps share.
REFERENCE_RESIDUALS = {
    derivation_defect: lambda D, X, bi, bj, Di, Dj: (
        D(multiply(bi, bj)) - X.act_right(Di, bj) - X.act_left(bi, Dj)),
    jordan_defect: lambda D, X, bi, bj, Di, Dj: (
        D(multiply(bi, bj) + multiply(bj, bi))
        - (X.act_right(Di, bj) + X.act_left(bi, Dj)
           + X.act_right(Dj, bi) + X.act_left(bj, Di))),
    lie_defect: lambda D, X, bi, bj, Di, Dj: (
        D(multiply(bi, bj) - multiply(bj, bi))
        - (X.act_right(Di, bj) + X.act_left(bi, Dj)
           - X.act_right(Dj, bi) - X.act_left(bj, Di))),
    centrality_defect: lambda D, X, bi, bj, Di, Dj: (
        X.act_left(bi, Dj) - X.act_right(Dj, bi)),
    trace_defect: lambda D, X, bi, bj, Di, Dj: (
        D(multiply(bi, bj) - multiply(bj, bi))),
}

IDENTITY_KINDS = {derivation_defect: "derivation", jordan_defect: "jordan",
                  lie_defect: "lie", centrality_defect: "central",
                  trace_defect: "trace"}


def reference_defect(defect, D):
    X, alg = D.codomain, D.domain
    worst = X.scalar(0)
    for i in range(alg.dim):
        for j in range(alg.dim):
            r = REFERENCE_RESIDUALS[defect](D, X, alg.basis_element(i), alg.basis_element(j),
                                            D.image_of_basis(i), D.image_of_basis(j))
            worst = max(worst, r.norm())
    return worst


def rand_map(rng, domain, X):
    """A map with small random coefficients; floats in float mode."""
    images = []
    for _ in range(domain.dim):
        img = {}
        for k in range(X.dim):
            if rng.random() < 0.5:
                img[k] = X.scalar(Fraction(rng.randint(-4, 4), rng.randint(1, 3)))
        images.append(img)
    return LinearMap(domain, X, images)


M3_SCALE = [Fraction(1, 3), Fraction(7, 2), 1, Fraction(7, 2), Fraction(1, 3),
            Fraction(5, 6), 3, 1, Fraction(2, 7)]


def rescaled_m3(mode):
    """M3 on the basis s_i E_i: structure constants s_i s_j / s_k."""
    A = matrix_algebra(3)
    s = M3_SCALE
    mul = {(i, j): {k: c * s[i] * s[j] / s[k] for k, c in row.items()}
           for (i, j), row in A.mul.items()}
    return AlgebraPresentation(A.labels, mul, mode=mode, name="M3 rescaled")


def module_on_new_basis(A, exact):
    """A's regular bimodule on the module basis y_k = r_k b_k + b_{k+1}, with
    non-unit weights; exact is A in rational mode.  The action rows have
    several entries, and the tables are given in decreasing key order."""
    d = A.dim
    r = [Fraction(x) for x in ("2/5", 3, "1/4", 1, "9/2", "1/7", 2, 5, "3/8")]
    b_in_y = [None] * d     # b_k = (y_k - b_{k+1}) / r_k, from the last index down
    for k in reversed(range(d)):
        b_in_y[k] = {k: 1 / r[k]}
        if k + 1 < d:
            linalg.vec_add_scaled(b_in_y[k], b_in_y[k + 1], -1 / r[k])

    def y_image(j, product):  # product(l) for b_l, applied to y_j and written in the y's
        in_b = linalg.vec_combination([(r[j], product(j))]
                                      + ([(1, product(j + 1))] if j + 1 < d else []))
        return linalg.vec_combination((c, b_in_y[n]) for n, c in in_b.items())

    left, right = {}, {}
    for i in reversed(range(d)):
        for j in reversed(range(d)):
            left[(i, j)] = y_image(j, lambda l: exact.product_indices(i, l))
            right[(j, i)] = y_image(j, lambda l: exact.product_indices(l, i))
    weights = [Fraction(k + 2, 3) for k in range(d)]
    return BimodulePresentation(A, [f"y{k}" for k in range(d)], left, right, weights)


def gate_cases(mode):
    s3 = group_algebra(*symmetric_group_table(3), mode=mode)
    t3 = upper_triangular_algebra(3, mode=mode)
    r3 = rescaled_m3(mode)
    module = module_on_new_basis(r3, rescaled_m3("rational"))
    # the quotient of module + module by its diagonal copy is validated on construction
    pair = direct_sum_bimodule([module, module])
    quotient, _ = quotient_bimodule(pair, [pair.element({k: 1, r3.dim + k: 1})
                                           for k in range(r3.dim)])
    return [regular_bimodule(matrix_algebra(3, mode=mode)),
            regular_bimodule(t3),
            regular_bimodule(s3),
            direct_sum_bimodule([regular_bimodule(t3), regular_bimodule(t3)]),
            regular_bimodule(r3),
            module,
            quotient]


@pytest.mark.parametrize("mode", ["rational", "float"])
def test_defect_gates_match_the_reference(mode):
    rng = random.Random(17)
    for X in gate_cases(mode):
        A = X.algebra
        maps = [rand_map(rng, A, X) for _ in range(3)]
        for defect in REFERENCE_RESIDUALS:
            for D in maps:
                got, want = defect(D), reference_defect(defect, D)
                assert want > 0
                if mode == "rational":
                    assert got == want
                else:
                    assert abs(got - want) <= A.tol


def row_values(rows, flat):
    return [sum(c * flat.get(col, 0) for col, c in row.items()) for row in rows]


def test_defect_is_zero_exactly_when_the_classified_rows_vanish():
    rng = random.Random(19)
    for X in gate_cases("rational"):
        A = X.algebra
        maps = [rand_map(rng, A, X) for _ in range(2)]
        for kind in ("derivation", "jordan", "lie", "central_trace"):
            basis = classify_maps(A, X, kind)
            maps += basis
            if basis:
                combo = LinearMap.zero(A, X)
                for D in basis:
                    combo = combo + D.scaled(rng.randint(-3, 3))
                maps.append(combo)
        for defect, kind in IDENTITY_KINDS.items():
            rows = derivations._identity_rows(A, X, kind)
            outcomes = set()
            for D in maps:
                vanish = all(v == 0 for v in row_values(rows, flatten_map(D)))
                assert (defect(D) == 0) == vanish
                outcomes.add(vanish)
            assert outcomes == {True, False}


@pytest.mark.parametrize("mode", ["rational", "float"])
def test_defect_gates_match_the_reference_on_the_unitization(mode):
    rng = random.Random(41)
    for X in gate_cases(mode):
        sharp = unitize(X.algebra)
        D = rand_map(rng, sharp, X)
        for defect in REFERENCE_RESIDUALS:
            got, want = defect(D), reference_defect(defect, D)
            assert want > 0
            if mode == "rational":
                assert got == want
            else:
                assert abs(got - want) <= X.tol


def test_defect_gates_on_the_unitization_domain(m2, x2):
    sharp = unitize(m2)
    e_idx = sharp.meta["adjoined_index"]
    rng = random.Random(23)
    D = rand_map(rng, sharp, x2)
    x = rand_element(rng, x2)
    ad_images = [dict((x2.act_left(b, x) - x2.act_right(x, b)).coeffs)
                 for b in sharp.basis_elements()]
    inner = LinearMap(sharp, x2, ad_images)
    assert inner.images[e_idx] == {}
    assert derivation_defect(inner) == 0
    for defect in REFERENCE_RESIDUALS:
        assert defect(D) == reference_defect(defect, D)
        assert defect(inner) == reference_defect(defect, inner)


def test_defect_gates_reject_an_unrelated_domain(x2):
    other = matrix_algebra(2)
    D = rand_map(random.Random(29), other, x2)
    for defect in (derivation_defect, jordan_defect, lie_defect, centrality_defect):
        with pytest.raises(AlgebraError):
            defect(D)
    assert trace_defect(D) == reference_defect(trace_defect, D)


def test_trace_defect_accepts_any_codomain(m2):
    D = LinearMap.identity(m2)
    assert trace_defect(D) == reference_defect(trace_defect, D) == 2


# -- the integer actions and rows against their Fraction versions --------------------------

# The actions and the identity rows as they were before the integer tables: Fraction
# (or float) arithmetic straight on X.left and X.right, every module index probed.

def ref_left_index(X, i, vec):
    out = {}
    for j, c in vec.items():
        row = X.left.get((i, j))
        if row:
            linalg.vec_add_scaled(out, row, c)
    return out


def ref_right_index(X, vec, i):
    out = {}
    for j, c in vec.items():
        row = X.right.get((j, i))
        if row:
            linalg.vec_add_scaled(out, row, c)
    return out


def ref_sandwich_action(x, t):
    X = x.space
    e_idx = X.adjoined_identity_index(t.space)
    out = {}
    for (i, j), c in t.coeffs.items():
        vec = x.coeffs if i == e_idx else ref_left_index(X, i, x.coeffs)
        if j != e_idx:
            vec = ref_right_index(X, vec, j)
        linalg.vec_add_scaled(out, vec, c)
    return out


def ref_image_action(T, t):
    X = T.codomain
    e_idx = X.adjoined_identity_index(t.space)
    out = {}
    for (i, j), c in t.coeffs.items():
        if j == e_idx or not T.images[j]:
            continue
        img = T.images[j]
        linalg.vec_add_scaled(out, img if i == e_idx else ref_left_index(X, i, img), c)
    return out


def ref_identity_rows(algebra, X, kind):
    m = X.dim
    rows = []
    for terms in derivations._identity_terms(algebra.mul, algebra.dim, kind):
        per_coord = {}
        for alpha, q, op in terms:
            for k in range(m):
                if op is None:
                    vec = {k: algebra.scalar(1)}
                elif op[0] == "L":
                    vec = X.left.get((op[1], k), {})
                else:
                    vec = X.right.get((k, op[1]), {})
                col = q * m + k
                for l, c in vec.items():
                    row = per_coord.setdefault(l, {})
                    v = row.get(col, 0) + alpha * c
                    if v == 0:
                        row.pop(col, None)
                    else:
                        row[col] = v
        rows.extend(r for r in per_coord.values() if r)
    return rows


def rand_scalar_tensor(rng, carrier, nterms=12):
    return Tensor2(carrier, {(rng.randrange(carrier.dim), rng.randrange(carrier.dim)):
                             carrier.scalar(Fraction(rng.randint(-5, 5), rng.randint(1, 6)))
                             for _ in range(nterms)})


def same_vector(got, want, mode):
    """Equal values in the same key order, as Fractions in rational mode."""
    assert list(got.items()) == list(want.items())
    assert all(type(c) is (Fraction if mode == "rational" else float) for c in got.values())


@pytest.mark.parametrize("mode", ["rational", "float"])
def test_actions_match_the_fraction_reference(mode):
    rng = random.Random(43)
    for X in gate_cases(mode):
        A = X.algebra
        sharp = unitize(A)
        for _ in range(3):
            x = X.element({k: Fraction(rng.randint(-4, 4), rng.randint(1, 5))
                           for k in range(X.dim)})
            T = rand_map(rng, A, X)
            for i in range(A.dim):
                same_vector(X.left_index(i, x.coeffs), ref_left_index(X, i, x.coeffs), mode)
                same_vector(X.right_index(x.coeffs, i), ref_right_index(X, x.coeffs, i), mode)
            for carrier in (A, sharp):
                t = rand_scalar_tensor(rng, carrier)
                if carrier is sharp:
                    e = sharp.meta["adjoined_index"]
                    t = t + Tensor2(sharp, {(e, 0): sharp.scalar(Fraction(3, 2)),
                                            (1, e): sharp.scalar(Fraction(-2, 3)),
                                            (e, e): sharp.scalar(Fraction(5, 4))})
                same_vector(sandwich_action(x, t).coeffs, ref_sandwich_action(x, t), mode)
                same_vector(image_action(T, t).coeffs, ref_image_action(T, t), mode)


@pytest.mark.parametrize("mode", ["rational", "float"])
def test_identity_rows_match_the_fraction_reference(mode):
    for X in gate_cases(mode):
        A = X.algebra
        factors = set()
        for kind in IDENTITY_KINDS.values():
            got, want = derivations._identity_rows(A, X, kind), ref_identity_rows(A, X, kind)
            assert len(got) == len(want)
            for g, w in zip(got, want):
                assert list(g) == list(w)
                factors.update(Fraction(g[col]) / Fraction(w[col]) for col in g)
                if mode == "rational":
                    assert all(type(c) is int for c in g.values())
                else:
                    assert g == w
        # one positive factor for every row of every identity over X
        assert len(factors) == 1 and factors.pop() > 0


# -- the adjoined unit as a row of the integer tables ----------------------------------------

# The gates' path for a map on the unitization A# before its unit was index d of
# IntegerTables: a second table built from A#'s products on every call, and a branch
# that lets the unit act by multiplying the term's coefficient by the scale.

def rebuilt_table_defect(D, kind):
    X, dom = D.codomain, D.domain
    e_idx = X.adjoined_identity_index(dom)
    scale, mul, left, right = scalars.clear_denominators(X.mode, dom.mul, X.left, X.right)
    actions = {"L": [{} for _ in range(X.algebra.dim)], "R": [{} for _ in range(X.algebra.dim)]}
    for (i, j), row in sorted(left.items()):
        actions["L"][i][j] = row
    for (j, i), row in sorted(right.items()):
        actions["R"][i][j] = row
    images_scale, images = scalars.clear_denominators(X.mode, D.images)
    weights_scale, (w,) = scalars.clear_denominators(X.mode, [dict(enumerate(X.weights))])
    worst = 0
    for terms in derivations._identity_terms(mul, dom.dim, kind):
        residual = {}
        for alpha, q, op in terms:
            vec = images[q]
            if not vec:
                continue
            if op is not None:
                if op[1] == e_idx:
                    alpha *= scale
                else:
                    rows = actions[op[0]][op[1]]
                    vec = linalg.vec_combination((c, rows.get(j)) for j, c in vec.items())
            linalg.vec_add_scaled(residual, vec, alpha)
        worst = max(worst, sum(abs(c) * w[k] for k, c in residual.items()))
    return scalars.unscale(X.mode, worst, scale * images_scale * weights_scale)


@pytest.mark.parametrize("mode", ["rational", "float"])
def test_gates_on_the_unitization_match_the_rebuilt_table_path(mode):
    rng = random.Random(47)
    for X in gate_cases(mode):
        sharp = unitize(X.algebra)
        x = X.element({k: Fraction(rng.randint(-4, 4), rng.randint(1, 5)) for k in range(X.dim)})
        ad = LinearMap(sharp, X, inner_derivation(X, x).images + [{}])
        for D in (rand_map(rng, sharp, X), rand_map(rng, sharp, X), ad):
            assert D.images[-1] or D is ad
            for defect, kind in IDENTITY_KINDS.items():
                got, want = defect(D), rebuilt_table_defect(D, kind)
                assert got == want and type(got) is type(want)
        assert X.is_zero_scalar(derivation_defect(ad))


def test_the_unit_row_of_the_integer_tables_acts_as_the_identity():
    for X in gate_cases("rational"):
        ints, d = X.integer_tables, X.algebra.dim
        assert len(ints.left) == len(ints.right) == d + 1
        assert ints.left[d] == ints.right[d] == {j: {j: ints.scale} for j in range(X.dim)}
        assert ints.mul[(d, d)] == {d: ints.scale}
        for i in range(d):
            assert ints.mul[(d, i)] == ints.mul[(i, d)] == {i: ints.scale}


# -- one integer table per algebra ---------------------------------------------------------

# The tables as built when each bimodule cleared its own: every table cleared from
# its own copy of the rows, then one copy kept per distinct row.

def ref_integer_tables(mode, mul, left, right, dim, module_dim):
    scale, mul, left, right = scalars.clear_denominators(
        mode, *({key: dict(row) for key, row in t.items()} for t in (mul, left, right)))
    rows = {}

    def shared(row):
        return rows.setdefault(tuple(row.items()), row)

    mul = {key: shared(row) for key, row in mul.items()}
    for i in range(dim):
        mul[(dim, i)] = mul[(i, dim)] = shared({i: scale})
    mul[(dim, dim)] = shared({dim: scale})
    left_rows, right_rows = [{} for _ in range(dim)], [{} for _ in range(dim)]
    for (i, j), row in sorted(left.items()):
        left_rows[i][j] = shared(row)
    for (j, i), row in sorted(right.items()):
        right_rows[i][j] = shared(row)
    identity = {j: shared({j: scale}) for j in range(module_dim)}
    return scale, mul, left_rows + [identity], right_rows + [identity]


def same_nested(got, want):
    """Equal values of equal types, with dict keys in the same order."""
    assert type(got) is type(want)
    if isinstance(want, dict):
        assert list(got) == list(want)
        for key in want:
            same_nested(got[key], want[key])
    elif isinstance(want, list):
        assert len(got) == len(want)
        for g, w in zip(got, want):
            same_nested(g, w)
    else:
        assert got == want


def distinct_rows(mul, left, right):
    return len({id(row) for row in chain(mul.values(), *(r.values() for r in left + right))})


def integer_table_cases(mode):
    """(tables, their reference) for each gate case's algebra and module."""
    seen = set()
    for X in gate_cases(mode):
        A = X.algebra
        if id(A) not in seen:
            seen.add(id(A))
            yield A.integer_tables, ref_integer_tables(mode, A.mul, A.mul, A.mul, A.dim, A.dim)
        yield X.integer_tables, ref_integer_tables(mode, A.mul, X.left, X.right, A.dim, X.dim)


@pytest.mark.parametrize("mode", ["rational", "float"])
def test_integer_tables_match_the_per_bimodule_reference(mode):
    scales = set()
    for ints, (scale, mul, left, right) in integer_table_cases(mode):
        same_nested(ints.scale, scale)
        same_nested(ints.mul, mul)
        same_nested(ints.left, left)
        same_nested(ints.right, right)
        assert distinct_rows(ints.mul, ints.left, ints.right) == distinct_rows(mul, left, right)
        scales.add(scale)
    assert (scales == {1}) == (mode == "float")  # the rescaled M3 cases clear denominators


@pytest.mark.parametrize("mode", ["rational", "float"])
def test_the_regular_bimodule_shares_its_algebras_integer_tables(mode):
    for X in gate_cases(mode):
        A = X.algebra
        R = regular_bimodule(A)
        assert R.integer_tables is A.integer_tables
        assert R.left is R.right is A.mul  # b_i x_j and x_j b_i are both mul[(i, j)]


def test_a_load_and_its_regular_bimodule_clear_the_table_once(monkeypatch):
    cleared = []
    original = scalars.clear_denominators

    def counting(mode, *tables):
        cleared.extend(row for t in tables for row in (t.values() if isinstance(t, dict) else t))
        return original(mode, *tables)

    monkeypatch.setattr(scalars, "clear_denominators", counting)
    for mode in ("rational", "float"):
        for A in (rescaled_m3(mode), group_algebra(*symmetric_group_table(3), mode=mode)):
            data = serialize.algebra_to_dict(A)
            cleared.clear()
            B = serialize.algebra_from_dict(data, mode)
            ints = regular_bimodule(B).integer_tables
            assert len(cleared) == len(B.mul)
            assert ints is B.integer_tables


def ref_is_symmetric_bimodule(X):
    """b_i x_j == x_j b_i on basis pairs, on the Fraction (or float) tables."""
    return all(X._vec_small(linalg.vec_sub(X.left.get((i, j), {}), X.right.get((j, i), {})))
               for i in range(X.algebra.dim) for j in range(X.dim))


def ref_is_commutative(A):
    return all(A._vec_small(linalg.vec_sub(row, A.product_indices(j, i)))
               for (i, j), row in A.mul.items())


def nearly_commutative(mode, delta):
    """a a = a, a b = b, b a = (1 + delta) b: commutative up to delta (and
    associative only up to delta, so unvalidated)."""
    return AlgebraPresentation(("a", "b"), {(0, 0): {0: 1}, (0, 1): {1: 1},
                                            (1, 0): {1: 1 + delta}},
                               mode=mode, validate=False)


@pytest.mark.parametrize("mode", ["rational", "float"])
def test_symmetry_and_commutativity_match_the_fraction_reference(mode):
    delta = Fraction(1, 10 ** 12)
    modules = gate_cases(mode)
    algebras = ([X.algebra for X in modules]
                + [group_algebra(*cyclic_group_table(4), mode=mode),
                   nearly_commutative(mode, delta), nearly_commutative(mode, 10 ** 6 * delta)])
    modules += [regular_bimodule(A) for A in algebras[-3:]]
    modules.append(direct_sum_bimodule([modules[-3], modules[-3]]))
    got = [X.is_symmetric_bimodule() for X in modules]
    assert got == [ref_is_symmetric_bimodule(X) for X in modules]
    assert got[-4:] == [True, mode == "float", False, True]
    got = [A.is_commutative() for A in algebras]
    assert got == [ref_is_commutative(A) for A in algebras]
    assert got[-3:] == [True, mode == "float", False] and not any(got[:-3])


@pytest.mark.parametrize("mode", ["rational", "float"])
def test_inner_derivation_matches_the_element_reference(mode):
    rng = random.Random(53)
    for X in gate_cases(mode):
        A = X.algebra
        sharp = unitize(A)
        e = sharp.basis_element(sharp.meta["adjoined_index"])
        for _ in range(3):
            x = X.element({k: Fraction(rng.randint(-4, 4), rng.randint(1, 5))
                           for k in range(X.dim) if rng.random() < 0.7})
            D = inner_derivation(X, x)
            for q, b in enumerate(A.basis_elements()):
                want = X.act_left(b, x) - X.act_right(x, b)
                same_vector(D.images[q], want.coeffs, mode)
            # over A# the unit acts as the identity, on either side
            same_vector(X.act_left(e, x).coeffs, x.coeffs, mode)
            same_vector(X.act_right(x, e).coeffs, x.coeffs, mode)
            a = sharp.element({0: Fraction(3, 2), sharp.dim - 1: Fraction(-2, 3)})
            want = linalg.vec_combination([(a.coeffs[0], ref_left_index(X, 0, x.coeffs)),
                                           (a.coeffs[sharp.dim - 1], x.coeffs)])
            same_vector(X.act_left(a, x).coeffs, want, mode)


def decomposition_cases(mode):
    m3 = matrix_algebra(3, mode=mode)
    s3 = group_algebra(*symmetric_group_table(3), mode=mode)
    for A, t in [(m3, matrix_diagonal(3, algebra=m3)),
                 (s3, group_diagonal(*symmetric_group_table(3), algebra=s3))]:
        X = regular_bimodule(A)
        yield X, t
        yield direct_sum_bimodule([X, X]), t


@pytest.mark.parametrize("mode", ["rational", "float"])
def test_decomposition_residuals_match_the_element_reference(mode):
    """Residuals of maps that are not Jordan derivations, let through a large
    tolerance so that they are nonzero, against act_left and act_right."""
    rng = random.Random(59)
    for X, t in decomposition_cases(mode):
        A = X.algebra
        big = X.scalar(10 ** 6)
        half = X.scalar(1) / X.scalar(2)
        for D in (rand_map(rng, A, X), rand_map(rng, A, X)):
            rep = jordan_decompose(D, t, tolerance=big)
            central = central_jordan_decompose(D, t, tolerance=big)
            for q, b in enumerate(A.basis_elements()):
                Db = D.image_of_basis(q)
                inner = X.act_left(b, rep.omega) - X.act_right(rep.omega, b)
                lhs = X.act_left(b, rep.x) - X.act_right(rep.x, b)
                stage1 = Db - (lhs - rep.central_stage.image_of_basis(q))
                half_inner = (X.act_left(b, central.x) - X.act_right(central.x, b)).scaled(half)
                label = A.labels[q]
                for got, want in [(rep.residuals[label], (Db - inner).norm()),
                                  (rep.stage_one_residuals[label], stage1.norm()),
                                  (central.residuals[label], (Db - half_inner).norm())]:
                    assert got == want and type(got) is type(want)
            assert any(r > 0 for r in rep.residuals.values())
            assert any(r > 0 for r in central.residuals.values())


# The decompositions against an approximate diagonal, rebuilt with per-label
# loops that measure the diagonal's defects afresh for every bound.

def ref_residual_bound(D, ts, b):
    X = D.codomain
    d1, _, d3, _ = tensor_arithmetic_defects(ts, ts.space.element(dict(b.coeffs)))
    e = ts.space.unit_element()
    d2_at_e = (multiply(contract(ts), e) - e).norm()
    action = max(X.action_bound, X.scalar(1))
    return action * d2_at_e * D(b).norm() + D.op_norm() * (d1 + d3)


def ref_stage_one(D, t, tolerance):
    """The lifted diagonal over unitize(A), its quality, x, ad_x and the sandwich map."""
    X, alg = D.codomain, D.domain
    ts = unitized_diagonal(t)
    worst = max([alg.scalar(0)] + [max(tensor_arithmetic_defects(ts, a))
                                   for a in ts.space.basis_elements()])
    quality = derivations.DiagonalQuality(worst, (ts - flip(ts)).proj_norm(), tolerance)
    x = image_action(D, ts)
    S = LinearMap(alg, X, [dict(sandwich_action(D.image_of_basis(q), ts).coeffs)
                           for q in range(alg.dim)])
    return ts, quality, x, inner_derivation(X, x), S


def ref_jordan_decompose(D, t, tolerance):
    X, alg = D.codomain, D.domain
    ts, quality, x, ad_x, delta = ref_stage_one(D, t, tolerance)
    x1 = image_action(delta, ts)
    omega = x - x1.scaled(X.scalar(1) / X.scalar(2))
    inner = inner_derivation(X, omega)
    residuals, stage1, bounds = {}, {}, {}
    for q, b in enumerate(alg.basis_elements()):
        Db, label = D.image_of_basis(q), alg.labels[q]
        residuals[label] = (Db - inner.image_of_basis(q)).norm()
        stage1[label] = (Db - (ad_x.image_of_basis(q) - delta.image_of_basis(q))).norm()
        if not quality.exact:
            bounds[label] = ref_residual_bound(D, ts, b)
    ok = (all(r <= tolerance for r in residuals.values()) if quality.exact else
          all(stage1[lab] <= bounds[lab] or stage1[lab] <= tolerance for lab in stage1))
    return derivations.JordanDecomposition(
        omega=omega, x=x, central_stage=delta, x1=x1, residuals=residuals,
        stage_one_residuals=stage1, stage_one_bounds=bounds,
        central_defect=centrality_defect(delta), quality=quality, exact=quality.exact, ok=ok)


def ref_lie_decompose(D, t, tolerance):
    alg = D.domain
    ts, quality, x, d_map, tau = ref_stage_one(D, t, tolerance)
    residuals, bounds = {}, {}
    for q, b in enumerate(alg.basis_elements()):
        r = D.image_of_basis(q) - d_map.image_of_basis(q) - tau.image_of_basis(q)
        residuals[alg.labels[q]] = r.norm()
        if not quality.exact:
            bounds[alg.labels[q]] = ref_residual_bound(D, ts, b)
    gates = [derivation_defect(d_map), centrality_defect(tau), trace_defect(tau)]
    ok = (all(v <= tolerance for v in gates + list(residuals.values())) if quality.exact else
          all(residuals[lab] <= bounds[lab] or residuals[lab] <= tolerance for lab in residuals))
    return derivations.LieDecomposition(
        inner=d_map, central_trace=tau, x=x, residuals=residuals, residual_bounds=bounds,
        inner_derivation_defect=gates[0], trace_centrality_defect=gates[1],
        trace_commutator_defect=gates[2], quality=quality, exact=quality.exact, ok=ok)


def ref_central_jordan_decompose(D, t, tolerance):
    X, alg = D.codomain, D.domain
    _, quality, x, ad_x, _ = ref_stage_one(D, t, tolerance)
    half = X.scalar(1) / X.scalar(2)
    residuals = {alg.labels[q]: (D.image_of_basis(q) - ad_x.image_of_basis(q).scaled(half)).norm()
                 for q in range(alg.dim)}
    dd = derivation_defect(D)
    return derivations.CentralJordanReport(
        x=x, residuals=residuals, derivation_defect=dd,
        symmetric_bimodule=X.is_symmetric_bimodule(), quality=quality,
        ok=all(r <= tolerance for r in residuals.values()) and dd <= tolerance)


def canonical(value):
    """Values with their types and key order, for bit-for-bit comparison."""
    if isinstance(value, Element):
        return canonical(value.coeffs)
    if isinstance(value, LinearMap):
        return [canonical(img) for img in value.images]
    if dataclasses.is_dataclass(value):
        return [(f.name, canonical(getattr(value, f.name))) for f in dataclasses.fields(value)]
    if isinstance(value, dict):
        return [(k, canonical(v)) for k, v in value.items()]
    return repr(value), type(value)


def approximate_decomposition_cases(mode):
    """(map, approximate symmetric diagonal, tolerance) triples: an inner
    derivation plus a small perturbation, on the regular module, a direct sum
    and a module with non-unit weights, over M3 and l1(S3)."""
    rng = random.Random(71)
    m3 = matrix_algebra(3, mode=mode)
    s3 = group_algebra(*symmetric_group_table(3), mode=mode)
    for A, exact, diagonal in [
            (m3, matrix_algebra(3), matrix_diagonal(3, algebra=m3)),
            (s3, group_algebra(*symmetric_group_table(3)),
             group_diagonal(*symmetric_group_table(3), algebra=s3))]:
        noise = elementary(A.element({1: Fraction(1, 10 ** 4)}), A.element({3: 1}))
        R = regular_bimodule(A)
        for X in (R, direct_sum_bimodule([R, R]), module_on_new_basis(A, exact)):
            x = X.element({k: Fraction(rng.randint(-3, 3), rng.randint(1, 4))
                           for k in range(X.dim)})
            nudge = LinearMap(A, X, [{0: Fraction(1, 1000)}] + [{}] * (A.dim - 1))
            yield (inner_derivation(X, x) + nudge, nudge, diagonal + noise + flip(noise),
                   A.scalar(Fraction(1, 10)))


@pytest.mark.parametrize("mode", ["rational", "float"])
def test_approximate_decompositions_match_the_per_label_reference(mode):
    for D, central, t, tol in approximate_decomposition_cases(mode):
        for decompose, ref, M in [(jordan_decompose, ref_jordan_decompose, D),
                                  (lie_decompose, ref_lie_decompose, D),
                                  (central_jordan_decompose, ref_central_jordan_decompose,
                                   central)]:
            rep = decompose(M, t, tolerance=tol)
            assert not rep.quality.exact and rep.quality.max_defect > 0
            assert canonical(rep) == canonical(ref(M, t, tol))


@pytest.mark.parametrize("mode", ["rational", "float"])
def test_an_approximate_diagonal_is_measured_once(mode, monkeypatch):
    """One pass of the defect kernel per tensor, with a row per basis element
    of A#: the quality and every residual bound read them, however many
    decompositions use the tensor."""
    passes = []
    kernel = derivations._defect_rows

    def counted(ints, weights, mode, coeffs, elements):
        passes.append(len(elements))
        return kernel(ints, weights, mode, coeffs, elements)

    monkeypatch.setattr(derivations, "_defect_rows", counted)
    for D, _, t, tol in approximate_decomposition_cases(mode):
        del passes[:]
        assert jordan_decompose(D, t, tolerance=tol).stage_one_bounds
        assert passes == [D.domain.dim + 1]
        assert lie_decompose(D, t, tolerance=tol).residual_bounds
        assert passes == [D.domain.dim + 1]


def lift_cases(mode):
    """(bimodule, tensor over A) pairs: the exact diagonals of M3, l1(S3) and
    M3 + l1(S3), and the perturbed diagonals of approximate_decomposition_cases."""
    m3 = matrix_algebra(3, mode=mode)
    s3 = group_algebra(*symmetric_group_table(3), mode=mode)
    exact = [matrix_diagonal(3, algebra=m3),
             group_diagonal(*symmetric_group_table(3), algebra=s3)]
    exact.append(direct_sum_diagonal(exact, direct_sum_algebra([m3, s3])))
    cases = [(regular_bimodule(t.space), t) for t in exact]
    return cases + [(D.codomain, t) for D, _, t, _ in approximate_decomposition_cases(mode)]


@pytest.mark.parametrize("mode", ["rational", "float"])
def test_the_lift_is_measured_on_the_algebras_own_tables(mode):
    """The lifted coefficients, defect rows and symmetry defect that
    _prepare_diagonal reads on A's integer tables are those of
    unitized_diagonal(t) over unitize(A), measured by tensor arithmetic and by
    defects: equal in rational mode and bit for bit in float mode.  A tensor
    given over A# is read as it is."""
    for X, t in lift_cases(mode):
        ts = unitized_diagonal(t)
        basis = ts.space.basis_elements()
        want = [tensor_arithmetic_defects(ts, a) for a in basis]
        assert canonical(want) == canonical([defects(ts, a) for a in basis])
        lift, quality = derivations._prepare_diagonal(X, t)
        assert canonical(lift.rows) == canonical(want)
        assert canonical(quality.symmetry_defect) == canonical((ts - flip(ts)).proj_norm())
        assert canonical({key: scalars.unscale(mode, c, lift.scale)
                          for key, c in lift.coeffs.items()}) == canonical(ts.coeffs)
        given, _ = derivations._prepare_diagonal(X, Tensor2(ts.space, ts.coeffs))
        assert canonical(given.rows) == canonical(want)


def right_only_module(A):
    """A acting on itself by right multiplication, with the zero left action."""
    return BimodulePresentation(A, A.labels, {}, A.mul, name="right-only")


def right_only_cases(mode):
    """(inner derivation, its x, diagonal, tolerance) on the right-only modules of M2
    and l1(S3): the exact diagonals with tolerance None, and the same nudged by a
    symmetric 1/1000 with tolerance 1/10."""
    rng = random.Random(29)
    m2 = matrix_algebra(2, mode=mode)
    s3 = group_algebra(*symmetric_group_table(3), mode=mode)
    for t in (matrix_diagonal(2, algebra=m2),
              group_diagonal(*symmetric_group_table(3), algebra=s3)):
        A = t.space
        X = right_only_module(A)
        x = X.element({k: Fraction(rng.randint(-3, 3), rng.randint(1, 4)) for k in range(X.dim)})
        noise = elementary(A.element({1: Fraction(1, 1000)}), A.element({0: 1}))
        yield inner_derivation(X, x), x, t, None
        yield inner_derivation(X, x), x, t + noise + flip(noise), A.scalar(Fraction(1, 10))


@pytest.mark.parametrize("mode", ["rational", "float"])
def test_on_a_right_only_module_the_lift_carries_x(mode):
    """With no left action, t pushes ad_x to 0, and only the (e - u) (x) (e - u)
    terms of the lift recover x (exactly, in rational mode); the decompositions
    read the lift and equal the route through unitized_diagonal and unitize."""
    for D, x, t, tol in right_only_cases(mode):
        X = D.codomain
        assert image_action(D, t).is_zero()
        if tol is None and mode == "rational":
            assert image_action(D, unitized_diagonal(t)) == x
            rep = lie_decompose(D, t)
            assert rep.ok and rep.exact and rep.x == x and rep.inner == D
            assert rep.central_trace.is_zero()
        eps = tol if tol is not None else X.eps
        for decompose, ref in [(jordan_decompose, ref_jordan_decompose),
                               (lie_decompose, ref_lie_decompose)]:
            assert canonical(decompose(D, t, tolerance=tol)) == canonical(ref(D, t, eps))
        zero = LinearMap.zero(D.domain, X)
        assert canonical(central_jordan_decompose(zero, t, tolerance=tol)) == \
            canonical(ref_central_jordan_decompose(zero, t, eps))


def test_the_decompositions_build_no_unitization(monkeypatch):
    """On a tensor over A, the decompositions and the central derivation space
    construct no presentation and call no unitize: the lift lives on A's tables."""
    A = matrix_algebra(3)
    X = regular_bimodule(A)
    D = inner_derivation(X, X.element({1: 1, 5: -2}))
    zero = LinearMap.zero(A, X)

    def refuse(*args, **kwargs):
        raise AssertionError("a decomposition built a presentation")

    monkeypatch.setattr(AlgebraPresentation, "__init__", refuse)
    monkeypatch.setattr("amlab.algebra.unitize", refuse)
    monkeypatch.setattr("amlab.diagonals.unitize", refuse)
    assert jordan_decompose(D, matrix_diagonal(3, algebra=A)).ok
    assert lie_decompose(D, matrix_diagonal(3, algebra=A)).ok
    assert central_jordan_decompose(zero, matrix_diagonal(3, algebra=A)).ok
    assert central_derivation_space(A, X, matrix_diagonal(3, algebra=A)).vanishing_checked
    with pytest.raises(AssertionError, match="built a presentation"):
        unitized_diagonal(matrix_diagonal(3, algebra=A))


@pytest.mark.parametrize("mode", ["rational", "float"])
def test_jordan_reports_the_central_stage_of_an_approximate_diagonal_ungated(mode):
    """The central stage's defect grows with ||D|| times the diagonal's defects;
    a diagonal within tolerance is not refused for it, and ok rests on the
    stage-one bounds."""
    s3 = group_algebra(*symmetric_group_table(3), mode=mode)
    X = module_on_new_basis(s3, group_algebra(*symmetric_group_table(3)))
    rng = random.Random(71)
    x = X.element({k: Fraction(rng.randint(-3, 3), rng.randint(1, 4)) for k in range(X.dim)})
    D = inner_derivation(X, x) + LinearMap(s3, X, [{0: Fraction(1, 1000)}] + [{}] * 5)
    noise = elementary(s3.element({1: Fraction(1, 1000)}), s3.element({3: 1}))
    t = group_diagonal(*symmetric_group_table(3), algebra=s3) + noise + flip(noise)
    tol = s3.scalar(Fraction(1, 10))
    rep = jordan_decompose(D, t, tolerance=tol)
    assert not rep.exact and rep.quality.max_defect <= tol
    assert rep.central_defect == centrality_defect(rep.central_stage) > tol
    assert rep.ok == all(rep.stage_one_residuals[lab] <= rep.stage_one_bounds[lab]
                         or rep.stage_one_residuals[lab] <= tol for lab in s3.labels)
    assert canonical(rep) == canonical(ref_jordan_decompose(D, t, tol))


def test_jordan_gates_the_central_stage_of_an_exact_diagonal(m2, x2, t2, monkeypatch):
    """An exact diagonal makes the central stage central; a defect there would
    mean the tensor is not one, and is refused."""
    D = inner_derivation(x2, x2.element({1: 1}))
    assert jordan_decompose(D, t2).ok
    monkeypatch.setattr(derivations, "centrality_defect", lambda D: Fraction(1, 10 ** 9))
    with pytest.raises(AlgebraError, match="central stage fails centrality"):
        jordan_decompose(D, t2)


def test_gates_and_decompositions_reject_a_map_into_an_algebra(m2):
    D = LinearMap.zero(m2, m2)
    for defect in (derivation_defect, jordan_defect, lie_defect, centrality_defect):
        with pytest.raises(AlgebraError, match="needs a map into a bimodule"):
            defect(D)
    assert trace_defect(D) == 0
    t = matrix_diagonal(2, algebra=m2)
    for decompose in (jordan_decompose, central_jordan_decompose, lie_decompose):
        with pytest.raises(AlgebraError, match="needs a map into a bimodule"):
            decompose(D, t)


def ref_action_bound(X):
    w, v = X.algebra.weights, X.weights
    bounds = [sum(abs(c) * v[k] for k, c in row.items()) / (w[i] * v[j])
              for (i, j), row in X.left.items()]
    bounds += [sum(abs(c) * v[k] for k, c in row.items()) / (w[i] * v[j])
               for (j, i), row in X.right.items()]
    return max(bounds)


@pytest.mark.parametrize("mode", ["rational", "float"])
def test_action_bound_is_computed_on_first_use(mode):
    for X in gate_cases(mode):
        assert "action_bound" not in vars(X)
        assert X.action_bound == ref_action_bound(X) > 0
        assert type(X.action_bound) is (Fraction if mode == "rational" else float)


# -- float mode ---------------------------------------------------------------------------

def test_float_mode_decompositions():
    A = matrix_algebra(2, mode="float")
    X = regular_bimodule(A)
    t = matrix_diagonal(2, algebra=A)
    D = inner_derivation(X, X.element({"E12": 1.0, "E21": -0.5}))
    rep = jordan_decompose(D, t)
    assert rep.ok
    assert all(r <= A.tol for r in rep.residuals.values())
    rep2 = lie_decompose(D, t)
    assert rep2.ok
    assert rep2.central_trace.is_zero()



KIND_DEFECTS = {"derivation": [derivation_defect], "jordan": [jordan_defect],
                "lie": [lie_defect], "central_trace": [centrality_defect, trace_defect]}


@pytest.mark.parametrize("make", [lambda mode: upper_triangular_algebra(5, mode=mode),
                                  lambda mode: matrix_algebra(5, mode=mode),
                                  lambda mode: group_algebra(*symmetric_group_table(3),
                                                             mode=mode)],
                         ids=["T5", "M5", "l1(S3)"])
def test_float_classification_matches_rational_dimensions(make):
    rng = random.Random(37)
    exact, approx = make("rational"), make("float")
    X = regular_bimodule(approx)
    for kind, gates in KIND_DEFECTS.items():
        basis = classify_maps(approx, X, kind)
        assert basis
        assert len(basis) == len(classify_maps(exact, regular_bimodule(exact), kind))
        combo = LinearMap.zero(approx, X)
        for D in basis:
            combo = combo + D.scaled(rng.choice([-3, -2, -1, 1, 2, 3]))
        for gate in gates:
            assert gate(combo) <= approx.tol


# -- boundedness report ------------------------------------------------------------------

def test_net_boundedness_report(m2, x2):
    m4 = matrix_algebra(4)
    X4 = regular_bimodule(m4)
    from amlab import truncated_matrix_diagonal
    net = DiagonalNet([truncated_matrix_diagonal(n, 4, algebra=m4)
                       for n in range(1, 5)],
                      m4.basis_elements(), 0)
    D = inner_derivation(X4, X4.element({1: 1}))
    out = net_boundedness(net, X4, maps=[D])
    assert len(out["sandwich_max"]) == 4
    assert all(v >= 0 for v in out["sandwich_max"])
    assert len(out["image_norms"][0]) == 4
