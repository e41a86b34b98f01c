"""Element arithmetic, norms, unitization, opposite, center, commutators."""

import random
from fractions import Fraction

import pytest

from amlab import (RATIONAL, AlgebraError, AlgebraPresentation, Element,
                   PresentationError, abelian_product_table, center, commutator,
                   commutator_subspace, direct_sum_algebra, linalg, matrix_algebra,
                   multiply, norm, opposite, symmetric_group_table, unitize,
                   upper_triangular_algebra, cyclic_group_table, group_algebra)
from amlab.algebra import basis_commutators

from oracles import dense_from_element, element_from_dense, mat_mul, sympy_nullity


def rand_element(rng, algebra, lo=-3, hi=3):
    return algebra.element({i: Fraction(rng.randint(lo, hi))
                            for i in range(algebra.dim)})


# -- multiply ----------------------------------------------------------------

def test_matrix_unit_relations(m2):
    E12 = m2.element({"E12": 1})
    E21 = m2.element({"E21": 1})
    assert multiply(E12, E21) == m2.element({"E11": 1})
    assert multiply(E21, E12) == m2.element({"E22": 1})
    assert multiply(E12, E12).is_zero()


def test_multiply_expansion(m2):
    a = m2.element({"E11": 2, "E12": 1})
    b = m2.element({"E22": 1})
    assert multiply(a, b) == m2.element({"E12": 1})


def test_multiply_zero(m2):
    a = m2.element({"E12": 5})
    assert multiply(m2.zero(), a).is_zero()
    assert (a * m2.zero()).is_zero()


def test_multiply_matches_dense_oracle(m3):
    rng = random.Random(23)
    for _ in range(20):
        a, b = rand_element(rng, m3), rand_element(rng, m3)
        expect = element_from_dense(m3, mat_mul(dense_from_element(a),
                                                dense_from_element(b)))
        assert multiply(a, b) == expect


def test_mismatched_presentations(m2, m3):
    with pytest.raises(AlgebraError):
        multiply(m2.element({"E11": 1}), m3.element({"E11": 1}))


# -- norm --------------------------------------------------------------------

def test_norm_values(m2):
    assert norm(m2.element({"E12": 1})) == 1
    assert norm(m2.element({"E11": 2, "E22": -3})) == 5
    assert norm(m2.zero()) == 0


def test_norm_respects_weights():
    A = AlgebraPresentation(["p"], {(0, 0): {0: 1}}, weights=[2])
    assert norm(A.element({0: Fraction(3, 2)})) == 3


def test_norm_submultiplicative_on_random_pairs(m3):
    rng = random.Random(5)
    assert m3.submultiplicative
    for _ in range(30):
        a, b = rand_element(rng, m3), rand_element(rng, m3)
        assert norm(multiply(a, b)) <= norm(a) * norm(b)


# -- associativity beyond basis triples ---------------------------------------

def test_associativity_random_triples(m3):
    rng = random.Random(31)
    for _ in range(15):
        a, b, c = (rand_element(rng, m3) for _ in range(3))
        assert multiply(multiply(a, b), c) == multiply(a, multiply(b, c))


def test_nonassociative_table_rejected():
    # b0 b0 = b1, everything else zero, then (b0 b0) b0 = 0 but b0 (b0 b0) = 0:
    # that one is fine; break it with b1 b0 = b0 instead.
    with pytest.raises(PresentationError):
        AlgebraPresentation(["a", "b"], {(0, 0): {1: 1}, (1, 0): {0: 1}})


def test_bad_unit_rejected():
    with pytest.raises(PresentationError):
        AlgebraPresentation(["a"], {(0, 0): {0: 1}}, unit=[2])


def test_uncertified_presentation_accepted_with_warning():
    # product mass 3 > weight product 1: norm inequality not certified
    A = AlgebraPresentation(["a"], {(0, 0): {0: 3}})
    assert not A.submultiplicative
    assert A.warnings
    a = A.element({0: 1})
    assert norm(multiply(a, a)) == 3  # > norm(a)**2, allowed when uncertified


# -- unitize -------------------------------------------------------------------

def test_unitize_matrix_algebra(m2):
    sharp = unitize(m2)
    assert sharp.dim == 5
    e = sharp.unit_element()
    assert norm(e + sharp.element({"E11": 1})) == 2
    for i in range(sharp.dim):
        b = sharp.basis_element(i)
        assert multiply(e, b) == b
        assert multiply(b, e) == b
    assert norm(e) == 1


def test_unitize_norm_is_l1_on_the_split():
    A = matrix_algebra(2)
    sharp = unitize(A)
    a = sharp.element({"E11": 2, "E21": -1})
    lam = Fraction(-7, 2)
    assert norm(a + sharp.unit_element().scaled(lam)) == norm(a) + abs(lam)


def test_unitize_zero_algebra_is_scalars():
    Z = AlgebraPresentation([], {})
    sharp = unitize(Z)
    assert sharp.dim == 1
    e = sharp.unit_element()
    assert multiply(e, e) == e


def test_unitize_label_collision():
    A = AlgebraPresentation(["e"], {(0, 0): {0: 1}}, unit=[1])
    sharp = unitize(A)
    assert sharp.dim == 2
    assert len(set(sharp.labels)) == 2


# -- opposite -------------------------------------------------------------------

def test_opposite_of_commutative_is_same():
    table, labels = cyclic_group_table(3)
    A = group_algebra(table, labels)
    assert opposite(A).structurally_equal(A)


def test_opposite_matrix_product(m2):
    op = opposite(m2)
    a = op.element({"E12": 1})
    b = op.element({"E21": 1})
    # a o b = ba = E21 E12 = E22
    assert multiply(a, b) == op.element({"E22": 1})


def test_opposite_involution(m2):
    assert opposite(opposite(m2)).structurally_equal(m2)


# -- center ---------------------------------------------------------------------

def test_center_m2(m2):
    basis = center(m2)
    assert len(basis) == 1
    z = basis[0]
    assert z.coeffs == {0: z.coeffs[0], 3: z.coeffs[0]}  # multiple of I


def test_center_commutative_is_everything():
    table, labels = cyclic_group_table(4)
    A = group_algebra(table, labels)
    assert len(center(A)) == 4


def test_center_upper_triangular():
    T2 = upper_triangular_algebra(2)
    basis = center(T2)
    assert len(basis) == 1
    z = basis[0]
    # multiple of the identity E11 + E22
    i11 = T2.label_index("E11")
    i22 = T2.label_index("E22")
    assert set(z.coeffs) == {i11, i22} and z.coeffs[i11] == z.coeffs[i22]


def test_center_kernel_property(m3):
    rng = random.Random(41)
    basis = center(m3)
    for z in basis:
        for _ in range(10):
            x = rand_element(rng, m3)
            assert commutator(z, x).is_zero()


def ref_center(algebra):
    """The algebra's own row builder that center() used before it became the
    regular bimodule's center: rows of x b_i - b_i x, per coordinate."""
    d = algebra.dim
    eps = 0 if algebra.mode == RATIONAL else algebra.tol
    rows = []
    for i in range(d):
        per_coord = {}
        for k in range(d):
            for m, c in algebra.product_indices(k, i).items():
                row = per_coord.setdefault(m, {})
                row[k] = row.get(k, 0) + c
            for m, c in algebra.product_indices(i, k).items():
                row = per_coord.setdefault(m, {})
                v = row.get(k, 0) - c
                if v == 0:
                    row.pop(k, None)
                else:
                    row[k] = v
        rows.extend(r for r in per_coord.values() if r)
    basis = linalg.nullspace(rows, d, eps)
    return [Element(algebra, {i: algebra.scalar(c) for i, c in v.items()}) for v in basis]


def rescaled_m3(mode="rational"):
    """M3 on the basis s_i E_i: structure constants s_i s_j / s_k."""
    s = [Fraction(1, 3), Fraction(7, 2), 1, 5, Fraction(5, 6), 3, 1, Fraction(2, 7), 2]
    mul = {(i, j): {k: c * s[i] * s[j] / s[k] for k, c in row.items()}
           for (i, j), row in matrix_algebra(3).mul.items()}
    return AlgebraPresentation(matrix_algebra(3).labels, mul, mode=mode)


def center_cases():
    s3, s4 = symmetric_group_table(3), symmetric_group_table(4)
    rational = [matrix_algebra(3), matrix_algebra(5), upper_triangular_algebra(4),
                group_algebra(*s3), group_algebra(*s4),
                group_algebra(*abelian_product_table([2, 3])),
                direct_sum_algebra([matrix_algebra(2), upper_triangular_algebra(3)]),
                rescaled_m3()]
    return rational + [matrix_algebra(3, mode="float"), group_algebra(*s4, mode="float"),
                       rescaled_m3("float")]


def test_center_equals_the_algebras_own_elimination():
    for A in center_cases():
        got, want = center(A), ref_center(A)
        assert [list(z.coeffs.items()) for z in got] == \
            [list(z.coeffs.items()) for z in want], A
        assert all(z.space is A for z in got)
        assert all(type(c) is type(A.eps) for z in got for c in z.coeffs.values())


# -- commutator subspace -----------------------------------------------------

def test_basis_commutators_equal_element_commutators():
    for A in center_cases():
        want = []
        for p in range(A.dim):
            for q in range(p + 1, A.dim):
                c = commutator(A.basis_element(p), A.basis_element(q))
                if c.coeffs:
                    want.append((p, q, list(c.coeffs.items())))
        got = [(p, q, list(v.items())) for p, q, v in basis_commutators(A)]
        assert got == want, A


def test_commutator_subspace_m2_is_trace_zero(m2):
    basis = commutator_subspace(m2)
    assert len(basis) == 3
    for v in basis:
        M = dense_from_element(v)
        assert M[0][0] + M[1][1] == 0


def test_commutator_subspace_commutative_trivial():
    table, labels = cyclic_group_table(3)
    A = group_algebra(table, labels)
    assert commutator_subspace(A) == []


def test_commutator_subspace_m3_dimension(m3):
    assert len(commutator_subspace(m3)) == 8


def test_commutator_subspace_dimension_matches_sympy(m2):
    gens = []
    for p in range(m2.dim):
        for q in range(p + 1, m2.dim):
            gens.append(dict(commutator(m2.basis_element(p),
                                        m2.basis_element(q)).coeffs))
    basis = commutator_subspace(m2)
    # span dimension is the rank of the generator rows
    assert len(basis) == m2.dim - sympy_nullity(gens, m2.dim)


def test_is_commutative(m2):
    assert not m2.is_commutative()
    assert group_algebra(*cyclic_group_table(3)).is_commutative()


def test_certified_unit_has_norm_at_least_one(m2, m3):
    # ||b|| = ||u b|| <= ||u|| ||b|| forces ||u|| >= 1 under the certificate
    for A in (m2, m3, upper_triangular_algebra(3),
              group_algebra(*cyclic_group_table(4))):
        assert A.submultiplicative
        assert norm(A.unit_element()) >= 1


# -- float mode ----------------------------------------------------------------

def test_float_mode_arithmetic():
    A = matrix_algebra(2, mode="float")
    a = A.element({"E11": 0.5, "E12": 1.0})
    b = A.element({"E21": 2.0})
    # a b = 0.5 E11 E21 + E12 E21 * 2 = 2 E11
    assert abs(norm(multiply(a, b)) - 2.0) < 1e-12
    assert isinstance(norm(a), float)
