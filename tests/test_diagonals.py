"""Diagonal constructors and the four-defect diagnostic."""

import random
from fractions import Fraction

import pytest

from amlab import (AlgebraError, DiagonalNet, LinearMap, Tensor2,
                   abelian_product_table, basis_test_set, block_projection,
                   contract, cyclic_group_table, defect_report, defects,
                   direct_sum_algebra, direct_sum_diagonal, elementary, flip,
                   group_algebra, group_diagonal, ideal_diagonal, left_action, linalg,
                   matrix_algebra, matrix_diagonal, matrix_unit_index,
                   max_defect, multiply, opposite_left_action,
                   opposite_right_action, proj_norm, pushforward_diagonal,
                   right_action, support_block, symmetric_group_table,
                   tail_mass, trace_form_diagonal, truncated_matrix_diagonal,
                   unitized_diagonal, upper_triangular_algebra)

from oracles import element_from_dense


def rand_element(rng, algebra, lo=-3, hi=3):
    return algebra.element({i: Fraction(rng.randint(lo, hi))
                            for i in range(algebra.dim)})


def rand_sparse(rng, algebra, nterms, lo=-5, hi=5):
    coeffs = {}
    for _ in range(nterms):
        coeffs[rng.randrange(algebra.dim)] = Fraction(rng.randint(lo, hi))
    return algebra.element(coeffs)


# -- defect reports --------------------------------------------------------------

def test_matrix_diagonal_report_all_zero(m2):
    t = matrix_diagonal(2, algebra=m2)
    els, labels = basis_test_set(m2)
    report = defect_report(DiagonalNet([t], els, 0, labels), require_symmetric=True)
    assert report.verdict
    for row in report.all_rows():
        assert (row.d1, row.d2, row.d3, row.d4) == (0, 0, 0, 0)
    assert report.entries[0].symmetric


def test_flipped_sign_tensor_fails(m2):
    t = matrix_diagonal(2, algebra=m2)
    bad = Tensor2(m2, dict(t.coeffs))
    bad.coeffs[(1, 2)] = -bad.coeffs[(1, 2)]
    bad = Tensor2(m2, bad.coeffs)
    els, labels = basis_test_set(m2)
    report = defect_report(DiagonalNet([bad], els, 0, labels))
    assert not report.verdict
    assert any(row.d1 > 0 for row in report.all_rows())


def test_empty_net_rejected(m2):
    with pytest.raises(AlgebraError):
        defect_report(DiagonalNet([], [], 0))


def test_commutative_defect_collapse_single():
    table, labels = cyclic_group_table(3)
    A = group_algebra(table, labels)
    rng = random.Random(3)
    t = Tensor2(A, {(i, j): Fraction(rng.randint(-3, 3))
                    for i in range(3) for j in range(3)})
    for a in A.basis_elements():
        d1, d2, d3, d4 = defects(t, a)
        assert d1 == d3 and d2 == d4


# -- matrix diagonals ---------------------------------------------------------------

def test_matrix_diagonal_n1():
    t = matrix_diagonal(1)
    assert t.terms() == [(0, 0, 1)]


def test_matrix_diagonal_n2_shape(m2):
    t = matrix_diagonal(2, algebra=m2)
    half = Fraction(1, 2)
    assert t.coeffs == {(0, 0): half, (1, 2): half, (2, 1): half, (3, 3): half}
    assert t.is_symmetric()
    assert contract(t) == m2.unit_element()


def test_matrix_diagonal_norm_growth():
    for n in range(1, 5):
        assert proj_norm(matrix_diagonal(n)) == n


def test_matrix_diagonal_bad_n():
    with pytest.raises(ValueError):
        matrix_diagonal(0)



def test_matrix_diagonal_is_the_full_truncation(m3):
    for n in range(1, 5):
        A = matrix_algebra(n)
        t = matrix_diagonal(n, algebra=A)
        assert t == truncated_matrix_diagonal(n, n, algebra=A)
        assert list(t.coeffs.items()) == [
            ((matrix_unit_index(n, i, j), matrix_unit_index(n, j, i)), Fraction(1, n))
            for i in range(1, n + 1) for j in range(1, n + 1)]
    with pytest.raises(AlgebraError):
        matrix_diagonal(2, algebra=m3)

# -- truncated diagonals ---------------------------------------------------------

@pytest.fixture(scope="module")
def m6():
    return matrix_algebra(6)


def test_truncation_exact_inside_block(m6):
    t3 = truncated_matrix_diagonal(3, 6, algebra=m6)
    a = m6.element({matrix_unit_index(6, 1, 2): 4, matrix_unit_index(6, 3, 3): -1})
    assert max_defect(t3, a) == 0


def test_truncation_row_defect(m6):
    # column index m beyond the block: d1 = 1 until the block reaches m
    a = m6.element({matrix_unit_index(6, 1, 4): 1})
    for n in range(1, 7):
        tn = truncated_matrix_diagonal(n, 6, algebra=m6)
        d1 = defects(tn, a)[0]
        assert d1 == (1 if n < 4 else 0)


def test_truncation_d2_row_within_block(m6):
    # contract(t_n) = I_n acts as identity on rows <= n
    a = m6.element({matrix_unit_index(6, 1, 4): 1})
    for n in range(1, 7):
        tn = truncated_matrix_diagonal(n, 6, algebra=m6)
        assert defects(tn, a)[1] == 0


def test_truncation_tail_bound_random(m6):
    rng = random.Random(29)
    for _ in range(25):
        a = rand_sparse(rng, m6, rng.randint(1, 6))
        for n in range(1, 7):
            tn = truncated_matrix_diagonal(n, 6, algebra=m6)
            bound = tail_mass(a, n)
            assert max_defect(tn, a) <= bound
        r = support_block(a)
        if r:
            assert max_defect(truncated_matrix_diagonal(r, 6, algebra=m6), a) == 0


def test_truncation_block_expansions(m6):
    # the four block pieces of a test matrix interact with t_n as:
    #   A1 t = t A1,   A2 t = 0,   t A3 = 0,   A4 t = t A4 = 0
    rng = random.Random(31)
    n = 3
    tn = truncated_matrix_diagonal(n, 6, algebra=m6)
    for _ in range(10):
        M = [[Fraction(rng.randint(-2, 2)) for _ in range(6)] for _ in range(6)]
        blocks = {k: [[Fraction(0)] * 6 for _ in range(6)] for k in range(1, 5)}
        for i in range(6):
            for j in range(6):
                if i < n and j < n:
                    blocks[1][i][j] = M[i][j]
                elif i < n:
                    blocks[2][i][j] = M[i][j]
                elif j < n:
                    blocks[3][i][j] = M[i][j]
                else:
                    blocks[4][i][j] = M[i][j]
        a1, a2, a3, a4 = (element_from_dense(m6, blocks[k]) for k in (1, 2, 3, 4))
        assert left_action(a1, tn) == right_action(tn, a1)
        assert left_action(a2, tn).is_zero()
        assert right_action(tn, a3).is_zero()
        assert left_action(a4, tn).is_zero() and right_action(tn, a4).is_zero()


def test_truncation_monotone_after_support(m6):
    rng = random.Random(37)
    for _ in range(5):
        a = rand_sparse(rng, m6, 4)
        r = max(support_block(a), 1)
        vals = [max_defect(truncated_matrix_diagonal(n, 6, algebra=m6), a)
                for n in range(r, 7)]
        assert all(x == 0 for x in vals)


def test_truncation_bad_params():
    with pytest.raises(ValueError):
        truncated_matrix_diagonal(7, 6)


# -- group diagonals ------------------------------------------------------------

def test_c2_diagonal_shape():
    table, labels = cyclic_group_table(2)
    t = group_diagonal(table, labels)
    assert t.coeffs == {(0, 0): Fraction(1, 2), (1, 1): Fraction(1, 2)}
    assert t.is_symmetric()


def test_group_diagonals_exact():
    for table, labels in (cyclic_group_table(2), cyclic_group_table(4),
                          symmetric_group_table(3)):
        t = group_diagonal(table, labels)
        A = t.space
        assert t.is_symmetric()
        for a in A.basis_elements():
            assert max_defect(t, a) == 0


def test_group_diagonal_flip_is_inverse_reindexing():
    table, labels = symmetric_group_table(3)
    t = group_diagonal(table, labels)
    inv = t.space.meta["group_inverse"]
    reindexed = {(inv[g], inv[h]): c for (g, h), c in t.coeffs.items()}
    assert reindexed == flip(t).coeffs == t.coeffs


def test_group_diagonal_rejects_non_group():
    # no identity element
    from amlab import PresentationError
    with pytest.raises(PresentationError):
        group_diagonal([[1, 1], [1, 1]])


# -- direct sums ------------------------------------------------------------------

def test_direct_sum_exact(m2, m3):
    S = direct_sum_algebra([m2, m3])
    t = direct_sum_diagonal([matrix_diagonal(2, algebra=m2),
                             matrix_diagonal(3, algebra=m3)], ambient=S)
    assert t.is_symmetric()
    for a in S.basis_elements():
        assert max_defect(t, a) == 0


def test_direct_sum_defect_is_sum_of_block_defects(m2):
    # perturb each block; the sum's defect at a block-supported element equals
    # the block defect, and at a mixed element the sum of the block defects
    rng = random.Random(41)
    A = matrix_algebra(2)
    B = matrix_algebra(2)
    tA = matrix_diagonal(2, algebra=A) + elementary(
        A.element({"E12": Fraction(1, 7)}), A.element({"E12": Fraction(1, 1)}))
    tB = matrix_diagonal(2, algebra=B)
    S = direct_sum_algebra([A, B])
    ts = direct_sum_diagonal([(A, tA), (B, tB)], ambient=S)
    for _ in range(10):
        xa = rand_element(rng, A)
        xb = rand_element(rng, B)
        mixed = S.element({i: c for i, c in xa.coeffs.items()}
                          | {4 + i: c for i, c in xb.coeffs.items()})
        expect = [p + q for p, q in zip(defects(tA, xa), defects(tB, xb))]
        assert list(defects(ts, mixed)) == expect


def test_direct_sum_single_component_is_identity_embedding(m2):
    t = matrix_diagonal(2, algebra=m2)
    S = direct_sum_algebra([m2])
    ts = direct_sum_diagonal([t], ambient=S)
    assert ts.coeffs == t.coeffs


# -- pushforward --------------------------------------------------------------------

def test_pushforward_projection_recovers_block_diagonal(m2, m3):
    S = direct_sum_algebra([m2, m3])
    ts = direct_sum_diagonal([matrix_diagonal(2, algebra=m2),
                              matrix_diagonal(3, algebra=m3)], ambient=S)
    pushed = pushforward_diagonal(block_projection(S, 0), ts)
    assert pushed == matrix_diagonal(2, algebra=m2)
    assert pushed.is_symmetric()


def test_pushforward_identity(m2):
    t = matrix_diagonal(2, algebra=m2)
    assert pushforward_diagonal(LinearMap.identity(m2), t) == t


def test_pushforward_t2_quotient_compatibilities():
    # upper-triangular algebra onto its semisimple quotient (two scalar blocks)
    from amlab import AlgebraPresentation, contract_swapped
    T2 = upper_triangular_algebra(2)
    C2 = AlgebraPresentation(["f1", "f2"], {(0, 0): {0: 1}, (1, 1): {1: 1}},
                             unit=[1, 1], name="C^2")
    theta = LinearMap(T2, C2, [{0: 1}, {}, {1: 1}])   # E11->f1, E12->0, E22->f2
    rng = random.Random(43)
    for _ in range(10):
        t = Tensor2(T2, {(i, j): Fraction(rng.randint(-3, 3))
                         for i in range(3) for j in range(3)})
        pushed = pushforward_diagonal(theta, t)
        assert theta(contract(t)) == contract(pushed)
        assert theta(contract_swapped(t)) == contract_swapped(pushed)


def test_pushforward_structural_identities(m2, m3):
    S = direct_sum_algebra([m2, m3])
    theta = block_projection(S, 1)
    rng = random.Random(47)
    for _ in range(5):
        t = Tensor2(S, {(rng.randrange(13), rng.randrange(13)): Fraction(rng.randint(-3, 3))
                        for _ in range(8)})
        a = rand_element(rng, S)
        assert pushforward_diagonal(theta, left_action(a, t)) == \
            left_action(theta(a), pushforward_diagonal(theta, t))
        assert pushforward_diagonal(theta, opposite_right_action(t, a)) == \
            opposite_right_action(pushforward_diagonal(theta, t), theta(a))


def test_pushforward_rejects_non_hom(m2):
    from amlab import PresentationError
    bad = LinearMap(m2, m2, [{1: 1}, {0: 1}, {3: 1}, {2: 1}])
    with pytest.raises(PresentationError):
        pushforward_diagonal(bad, matrix_diagonal(2, algebra=m2))


def test_pushforward_bound(m2, m3):
    # projections have operator norm 1: pushed defects never exceed source defects
    S = direct_sum_algebra([m2, m3])
    theta = block_projection(S, 0)
    assert theta.op_norm() == 1
    rng = random.Random(53)
    base = direct_sum_diagonal([matrix_diagonal(2, algebra=m2),
                                matrix_diagonal(3, algebra=m3)], ambient=S)
    noise = Tensor2(S, {(rng.randrange(13), rng.randrange(13)): Fraction(1, 9)
                        for _ in range(5)})
    t = base + noise
    for _ in range(10):
        a = rand_element(rng, S)
        before = max_defect(t, a)
        after = max_defect(pushforward_diagonal(theta, t), theta(a))
        assert after <= max(theta.op_norm(), theta.op_norm() ** 2) * before


# -- ideal compression ------------------------------------------------------------

def test_ideal_with_unit_returns_t(m2):
    t = matrix_diagonal(2, algebra=m2)
    assert ideal_diagonal(t, m2.unit_element()) == t


def test_ideal_block_identity_extracts_block(m2):
    B = matrix_algebra(2)
    S = direct_sum_algebra([m2, B])
    ts = direct_sum_diagonal([matrix_diagonal(2, algebra=m2),
                              matrix_diagonal(2, algebra=B)], ambient=S)
    e = S.element({0: 1, 3: 1})  # unit of the first block
    m = ideal_diagonal(ts, e)
    expect = direct_sum_diagonal([matrix_diagonal(2, algebra=m2),
                                  Tensor2(B, {})], ambient=S)
    assert m.coeffs == expect.coeffs


def test_ideal_preserves_symmetry(m2):
    rng = random.Random(59)
    t = matrix_diagonal(2, algebra=m2)
    noise = elementary(rand_element(rng, m2), rand_element(rng, m2))
    sym = t + noise + flip(noise)
    assert sym.is_symmetric()
    e = rand_element(rng, m2)
    assert ideal_diagonal(sym, e).is_symmetric()


def test_ideal_compression_identities(m2):
    # a m - m a = [(a t - t a) o e] e + (t o e)(a e - e a)
    # contract(m) a = contract(e o t)(e a - a) + contract(e o (t a))
    rng = random.Random(61)
    for _ in range(10):
        t = Tensor2(m2, {(rng.randrange(4), rng.randrange(4)): Fraction(rng.randint(-3, 3))
                         for _ in range(6)})
        e = rand_element(rng, m2)
        a = rand_element(rng, m2)
        m = ideal_diagonal(t, e)
        lhs = left_action(a, m) - right_action(m, a)
        comm_t = left_action(a, t) - right_action(t, a)
        rhs = right_action(opposite_right_action(comm_t, e), e) + \
            right_action(opposite_right_action(t, e),
                         multiply(a, e) - multiply(e, a))
        assert lhs == rhs
        lhs2 = multiply(contract(m), a)
        rhs2 = multiply(contract(opposite_left_action(e, t)),
                        multiply(e, a) - a) + \
            contract(opposite_left_action(e, right_action(t, a)))
        assert lhs2 == rhs2


# -- unitized diagonals ------------------------------------------------------------

def test_unitized_diagonal_exact(m3):
    t = matrix_diagonal(3, algebra=m3)
    ts = unitized_diagonal(t)
    sharp = ts.space
    assert sharp.meta["unitized_from"] is m3
    assert ts.is_symmetric()
    assert contract(ts) == sharp.unit_element()
    for a in sharp.basis_elements():
        assert max_defect(ts, a) == 0


def test_unitized_diagonal_needs_unit():
    from amlab import AlgebraPresentation
    A = AlgebraPresentation(["n"], {})  # 1-dim zero product, no unit
    t = Tensor2(A, {(0, 0): Fraction(1)})
    with pytest.raises(AlgebraError):
        unitized_diagonal(t)


# -- abelian products ---------------------------------------------------------------

def test_abelian_product_diagonal_exact():
    table, labels = abelian_product_table([2, 3])
    t = group_diagonal(table, labels)
    for a in t.space.basis_elements():
        assert max_defect(t, a) == 0


# -- the trace-form diagonal ------------------------------------------------------------

def quaternions():
    """The quaternions (-1, -1) over Q: a division algebra, so no catalog shape."""
    signs = {(1, 2): (1, 3), (2, 3): (1, 1), (3, 1): (1, 2)}   # ij = k, jk = i, ki = j
    mul = {(0, q): {q: 1} for q in range(4)}
    mul.update({(q, 0): {q: 1} for q in range(1, 4)})
    mul.update({(q, q): {0: -1} for q in range(1, 4)})
    for (p, q), (s, r) in signs.items():
        mul[(p, q)] = {r: s}
        mul[(q, p)] = {r: -s}
    from amlab import AlgebraPresentation
    return AlgebraPresentation(["1", "i", "j", "k"], mul, unit={0: 1}, name="H")


def trace_form(A):
    """G_ij = tr(L_{b_i b_j}), with L the left regular representation, dense."""
    def trace_of_left(a):
        return sum(multiply(a, A.basis_element(m)).get(m) for m in range(A.dim))
    return [[trace_of_left(multiply(A.basis_element(i), A.basis_element(j)))
             for j in range(A.dim)] for i in range(A.dim)]


@pytest.mark.parametrize("n", [2, 3, 4])
def test_the_trace_form_diagonal_of_a_matrix_algebra_is_the_matrix_diagonal(n):
    A = matrix_algebra(n)
    t, radical = trace_form_diagonal(A)
    assert radical == []
    assert t.coeffs == matrix_diagonal(n, algebra=A).coeffs
    assert all(type(c) is Fraction for c in t.coeffs.values())


@pytest.mark.parametrize("n", [3, 4])
def test_the_trace_form_diagonal_of_a_group_algebra_is_the_group_diagonal(n):
    A = group_algebra(*symmetric_group_table(n))
    t, radical = trace_form_diagonal(A)
    assert radical == []
    assert t.coeffs == group_diagonal(None, algebra=A).coeffs


@pytest.mark.parametrize("n", [2, 3, 4])
def test_triangular_matrices_have_the_strictly_upper_radical(n):
    A = upper_triangular_algebra(n)
    t, radical = trace_form_diagonal(A)
    assert t is None
    assert len(radical) == n * (n - 1) // 2
    G = trace_form(A)
    for r in radical:
        assert all(sum(c * G[i][j] for i, c in r.coeffs.items()) == 0 for j in range(A.dim))
    # independent, as many as the strictly upper matrix units E_ij (i < j), and in their span
    upper = {A.labels.index(f"E{i}{j}") for i in range(1, n + 1) for j in range(i + 1, n + 1)}
    assert linalg.rank([r.coeffs for r in radical]) == len(radical)
    assert all(set(r.coeffs) <= upper for r in radical)


def test_the_dual_numbers_have_a_radical():
    from amlab import AlgebraPresentation
    A = AlgebraPresentation(["1", "x"], {(0, 0): {0: 1}, (0, 1): {1: 1},
                                         (1, 0): {1: 1}}, unit=[1, 0])
    t, radical = trace_form_diagonal(A)
    assert t is None
    assert [r.coeffs for r in radical] == [{1: Fraction(1)}]


def test_the_quaternions_over_q_have_an_exact_symmetric_diagonal():
    A = quaternions()
    t, radical = trace_form_diagonal(A)
    assert radical == []
    assert t.symmetry_defect() == 0
    assert contract(t) == A.unit_element()
    for a in A.basis_elements():
        assert defects(t, a) == (0, 0, 0, 0)
    # e^1 = 1/4 and e^q = -b_q/4: Omega = (1 (x) 1 - i (x) i - j (x) j - k (x) k) / 4
    assert t.coeffs == {(0, 0): Fraction(1, 4), (1, 1): Fraction(-1, 4),
                        (2, 2): Fraction(-1, 4), (3, 3): Fraction(-1, 4)}


def test_the_trace_form_diagonal_is_computed_in_rational_mode():
    with pytest.raises(AlgebraError):
        trace_form_diagonal(matrix_algebra(2, mode="float"))
