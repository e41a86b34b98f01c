"""Two-leg tensors: actions, flip, contractions, projective norm."""

import random
from fractions import Fraction

import pytest

from amlab import (AlgebraError, AlgebraPresentation, Element, LinearMap, Tensor2,
                   block_projection, contract, contract_swapped, defects,
                   direct_sum_algebra, elementary, flip, group_algebra, left_action,
                   linalg, matrix_algebra, matrix_diagonal, multiply, norm,
                   opposite_left_action, opposite_right_action, proj_norm,
                   pushforward_diagonal, right_action, symmetric_group_table, unitize,
                   zero_tensor)


def rand_element(rng, algebra, lo=-3, hi=3):
    return algebra.element({i: Fraction(rng.randint(lo, hi))
                            for i in range(algebra.dim)})


def rand_tensor(rng, algebra, lo=-3, hi=3):
    return Tensor2(algebra, {(i, j): Fraction(rng.randint(lo, hi))
                             for i in range(algebra.dim)
                             for j in range(algebra.dim)
                             if rng.random() < 0.5 and rng.randint(lo, hi)})


def unit_tensor(algebra, li, lj):
    return elementary(algebra.element({li: 1}), algebra.element({lj: 1}))


# -- actions -------------------------------------------------------------------

def test_left_and_right_action_on_matrix_diagonal(m2):
    t = matrix_diagonal(2, algebra=m2)
    E11 = m2.element({"E11": 1})
    half = Fraction(1, 2)
    expect = Tensor2(m2, {(0, 0): half, (1, 2): half})  # (E11 x E11) + (E12 x E21)
    assert left_action(E11, t) == expect
    assert right_action(t, E11) == expect


def test_zero_action(m2):
    t = matrix_diagonal(2, algebra=m2)
    assert left_action(m2.zero(), t).is_zero()


def test_opposite_actions_matrix_units(m2):
    t = unit_tensor(m2, "E12", "E21")
    E11 = m2.element({"E11": 1})
    E22 = m2.element({"E22": 1})
    # a o (b x c) = b x ac: E12 x (E11 E21) = 0
    assert opposite_left_action(E11, t).is_zero()
    # (b x c) o a = ba x c: (E12 E22) x E21 = E12 x E21
    assert opposite_right_action(t, E22) == t


def test_unit_fixes_tensor_under_opposite_actions(m2):
    sharp = unitize(m2)
    rng = random.Random(3)
    t = rand_tensor(rng, sharp)
    e = sharp.unit_element()
    assert opposite_left_action(e, t) == t
    assert opposite_right_action(t, e) == t


def test_action_rejects_foreign_element(m2, m3):
    t = matrix_diagonal(2, algebra=m2)
    with pytest.raises(AlgebraError):
        left_action(m3.element({"E11": 1}), t)


# -- flip ------------------------------------------------------------------------

def test_flip_elementary(m2):
    assert flip(unit_tensor(m2, "E12", "E21")) == unit_tensor(m2, "E21", "E12")


def test_matrix_diagonal_is_flip_fixed(m2):
    t = matrix_diagonal(2, algebra=m2)
    assert flip(t) == t
    assert t.is_symmetric()


def test_flip_involution(m2):
    rng = random.Random(5)
    t = rand_tensor(rng, m2)
    assert flip(flip(t)) == t


# -- contractions ----------------------------------------------------------------

def test_contract_matrix_diagonal(m2):
    t = matrix_diagonal(2, algebra=m2)
    assert contract(t) == m2.unit_element()


def test_contract_swapped_matrix_units(m2):
    t = unit_tensor(m2, "E12", "E21")
    assert contract_swapped(t) == m2.element({"E22": 1})


def test_contract_zero(m2):
    assert contract(zero_tensor(m2)).is_zero()


def test_contract_swapped_is_contract_after_flip(m2):
    rng = random.Random(7)
    for _ in range(10):
        t = rand_tensor(rng, m2)
        assert contract_swapped(t) == contract(flip(t))
        if t.is_symmetric():
            assert contract_swapped(t) == contract(t)


def test_symmetric_tensor_contractions_agree(m2):
    rng = random.Random(9)
    t = rand_tensor(rng, m2)
    sym = t + flip(t)
    assert contract_swapped(sym) == contract(sym)


# -- projective norm ---------------------------------------------------------------

def test_proj_norm_matrix_diagonal(m2):
    assert proj_norm(matrix_diagonal(2, algebra=m2)) == 2


def test_proj_norm_elementary_factorizes(m2):
    rng = random.Random(11)
    for _ in range(10):
        a, b = rand_element(rng, m2), rand_element(rng, m2)
        assert proj_norm(elementary(a, b)) == norm(a) * norm(b)


def test_proj_norm_zero(m2):
    assert proj_norm(zero_tensor(m2)) == 0


def test_proj_norm_uses_weights():
    from amlab import AlgebraPresentation
    A = AlgebraPresentation(["p", "q"], {(0, 0): {0: 1}}, weights=[2, 3])
    t = Tensor2(A, {(0, 1): Fraction(1, 2)})
    assert proj_norm(t) == 3


# -- structural identities ---------------------------------------------------------

def test_flip_compatibility(m2):
    # a o flip(t) = flip(a t) and flip(t) o a = flip(t a)
    rng = random.Random(13)
    for _ in range(10):
        a, t = rand_element(rng, m2), rand_tensor(rng, m2)
        assert opposite_left_action(a, flip(t)) == flip(left_action(a, t))
        assert opposite_right_action(flip(t), a) == flip(right_action(t, a))


def test_contract_is_module_morphism(m2):
    rng = random.Random(17)
    for _ in range(10):
        a, t = rand_element(rng, m2), rand_tensor(rng, m2)
        assert contract(left_action(a, t)) == multiply(a, contract(t))
        assert contract(right_action(t, a)) == multiply(contract(t), a)


def test_action_norm_contractive(m3):
    rng = random.Random(19)
    for _ in range(10):
        a, t = rand_element(rng, m3), rand_tensor(rng, m3)
        na, nt = norm(a), proj_norm(t)
        assert proj_norm(left_action(a, t)) <= na * nt
        assert proj_norm(right_action(t, a)) <= na * nt
        assert proj_norm(opposite_left_action(a, t)) <= na * nt
        assert proj_norm(opposite_right_action(t, a)) <= na * nt


def test_operator_sugar(m2):
    rng = random.Random(23)
    a, t = rand_element(rng, m2), rand_tensor(rng, m2)
    assert a * t == left_action(a, t)
    assert t * a == right_action(t, a)
    assert 2 * t == t + t
    assert (t - t).is_zero()


# -- the accumulate loops against the ones they replaced ----------------------------------

# The loops as they were before they went through linalg.vec_add_scaled: each entry
# accumulated into out by hand and popped when it reaches zero.

def ref_act(a, t, leg, side):
    space = t.space
    out = {}
    for (l, r), ct in t.coeffs.items():
        target = l if leg == 0 else r
        for i, ca in a.coeffs.items():
            row = space.product_indices(i, target) if side == "l" else \
                space.product_indices(target, i)
            if not row:
                continue
            c = ca * ct
            for k, ck in row.items():
                key = (k, r) if leg == 0 else (l, k)
                v = out.get(key, 0) + c * ck
                if v == 0:
                    out.pop(key, None)
                else:
                    out[key] = v
    return out


def ref_from_terms(space, terms):
    out = {}
    for i, j, c in terms:
        c = space.scalar(c)
        if c != 0:
            v = out.get((i, j), 0) + c
            if v == 0:
                out.pop((i, j), None)
            else:
                out[(i, j)] = v
    return out


def ref_pushforward(theta, t):
    out = {}
    for (i, j), c in t.coeffs.items():
        for k, ck in theta.images[i].items():
            for l, cl in theta.images[j].items():
                v = out.get((k, l), 0) + c * ck * cl
                if v == 0:
                    out.pop((k, l), None)
                else:
                    out[(k, l)] = v
    return out


# each leg action as f(a, t), with the leg and side of the reference loops
LEG_ACTIONS = [(lambda a, t: left_action(a, t), 0, "l"),
               (lambda a, t: right_action(t, a), 1, "r"),
               (lambda a, t: opposite_left_action(a, t), 1, "l"),
               (lambda a, t: opposite_right_action(t, a), 0, "r")]


def same_table(got, want, mode):
    assert list(got.items()) == list(want.items())
    assert all(type(c) is (Fraction if mode == "rational" else float) for c in got.values())


def rand_fraction(rng):
    return Fraction(rng.randint(-5, 5), rng.randint(1, 4))


def on_new_basis(A):
    """A on the basis f_k = b_k + b_{k+1} (f_{d-1} = b_{d-1}), whose products
    have several entries."""
    d = A.dim

    def in_f(vec):  # b_k = f_k - f_{k+1} + f_{k+2} - ...
        out = {}
        for k, c in vec.items():
            for m in range(k, d):
                out[m] = out.get(m, 0) + (-1) ** (m - k) * c
        return {m: c for m, c in out.items() if c}

    f = [A.element({k: 1, k + 1: 1} if k + 1 < d else {k: 1}) for k in range(d)]
    mul = {(i, j): in_f(multiply(f[i], f[j]).coeffs) for i in range(d) for j in range(d)}
    return AlgebraPresentation([f"f{k}" for k in range(d)], mul, mode=A.mode)


@pytest.mark.parametrize("mode", ["rational", "float"])
def test_tensor_loops_match_the_hand_accumulated_reference(mode):
    rng = random.Random(61)
    m2, m3 = matrix_algebra(2, mode=mode), matrix_algebra(3, mode=mode)
    s3 = group_algebra(*symmetric_group_table(3), mode=mode)
    for A in (m3, s3, unitize(s3), on_new_basis(m3)):
        for _ in range(4):
            a = A.element({i: rand_fraction(rng) for i in range(A.dim) if rng.random() < 0.5})
            t = Tensor2(A, {(rng.randrange(A.dim), rng.randrange(A.dim)): rand_fraction(rng)
                            for _ in range(12)})
            for action, leg, side in LEG_ACTIONS:
                same_table(action(a, t).coeffs, ref_act(a, t, leg, side), mode)
            # repeated pairs, one of them cancelling to zero and coming back
            terms = [(rng.randrange(A.dim), rng.randrange(A.dim), rand_fraction(rng))
                     for _ in range(10)]
            terms += [(0, 1, 2), (1, 0, 3), (0, 1, -2), (0, 1, 5), (2, 2, 0)]
            same_table(Tensor2.from_terms(A, terms).coeffs, ref_from_terms(A, terms), mode)
            b = A.element({i: rand_fraction(rng) for i in range(A.dim) if rng.random() < 0.5})
            same_table(elementary(a, b).coeffs,
                       {(i, j): ci * cj for i, ci in a.coeffs.items()
                        for j, cj in b.coeffs.items()}, mode)
    # block projections, and conjugation by u = 1 + E12 on M2, whose images have
    # several entries
    S = direct_sum_algebra([m2, m3])
    u, u_inv = m2.element({0: 1, 1: 1, 3: 1}), m2.element({0: 1, 1: -1, 3: 1})
    conjugation = LinearMap(m2, m2, [dict(multiply(multiply(u, b), u_inv).coeffs)
                                     for b in m2.basis_elements()])
    for theta in (block_projection(S, 0), block_projection(S, 1), conjugation):
        A = theta.domain
        t = Tensor2(A, {(rng.randrange(A.dim), rng.randrange(A.dim)): rand_fraction(rng)
                        for _ in range(20)})
        same_table(pushforward_diagonal(theta, t).coeffs, ref_pushforward(theta, t), mode)


# -- the leg actions on integer_tables and the flips against the Fraction-row loops ---------

# One loop for all four leg actions, reading the Fraction (or float) rows of
# product_indices, and a contraction loop of its own for contract_swapped: the code
# the two integer leg actions and the flips replaced.

def fraction_row_act(a, t, leg, side):
    space = t.space
    out = {}
    for (l, r), ct in t.coeffs.items():
        target = l if leg == 0 else r
        for i, ca in a.coeffs.items():
            row = space.product_indices(i, target) if side == "l" else \
                space.product_indices(target, i)
            if row:
                linalg.vec_add_scaled(out, {((k, r) if leg == 0 else (l, k)): ck
                                            for k, ck in row.items()}, ca * ct)
    return Tensor2(space, out)


def fraction_row_contract_swapped(t):
    out = {}
    for (i, j), c in t.coeffs.items():
        row = t.space.product_indices(j, i)
        if row:
            linalg.vec_add_scaled(out, row, c)
    return Element(t.space, out)


def fraction_row_defects(t, a):
    d1 = (fraction_row_act(a, t, 0, "l") - fraction_row_act(a, t, 1, "r")).proj_norm()
    d2 = (multiply(contract(t), a) - a).norm()
    d3 = (fraction_row_act(a, t, 1, "l") - fraction_row_act(a, t, 0, "r")).proj_norm()
    d4 = (multiply(a, fraction_row_contract_swapped(t)) - a).norm()
    return d1, d2, d3, d4


def bit_for_bit(got, want):
    """Same keys in the same order, and values of the same type and repr: a float's
    repr is exact, so this is bit identity in float mode."""
    assert list(got) == list(want)
    assert [(type(c), repr(c)) for c in got.values()] == \
        [(type(c), repr(c)) for c in want.values()]


def weighted(A, weights=(1.5, 2.25, Fraction(1, 3))):
    """A with non-unit weights, under which a norm's last bit depends on the
    order of its products in float mode."""
    return AlgebraPresentation(A.labels, A.mul, [weights[k % 3] for k in range(A.dim)],
                               A.unit, A.mode)


def leg_action_cases(mode, rng):
    m3 = matrix_algebra(3, mode=mode)
    s3 = group_algebra(*symmetric_group_table(3), mode=mode)
    algebras = [m3, s3, unitize(m3), unitize(s3), direct_sum_algebra([m3, s3]),
                on_new_basis(m3)]
    for A in algebras + [weighted(A) for A in algebras]:
        for _ in range(6):
            a = A.element({i: rand_fraction(rng) for i in range(A.dim) if rng.random() < 0.5})
            t = Tensor2(A, {(rng.randrange(A.dim), rng.randrange(A.dim)): rand_fraction(rng)
                            for _ in range(12)})
            yield a, t


@pytest.mark.parametrize("mode", ["rational", "float"])
def test_leg_actions_and_flips_match_the_fraction_row_loops(mode):
    for a, t in leg_action_cases(mode, random.Random(67)):
        for action, leg, side in LEG_ACTIONS:
            bit_for_bit(action(a, t).coeffs, fraction_row_act(a, t, leg, side).coeffs)
        bit_for_bit(contract_swapped(t).coeffs, fraction_row_contract_swapped(t).coeffs)
        bit_for_bit(dict(enumerate(defects(t, a))), dict(enumerate(fraction_row_defects(t, a))))


@pytest.mark.parametrize("mode", ["rational", "float"])
def test_leg_actions_read_no_product_indices(mode, monkeypatch):
    cases = list(leg_action_cases(mode, random.Random(71)))
    want = [[fraction_row_act(a, t, leg, side) for _, leg, side in LEG_ACTIONS]
            for a, t in cases]

    def refuse(self, i, j):
        raise AssertionError("the leg actions read integer_tables, not product_indices")

    monkeypatch.setattr(AlgebraPresentation, "product_indices", refuse)
    for (a, t), expected in zip(cases, want):
        assert [action(a, t) for action, _, _ in LEG_ACTIONS] == expected
