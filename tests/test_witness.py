"""Witness functionals and exact trace feasibility."""

import random
from fractions import Fraction

import pytest

from amlab import (AlgebraError, Functional, center, commutator,
                   contract_swapped, cyclic_group_table, group_algebra,
                   group_diagonal, left_action, linalg, matrix_algebra,
                   matrix_diagonal, right_action, symmetric_group_table,
                   trace_feasibility, upper_triangular_algebra,
                   witness_from_diagonal)

from amlab.witness import commutator_values
from oracles import sympy_rank


def rand_element(rng, algebra, lo=-3, hi=3):
    return algebra.element({i: Fraction(rng.randint(lo, hi))
                            for i in range(algebra.dim)})


def test_identity_is_feasible_with_normalized_trace(m2):
    res = trace_feasibility(m2, m2.unit_element())
    assert res.feasible
    assert res.functional.values == [Fraction(1, 2), 0, 0, Fraction(1, 2)]


def test_trace_zero_direction_infeasible(m2):
    z = m2.element({"E11": 1, "E22": -1})
    res = trace_feasibility(m2, z)
    assert not res.feasible
    rebuilt = m2.zero()
    for p, q, c in res.certificate:
        rebuilt = rebuilt + commutator(m2.basis_element(p), m2.basis_element(q)).scaled(c)
    assert rebuilt == z


def test_commutative_always_feasible():
    table, labels = cyclic_group_table(3)
    A = group_algebra(table, labels)
    rng = random.Random(3)
    for _ in range(10):
        z = rand_element(rng, A)
        if z.is_zero():
            continue
        res = trace_feasibility(A, z)
        assert res.feasible
        assert res.functional(z) == 1


def test_zero_z_rejected(m2):
    with pytest.raises(AlgebraError):
        trace_feasibility(m2, m2.zero())


def test_feasible_functional_soundness(m3):
    # kills commutators of random pairs, not only basis pairs
    rng = random.Random(5)
    res = trace_feasibility(m3, m3.unit_element())
    f = res.functional
    for _ in range(20):
        a, b = rand_element(rng, m3), rand_element(rng, m3)
        assert f(commutator(a, b)) == 0
    assert f(m3.unit_element()) == 1


def test_decision_matches_brute_force_membership():
    # the decision agrees with dense-rank membership of z in the commutator span
    rng = random.Random(7)
    algebras = [matrix_algebra(2), upper_triangular_algebra(2),
                group_algebra(*cyclic_group_table(3)[::1])]
    for A in algebras:
        gens = []
        for p in range(A.dim):
            for q in range(p + 1, A.dim):
                c = commutator(A.basis_element(p), A.basis_element(q))
                if c.coeffs:
                    gens.append(dict(c.coeffs))
        for _ in range(15):
            z = rand_element(rng, A)
            if z.is_zero():
                continue
            in_span = sympy_rank(gens + [dict(z.coeffs)], A.dim) == \
                sympy_rank(gens, A.dim)
            res = trace_feasibility(A, z)
            assert res.feasible == (not in_span)



def commutator_generators(A):
    pairs, gens = [], []
    for p in range(A.dim):
        for q in range(p + 1, A.dim):
            c = commutator(A.basis_element(p), A.basis_element(q))
            if c.coeffs:
                pairs.append((p, q))
                gens.append(dict(c.coeffs))
    return pairs, gens


def test_certificates_match_coordinates_of_every_candidate():
    # the answer of solving for coordinates whether or not z is in the span
    rng = random.Random(41)
    algebras = [matrix_algebra(3), upper_triangular_algebra(3),
                group_algebra(*symmetric_group_table(3)),
                group_algebra(*cyclic_group_table(4))]
    decisions = set()
    for A in algebras:
        pairs, gens = commutator_generators(A)
        candidates = [A.unit_element()] + [rand_element(rng, A) for _ in range(6)]
        candidates += [A.element(g) for g in gens[:6]]
        for z in candidates:
            if z.is_zero():
                continue
            coords = linalg.coordinates_in_span(gens, dict(z.coeffs))
            res = trace_feasibility(A, z)
            decisions.add(res.decision)
            if coords is None:
                assert res.feasible and res.certificate is None
            else:
                assert res.certificate == [(p, q, c) for (p, q), c in zip(pairs, coords)
                                           if c != 0]
    assert decisions == {"FEASIBLE", "INFEASIBLE"}


def ref_commutator_values(f):
    """Largest |f([b_p, b_q])|, each commutator built by Element multiplication."""
    space = f.space
    worst = space.scalar(0)
    for p in range(space.dim):
        for q in range(p + 1, space.dim):
            v = abs(f(commutator(space.basis_element(p), space.basis_element(q))))
            if v > worst:
                worst = v
    return worst


def test_commutator_values_equal_element_commutators():
    rng = random.Random(43)
    for mode in ("rational", "float"):
        for A in [matrix_algebra(3, mode=mode), upper_triangular_algebra(3, mode=mode),
                  group_algebra(*symmetric_group_table(3), mode=mode),
                  group_algebra(*cyclic_group_table(4), mode=mode)]:
            for _ in range(5):
                f = Functional(A, [Fraction(rng.randint(-9, 9), rng.randint(1, 9))
                                   for _ in range(A.dim)])
                got, want = commutator_values(f), ref_commutator_values(f)
                assert got == want and type(got) is type(want)


def test_feasible_answer_solves_no_coordinates(m3, monkeypatch):
    def refuse(*args):
        raise AssertionError("coordinates_in_span called for a feasible z")
    monkeypatch.setattr(linalg, "coordinates_in_span", refuse)
    assert trace_feasibility(m3, m3.unit_element()).feasible


def test_witness_identity_contract_swapped(m3):
    # contract_swapped(ab t) == contract_swapped(b t a), the key witness identity
    rng = random.Random(11)
    from amlab import Tensor2, multiply
    for _ in range(10):
        t = Tensor2(m3, {(rng.randrange(9), rng.randrange(9)): Fraction(rng.randint(-3, 3))
                         for _ in range(10)})
        a, b = rand_element(rng, m3), rand_element(rng, m3)
        lhs = contract_swapped(left_action(multiply(a, b), t))
        rhs = contract_swapped(right_action(left_action(b, t), a))
        assert lhs == rhs


def test_witness_from_diagonal_reproduces_half_trace(m2):
    t = matrix_diagonal(2, algebra=m2)
    g = Functional(m2, [1, 0, 0, 0])  # evaluation of the (1,1) entry
    rep = witness_from_diagonal(t, m2.unit_element(), g)
    assert rep.functional.values == [Fraction(1, 2), 0, 0, Fraction(1, 2)]
    assert rep.commutator_defect == 0
    assert rep.unit_residual == 0
    assert not rep.normalized


def test_witness_from_diagonal_normalizes(m2):
    t = matrix_diagonal(2, algebra=m2)
    g = Functional(m2, [3, 0, 0, 0])  # g(I) = 3, rescaled internally
    rep = witness_from_diagonal(t, m2.unit_element(), g)
    assert rep.normalized
    assert rep.functional(m2.unit_element()) == 1


def test_witness_from_diagonal_rejects_annihilating_seed(m2):
    t = matrix_diagonal(2, algebra=m2)
    g = Functional(m2, [0, 1, 0, 0])  # g(I) = 0
    with pytest.raises(AlgebraError):
        witness_from_diagonal(t, m2.unit_element(), g)


def test_witness_on_group_algebra():
    table, labels = cyclic_group_table(4)
    t = group_diagonal(table, labels)
    A = t.space
    z = A.unit_element()
    g = Functional(A, [1, 0, 0, 0])
    rep = witness_from_diagonal(t, z, g)
    assert rep.commutator_defect == 0
    assert rep.unit_residual == 0


def test_exact_diagonal_central_z_feasible(m2, m3):
    # a nonzero central element of an algebra carrying an exact symmetric
    # diagonal always admits a witness
    for A in (m2, m3):
        for z in center(A):
            if not z.is_zero():
                assert trace_feasibility(A, z).feasible
