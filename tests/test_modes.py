"""One exact-vs-float rule: BasisSpace.eps against the per-mode tests it replaced.

The ref_* functions are the zero tests each class used to work out for
itself from the mode: emptiness or equality in rational mode, weighted
norm <= tol in float mode.  The library now asks one question everywhere,
"weighted norm <= eps", and these references check that the answers did
not move in either mode, at tol 0 included.
"""

import json
import random
from fractions import Fraction

import pytest

from amlab import (FLOAT, RATIONAL, AlgebraPresentation, Tensor2, flip,
                   group_diagonal, matrix_algebra, matrix_diagonal,
                   regular_bimodule, serialize, truncated_matrix_diagonal)
from amlab.diagonals import tail_mass
from amlab.cli import main


def ref_eps(space):
    return 0 if space.mode == RATIONAL else space.tol


def ref_is_zero_scalar(space, x):
    if space.mode == RATIONAL:
        return x == 0
    return abs(x) <= space.tol


def ref_vec_small(space, vec):
    if space.mode == RATIONAL:
        return not vec
    return sum(abs(c) * space.weights[k] for k, c in vec.items()) <= space.tol


def ref_element_is_zero(a):
    if a.space.mode == RATIONAL:
        return not a.coeffs
    return a.norm() <= a.space.tol


def ref_tensor_is_zero(t):
    if t.space.mode == RATIONAL:
        return not t.coeffs
    return t.proj_norm() <= t.space.tol


def ref_tensor_is_symmetric(t):
    if t.space.mode == RATIONAL:
        return all(t.coeffs.get((j, i)) == c for (i, j), c in t.coeffs.items())
    return t.symmetry_defect() <= t.space.tol


WEIGHTS = [Fraction(1, 2), 3, Fraction(5, 7)]


def spaces():
    """M2 and a weighted three-dimensional algebra with zero product, in every mode."""
    out = []
    for mode, tol in [(RATIONAL, 1e-9), (FLOAT, 1e-9), (FLOAT, 1e-3), (FLOAT, 0.0)]:
        out.append(matrix_algebra(2, mode=mode, tol=tol))
        out.append(AlgebraPresentation(["x", "y", "z"], {}, WEIGHTS, mode=mode, tol=tol))
    return out


SPACES = spaces()
IDS = [f"{A.dim}-dim-{A.mode}-tol{A.tol:g}" for A in SPACES]


def near_tol(space, weight, rng):
    """Coefficients whose weighted size is zero, nonzero, or just under/over tol."""
    tol = space.tol
    out = [0, Fraction(rng.randint(1, 9), rng.randint(1, 9)), -rng.randint(1, 5)]
    if tol:
        out += [0.9 * tol / weight, 1.1 * tol / weight, -0.5 * tol / weight]
    out += [1e-300, 5e-324]
    return out


@pytest.mark.parametrize("space", SPACES, ids=IDS)
def test_eps_is_exact_zero_in_rational_mode_and_tol_in_float_mode(space):
    assert space.eps == ref_eps(space)
    if space.mode == RATIONAL:
        assert type(space.eps) is Fraction
    else:
        assert space.eps is space.tol
    assert regular_bimodule(space).eps == space.eps


@pytest.mark.parametrize("space", SPACES, ids=IDS)
def test_scalar_and_vector_zero_tests_match_the_per_mode_references(space):
    rng = random.Random(3)
    for k in range(space.dim):
        w = float(space.weights[k])
        for c in near_tol(space, w, rng):
            x = space.scalar(c)
            assert space.is_zero_scalar(x) == ref_is_zero_scalar(space, x), (k, c)
            vec = {k: x} if x != 0 else {}
            assert space._vec_small(vec) == ref_vec_small(space, vec), (k, c)
            a = space.element({k: c})
            assert a.is_zero() == ref_element_is_zero(a), (k, c)
    for _ in range(200):
        coeffs = {k: rng.choice(near_tol(space, float(space.weights[k]), rng))
                  for k in range(space.dim) if rng.random() < 0.6}
        a = space.element(coeffs)
        assert a.is_zero() == ref_element_is_zero(a), coeffs
        assert space._vec_small(a.coeffs) == ref_vec_small(space, a.coeffs), coeffs


def rand_tensor(space, rng, symmetric):
    coeffs = {}
    for i in range(space.dim):
        for j in range(i, space.dim):
            if rng.random() < 0.5:
                continue
            w = float(space.weights[i] * space.weights[j])
            c = rng.choice(near_tol(space, w, rng))
            coeffs[(i, j)] = c
            if symmetric:
                coeffs[(j, i)] = c
            elif rng.random() < 0.5:
                coeffs[(j, i)] = rng.choice(near_tol(space, w, rng))
    return Tensor2(space, coeffs)


@pytest.mark.parametrize("space", SPACES, ids=IDS)
def test_tensor_zero_and_symmetry_tests_match_the_per_mode_references(space):
    rng = random.Random(5)
    seen = set()
    for n in range(300):
        t = rand_tensor(space, rng, symmetric=n % 3 == 0)
        assert t.is_zero() == ref_tensor_is_zero(t), t.coeffs
        assert t.is_symmetric() == ref_tensor_is_symmetric(t), t.coeffs
        assert flip(t).is_symmetric() == t.is_symmetric()
        seen.add((t.is_zero(), t.is_symmetric()))
    assert {(True, True), (False, True), (False, False)} <= seen


@pytest.mark.parametrize("space", SPACES, ids=IDS)
def test_asymmetry_just_under_and_over_tol(space):
    w = space.weights[0] * space.weights[1]
    for factor, below in [(0.4, True), (0.6, False)]:
        # t - flip(t) holds d at (0, 1) and at (1, 0): defect 2 |d| w
        d = factor * space.tol / float(w) if space.tol else 2.0 ** -52
        t = Tensor2(space, {(0, 1): 1, (1, 0): 1 + d})
        assert t.is_symmetric() == ref_tensor_is_symmetric(t)
        assert t.is_symmetric() is (below and space.mode == FLOAT and space.tol > 0)


def test_rational_decompose_jordan_report_reads_tolerance_zero(tmp_path, capsys):
    m2 = tmp_path / "M2.json"
    m2.write_text(json.dumps(serialize.algebra_to_dict(matrix_algebra(2))))
    zero = tmp_path / "D.json"
    zero.write_text(json.dumps({"matrix": [["0"] * 4 for _ in range(4)]}))
    t = tmp_path / "t.json"
    assert main(["build-diagonal", "matrix", "2", "--out", str(t)]) == 0
    capsys.readouterr()
    for mode, tolerance in [(RATIONAL, "0"), (FLOAT, 1e-9)]:
        assert main(["--mode", mode, "decompose-jordan", str(m2), "regular",
                     str(zero), str(t)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["diagonal"]["tolerance"] == tolerance


def test_diagonal_constructors_build_their_algebra_in_the_given_mode():
    c2 = [[0, 1], [1, 0]]
    for mode in (None, RATIONAL, FLOAT):
        kw = {} if mode is None else {"mode": mode}
        for t in (matrix_diagonal(2, **kw), truncated_matrix_diagonal(1, 2, **kw),
                  group_diagonal(c2, **kw)):
            assert t.space.mode == (mode or RATIONAL)
            assert t.space.eps == (0 if t.space.mode == RATIONAL else t.space.tol)
    # mode stays a positional parameter after the algebra
    assert matrix_diagonal(2, None, FLOAT).space.mode == FLOAT
    assert group_diagonal(c2, None, None, FLOAT).space.mode == FLOAT


@pytest.mark.parametrize("mode", [RATIONAL, FLOAT])
def test_empty_norms_are_zero_of_the_mode_type(mode):
    A = matrix_algebra(3, mode=mode)
    zero = Fraction(0) if mode == RATIONAL else 0.0
    inside = A.element({0: 2, 4: -1})     # E11 and E22, inside the top-left 2-by-2 block
    for value in (A.zero().norm(), Tensor2(A, {}).proj_norm(), tail_mass(inside, 2)):
        assert value == zero and type(value) is type(zero)
    assert type(tail_mass(inside, 1)) is type(zero)
