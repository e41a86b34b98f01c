"""Presentation validation against a plain-Fraction reference.

The library checks associativity and the module laws on tables whose
denominators are cleared once (ints in rational mode).  The references
here multiply basis vectors in Fractions over every basis triple, with no
shortcut, and the tests compare verdicts, the triples visited and the
triple an error names.
"""

import json
import math
import re
from fractions import Fraction

import pytest

from amlab import (AlgebraPresentation, BimodulePresentation, group_algebra,
                   matrix_algebra, serialize)
from amlab.algebra import PresentationError
from amlab.catalog import cyclic_group_table, symmetric_group_table
from amlab.cli import main
from amlab.scalars import FLOAT, RATIONAL, SchemaError, clear_denominators


def times(table, u, v):
    """sum u_i v_j table[(i, j)] in Fractions, zeros dropped."""
    out = {}
    for i, a in u.items():
        for j, b in v.items():
            for k, c in table.get((i, j), {}).items():
                out[k] = out.get(k, 0) + Fraction(a) * Fraction(b) * Fraction(c)
    return {k: x for k, x in out.items() if x}


def associativity_failures(dim, mul):
    """Every basis triple (i, j, k) with (b_i b_j) b_k != b_i (b_j b_k)."""
    e = [{i: 1} for i in range(dim)]
    return {(i, j, k) for i in range(dim) for j in range(dim) for k in range(dim)
            if times(mul, times(mul, e[i], e[j]), e[k])
            != times(mul, e[i], times(mul, e[j], e[k]))}


def module_law_failures(alg_dim, mod_dim, mul, left, right):
    """Every failing law as (law, indices in the order the error message names them)."""
    e = [{i: 1} for i in range(alg_dim)]
    x = [{k: 1} for k in range(mod_dim)]
    out = set()
    for i in range(alg_dim):
        for j in range(alg_dim):
            ab = times(mul, e[i], e[j])
            for k in range(mod_dim):
                if times(left, ab, x[k]) != times(left, e[i], times(left, e[j], x[k])):
                    out.add(("left", i, j, k))
                if times(right, x[k], ab) != times(right, times(right, x[k], e[i]), e[j]):
                    out.add(("right", k, i, j))
                if (times(right, times(left, e[i], x[k]), e[j])
                        != times(left, e[i], times(right, x[k], e[j]))):
                    out.add(("mixed", i, k, j))
    return out


def rescaled_mul(algebra, s):
    """Constants of the same algebra on the basis s_i b_i."""
    return {(i, j): {k: c * s[i] * s[j] / s[k] for k, c in row.items()}
            for (i, j), row in algebra.mul.items()}


def shifted(mul, delta):
    """mul with its first constant moved by delta."""
    out = {key: dict(row) for key, row in mul.items()}
    key = min(out)
    k = min(out[key])
    out[key][k] += delta
    return out


def named_triple(labels, message):
    names = re.search(r"basis triple \((.*)\)$", message).group(1).split(", ")
    return tuple(labels.index(name) for name in names)


ALGEBRAS = {
    "M2": lambda: matrix_algebra(2),
    "M3": lambda: matrix_algebra(3),
    "S3": lambda: group_algebra(*symmetric_group_table(3)),
    "C4": lambda: group_algebra(*cyclic_group_table(4)),
}
SCALES = {
    "10": lambda i: Fraction(10) ** (i % 2),
    "1/3": lambda i: Fraction(1, 3) ** (i % 2),
}
CASES = [(a, s) for a in ALGEBRAS for s in SCALES]


def case(algebra, scale):
    A = ALGEBRAS[algebra]()
    return A.labels, rescaled_mul(A, [SCALES[scale](i) for i in range(A.dim)])


@pytest.mark.parametrize("algebra,scale", CASES)
@pytest.mark.parametrize("mode", [RATIONAL, FLOAT])
def test_rescaled_presentations_are_accepted(algebra, scale, mode):
    labels, mul = case(algebra, scale)
    assert associativity_failures(len(labels), mul) == set()
    AlgebraPresentation(labels, mul, mode=mode)


@pytest.mark.parametrize("algebra,scale", CASES)
def test_a_constant_moved_by_1e_12(algebra, scale):
    labels, mul = case(algebra, scale)
    delta = Fraction(1, 10 ** 12)
    moved = shifted(mul, delta)
    failures = associativity_failures(len(labels), moved)
    assert failures
    with pytest.raises(PresentationError) as info:
        AlgebraPresentation(labels, moved)
    assert named_triple(labels, str(info.value)) in failures
    # rational mode is exact: a move no float can resolve is still seen
    with pytest.raises(PresentationError):
        AlgebraPresentation(labels, shifted(mul, delta ** 3))
    # below the float tolerance the move is accepted, above it rejected
    AlgebraPresentation(labels, moved, mode=FLOAT, tol=1e-9)
    moved = shifted(mul, delta * 10 ** 6)
    with pytest.raises(PresentationError) as info:
        AlgebraPresentation(labels, moved, mode=FLOAT, tol=1e-9)
    assert named_triple(labels, str(info.value)) in associativity_failures(len(labels), moved)


def test_a_failure_only_the_second_pass_sees():
    # a b = b and nothing else: (a a) b = 0 but a (a b) = b, and (a, a) is not in the table
    labels, mul = ("a", "b"), {(0, 1): {1: 1}}
    assert associativity_failures(2, mul) == {(0, 0, 1)}
    for mode in (RATIONAL, FLOAT):
        with pytest.raises(PresentationError, match=r"triple \(a, a, b\)$"):
            AlgebraPresentation(labels, mul, mode=mode)


@pytest.mark.parametrize("algebra", ["M2", "S3"])
def test_every_triple_with_a_nonzero_side_is_visited_once(algebra, monkeypatch):
    labels, mul = case(algebra, "1/3")
    visited = []
    original = AlgebraPresentation._check_triple
    monkeypatch.setattr(AlgebraPresentation, "_check_triple",
                        lambda self, i, j, k: visited.append((i, j, k)) or original(self, i, j, k))
    AlgebraPresentation(labels, mul)
    d = len(labels)
    assert sorted(visited) == sorted(
        (i, j, k) for i in range(d) for j in range(d) for k in range(d)
        if (i, j) in mul or (j, k) in mul)


def test_clear_denominators_scales_every_table_by_one_lcm():
    a = {(0, 0): {0: Fraction(1, 2), 1: Fraction(3)}}
    b = {(0, 1): {1: Fraction(-5, 3)}}
    scale, ca, cb = clear_denominators(RATIONAL, a, b)
    assert scale == 6
    assert ca == {(0, 0): {0: 3, 1: 18}} and cb == {(0, 1): {1: -10}}
    assert all(type(c) is int for t in (ca, cb) for row in t.values() for c in row.values())
    assert clear_denominators(RATIONAL, [a[(0, 0)]], b) == (6, [{0: 3, 1: 18}], cb)
    assert clear_denominators(FLOAT, a, b) == (1, a, b)


@pytest.mark.parametrize("mode", [RATIONAL, FLOAT])
def test_a_group_algebra_is_built_on_the_group_tables_proof(mode, monkeypatch):
    # validate_group_table proves associativity, the unit and inverses; one-term
    # rows of unit weight are submultiplicative, so nothing is left to validate
    for table, labels in (symmetric_group_table(3), symmetric_group_table(4),
                          cyclic_group_table(5)):
        visited = []
        original = AlgebraPresentation._check_triple
        monkeypatch.setattr(AlgebraPresentation, "_check_triple",
                            lambda self, i, j, k: visited.append(1) or original(self, i, j, k))
        G = group_algebra(table, labels, mode=mode)
        assert not visited
        monkeypatch.undo()
        validated = AlgebraPresentation(G.labels, G.mul, G.weights, G.unit, mode=mode)
        assert G.structurally_equal(validated)
        assert (G.warnings, G.submultiplicative) == (validated.warnings, True)


def test_a_non_associative_group_table_is_still_rejected():
    with pytest.raises(PresentationError, match="group table is not associative"):
        group_algebra([[1, 0], [0, 0]])


@pytest.mark.parametrize("index", [True, False])
def test_a_boolean_is_not_a_basis_index(index):
    A = matrix_algebra(2)
    with pytest.raises(SchemaError, match="basis index"):
        A.element({index: 1})
    with pytest.raises(SchemaError, match="basis index"):
        AlgebraPresentation(["a", "b"], {(index, 0): {0: 1}})
    with pytest.raises(PresentationError, match="square table of indices"):
        group_algebra([[index]])


@pytest.mark.parametrize("tol", [-1, math.nan, math.inf, -math.inf])
def test_bad_tolerance_is_a_schema_error(tol):
    with pytest.raises(SchemaError, match="tolerance"):
        AlgebraPresentation(["a"], {(0, 0): {0: 1}}, mode=FLOAT, tol=tol)


# -- module laws ---------------------------------------------------------------

M2_SCALE = [Fraction(10) ** (i % 2) / 3 for i in range(4)]


def rescaled_m2():
    A = matrix_algebra(2)
    return AlgebraPresentation(A.labels, rescaled_mul(A, M2_SCALE))


@pytest.fixture()
def m2_rescaled_files(tmp_path):
    A = rescaled_m2()
    path = tmp_path / "A.json"
    path.write_text(json.dumps(serialize.algebra_to_dict(A)))
    return A, str(path)


def classify_bimodule(tmp_path, algebra_path, A, left, right, capsys):
    """Exit code and stderr of `amlab classify derivation` on a JSON bimodule."""
    failures = module_law_failures(A.dim, A.dim, A.mul, left, right)
    X = {"basis": list(A.labels),
         "left": [[i, j, k, str(c)] for (i, j), row in left.items() for k, c in row.items()],
         "right": [[j, i, k, str(c)] for (j, i), row in right.items() for k, c in row.items()]}
    path = tmp_path / "X.json"
    path.write_text(json.dumps(X))
    capsys.readouterr()
    code = main(["classify", "derivation", algebra_path, str(path)])
    return code, capsys.readouterr().err, failures


def law_named(A, message):
    law, names = re.search(r"(\w+) module law fails at \((.*)\)$", message).groups()
    return (law,) + tuple(A.labels.index(n) for n in names.split(", "))


def test_regular_bimodule_of_rescaled_m2_loads(tmp_path, m2_rescaled_files, capsys):
    A, path = m2_rescaled_files
    mul = {key: dict(row) for key, row in A.mul.items()}
    code, err, failures = classify_bimodule(tmp_path, path, A, mul, mul, capsys)
    assert failures == set() and code == 0, err
    for mode in (RATIONAL, FLOAT):
        B = AlgebraPresentation(A.labels, A.mul, mode=mode)
        BimodulePresentation(B, B.labels, B.mul, B.mul, validate=True)


@pytest.mark.parametrize("table", ["left", "right"])
def test_one_broken_action_entry_exits_3(tmp_path, m2_rescaled_files, table, capsys):
    A, path = m2_rescaled_files
    actions = {"left": {key: dict(row) for key, row in A.mul.items()},
               "right": {key: dict(row) for key, row in A.mul.items()}}
    key = min(actions[table])
    k = min(actions[table][key])
    actions[table][key][k] += Fraction(1, 10 ** 12)
    code, err, failures = classify_bimodule(tmp_path, path, A, actions["left"],
                                            actions["right"], capsys)
    assert code == 3
    assert law_named(A, err.strip()) in failures


def test_incompatible_actions_fail_the_mixed_law(tmp_path, m2_rescaled_files, capsys):
    # x * b = b^T x is a right action (transposing reverses products), but
    # (a x) * b = b^T a x differs from a (x * b) = a b^T x
    A, path = m2_rescaled_files
    s = M2_SCALE
    t = [A.labels.index(f"E{lab[2]}{lab[1]}") for lab in A.labels]   # b_i^T = s_i/s_t(i) b_t(i)
    left = {key: dict(row) for key, row in A.mul.items()}
    right = {(k, i): {m: c * s[i] / s[t[i]] for m, c in A.mul[(t[i], k)].items()}
             for i in range(A.dim) for k in range(A.dim) if (t[i], k) in A.mul}
    code, err, failures = classify_bimodule(tmp_path, path, A, left, right, capsys)
    assert code == 3
    assert {f[0] for f in failures} == {"mixed"}
    assert law_named(A, err.strip()) in failures
