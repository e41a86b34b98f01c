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

from amlab import (AlgebraPresentation, BimodulePresentation, direct_sum_bimodule,
                   group_algebra, matrix_algebra, quotient_bimodule, regular_bimodule,
                   serialize, upper_triangular_algebra)
from amlab.algebra import Element, PresentationError, unitize
from amlab.catalog import cyclic_group_table, symmetric_group_table
from amlab.cli import main
from amlab.scalars import DEFAULT_FLOAT_TOL, FLOAT, RATIONAL, SchemaError, clear_denominators


def times(table, u, v):
    """sum u_i v_j table[(i, j)] on int and Fraction entries, zeros dropped."""
    out = {}
    for i, a in u.items():
        for j, b in v.items():
            for k, c in table.get((i, j), {}).items():
                out[k] = out.get(k, 0) + a * b * c
    return {k: x for k, x in out.items() if x}


def associativity_failures(dim, mul):
    """Every basis triple (i, j, k) with (b_i b_j) b_k != b_i (b_j b_k)."""
    e = [{i: 1} for i in range(dim)]
    return {(i, j, k) for i in range(dim) for j in range(dim) for k in range(dim)
            if times(mul, times(mul, e[i], e[j]), e[k])
            != times(mul, e[i], times(mul, e[j], e[k]))}


def module_law_failures(alg_dim, mod_dim, mul, left, right, weights=None, tol=0):
    """Each failing law as (law, indices in the order the error message names
    them), in the order i, j, k, then left, right, mixed.  A law fails where
    the weighted norm of the difference of its sides exceeds tol."""
    e = [{i: 1} for i in range(alg_dim)]
    x = [{k: 1} for k in range(mod_dim)]
    w = weights or [1] * mod_dim

    def differ(u, v):
        diff = dict(u)
        for k, c in v.items():
            diff[k] = diff.get(k, 0) - c
        return sum(abs(c) * w[k] for k, c in diff.items()) > tol

    for i in range(alg_dim):
        for j in range(alg_dim):
            ab = times(mul, e[i], e[j])
            for k in range(mod_dim):
                if differ(times(left, ab, x[k]), times(left, e[i], times(left, e[j], x[k]))):
                    yield "left", i, j, k
                if differ(times(right, x[k], ab), times(right, times(right, x[k], e[i]), e[j])):
                    yield "right", k, i, j
                if differ(times(right, times(left, e[i], x[k]), e[j]),
                          times(left, e[i], times(right, x[k], e[j]))):
                    yield "mixed", i, k, j


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


# -- certificates ----------------------------------------------------------------

def ref_submultiplicativity(A):
    """(flag, warnings) of the Fraction loop: sum_k |c_ijk| w_k against
    w_i w_j + eps on every pair in the table."""
    flag, warnings = True, []
    for (i, j), row in A.mul.items():
        bound = A.weights[i] * A.weights[j]
        total = sum(abs(c) * A.weights[k] for k, c in row.items())
        if total > bound + A.eps:
            flag = False
            warnings.append(f"submultiplicativity certificate fails at "
                            f"({A.labels[i]}, {A.labels[j]}): {total} > {bound}")
    return flag, warnings


def ref_unit_error(A):
    """The message of the Element loop u b - b, b u - b, or None when u is a unit."""
    u = Element(A, A.unit)
    for i in range(A.dim):
        b = A.basis_element(i)
        if not (u * b - b).is_zero() or not (b * u - b).is_zero():
            return f"claimed unit does not fix basis element {A.labels[i]}"
    return None


CERTIFICATE_MODES = [(RATIONAL, DEFAULT_FLOAT_TOL), (FLOAT, DEFAULT_FLOAT_TOL), (FLOAT, 0)]
ODD_WEIGHTS = [Fraction(2, 3), Fraction(5, 2), 1, Fraction(3, 4), 2, Fraction(5, 2)]


def certificate_cases():
    """(labels, mul, weights, unit): catalog tables, as given and with one
    coefficient or unit entry moved by 1e-12 or 1/2, under unit and non-unit
    rational weights; rescaled M3, whose unit has non-integer entries; and
    one-sided units on either side."""
    s = [Fraction(1, 3), Fraction(7, 2), 1, 5, Fraction(5, 6), 3, 1, Fraction(2, 7), 2]
    M3 = matrix_algebra(3)
    yield M3.labels, rescaled_mul(M3, s), None, {i: 1 / s[i] for i in (0, 4, 8)}
    # a a = a and a b = b: a is a left unit, and in the opposite table a right one
    one_sided = {(0, 0): {0: 1}, (0, 1): {1: 1}}
    yield ("a", "b"), one_sided, None, {0: 1}
    yield ("a", "b"), {(j, i): row for (i, j), row in one_sided.items()}, None, {0: 1}
    for A in (M3, upper_triangular_algebra(3), group_algebra(*symmetric_group_table(3))):
        odd = [ODD_WEIGHTS[i % len(ODD_WEIGHTS)] for i in range(A.dim)]
        for weights in (None, odd):
            for delta in (0, Fraction(1, 10 ** 12), Fraction(1, 2)):
                yield A.labels, shifted(A.mul, delta), weights, A.unit
                if delta:
                    yield A.labels, A.mul, weights, {**A.unit, 0: 1 + delta}


def assert_certificates_match_the_reference(A):
    A._check_submultiplicativity()
    assert (A.submultiplicative, A.warnings) == ref_submultiplicativity(A)
    expected = ref_unit_error(A)
    if expected is None:
        A._check_unit()
    else:
        with pytest.raises(PresentationError) as exc:
            A._check_unit()
        assert str(exc.value) == expected


@pytest.mark.parametrize("mode, tol", CERTIFICATE_MODES)
def test_certificates_match_the_fraction_reference(mode, tol):
    verdicts = set()
    for labels, mul, weights, unit in certificate_cases():
        A = AlgebraPresentation(labels, mul, weights, unit, mode=mode, tol=tol, validate=False)
        assert_certificates_match_the_reference(A)
        verdicts.add((A.submultiplicative, ref_unit_error(A) is None))
    assert verdicts == {(True, True), (True, False), (False, True), (False, False)}


@pytest.mark.parametrize("mode, tol", CERTIFICATE_MODES)
def test_unitization_certificates_match_the_fraction_reference(mode, tol):
    for A in (upper_triangular_algebra(3, mode=mode, tol=tol),
              AlgebraPresentation(matrix_algebra(2).labels, matrix_algebra(2).mul,
                                  ODD_WEIGHTS[:4], mode=mode, tol=tol)):
        U = unitize(A)
        assert (U.submultiplicative, U.warnings) == ref_submultiplicativity(U)
        assert ref_unit_error(U) is None
        for delta in (Fraction(1, 10 ** 12), Fraction(1, 2)):
            moved = AlgebraPresentation(U.labels, U.mul, U.weights, {A.dim: 1 + delta},
                                        mode=mode, tol=tol, validate=False)
            assert_certificates_match_the_reference(moved)


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
    failures = list(module_law_failures(A.dim, A.dim, A.mul, left, right))
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
    assert failures == [] and code == 0, err
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


def file_form(X):
    """X as a bimodule file, with its own action tables."""
    return {"basis": list(X.labels), "weights": [str(w) for w in X.weights],
            "left": [[i, j, k, str(c)] for (i, j), row in X.left.items() for k, c in row.items()],
            "right": [[j, i, k, str(c)] for (j, i), row in X.right.items()
                      for k, c in row.items()]}


def law_modules():
    """Bimodules whose tables the perturbation test moves, one entry at a time."""
    m2, t3 = rescaled_m2(), upper_triangular_algebra(3)
    R = regular_bimodule(t3)
    return {"M2 rescaled": regular_bimodule(m2), "T3": R,
            "S3": regular_bimodule(group_algebra(*symmetric_group_table(3))),
            "T3 doubled": direct_sum_bimodule([R, R]),
            "T3 one-sided": BimodulePresentation(t3, t3.labels, t3.mul, {}),
            "T3 mod upper": quotient_bimodule(R, [R.basis_element(k) for k in (1, 2, 4)])[0]}


def law_message(law, indices, alg_labels, mod_labels):
    """The error text that names the failing law at indices."""
    module_slot = {"left": 2, "right": 0, "mixed": 1}[law]
    names = [(mod_labels if n == module_slot else alg_labels)[idx]
             for n, idx in enumerate(indices)]
    return f"{law} module law fails at ({', '.join(names)})"


def first_law_failure(algebra, data):
    """The message for the reference's first failure on a bimodule file, or
    None.  Over a float algebra the reference runs on the float values of the
    constants, with the algebra's tolerance."""
    if algebra.mode == RATIONAL:
        value, tol = Fraction, 0
    else:
        value, tol = (lambda c: Fraction(float(Fraction(c)))), Fraction(algebra.tol)
    left, right = {}, {}
    for table, rows in ((left, data["left"]), (right, data["right"])):
        for a, b, k, c in rows:
            table.setdefault((a, b), {})[k] = value(c)
    mul = {key: {k: value(c) for k, c in row.items()} for key, row in algebra.mul.items()}
    failure = next(module_law_failures(algebra.dim, len(data["basis"]), mul, left, right,
                                       [value(w) for w in data["weights"]], tol), None)
    if failure is None:
        return None
    law, *indices = failure
    return law_message(law, indices, algebra.labels, data["basis"])


def library_law_failure(algebra, data):
    try:
        serialize.bimodule_from_dict(data, algebra)
    except PresentationError as exc:
        return str(exc)
    return None


@pytest.mark.parametrize("name", list(law_modules()))
def test_module_laws_under_one_coefficient_perturbations(name):
    """Every action entry moved by 1/10^12 in rational mode, and by just below
    and just above the tolerance in float mode: the library rejects exactly
    the moves the reference rejects and names the same first failure."""
    X = law_modules()[name]
    tol = Fraction(DEFAULT_FLOAT_TOL)
    algebras = {mode: serialize.algebra_from_dict(serialize.algebra_to_dict(X.algebra), mode)
                for mode in (RATIONAL, FLOAT)}
    data = file_form(X)
    moves = [(RATIONAL, Fraction(1, 10 ** 12)), (FLOAT, tol * 15 / 16), (FLOAT, tol * 17 / 16)]
    seen = {True: 0, False: 0}
    for mode in (RATIONAL, FLOAT):
        assert library_law_failure(algebras[mode], data) is None
    for table in ("left", "right"):
        for n, entry in enumerate(data[table]):
            for mode, delta in moves:
                moved = dict(data, **{table: list(data[table])})
                moved[table][n] = entry[:3] + [str(Fraction(entry[3]) + delta)]
                want = first_law_failure(algebras[mode], moved)
                assert library_law_failure(algebras[mode], moved) == want, (table, entry, delta)
                seen[want is None] += 1
    assert seen[False], "no move was rejected"
    # rescaled M2's constants carry factors of 10, which lift every move past tol
    assert seen[True] or name == "M2 rescaled", "no move was accepted"


# a * a = 0 acting on x0, x1, x2: b_i b_j = 0 on the one pair, so a law can
# fail only where one side reads no table row
ONE_SIDED_FAILURES = {
    "left": ([[0, 0, 1, "1"], [0, 1, 0, "1"]], []),     # a(a x0) = x0, (aa) x0 = 0
    "right": ([], [[0, 0, 1, "1"], [1, 0, 0, "1"]]),
    "mixed": ([[0, 1, 2, "1"]], [[0, 0, 1, "1"]]),      # (a x0) a = 0, a (x0 a) = x2
}


@pytest.mark.parametrize("law", list(ONE_SIDED_FAILURES))
@pytest.mark.parametrize("mode", [RATIONAL, FLOAT])
def test_a_law_with_one_empty_side_is_still_checked(law, mode):
    algebra = AlgebraPresentation(["a"], {}, mode=mode)
    left, right = ONE_SIDED_FAILURES[law]
    data = {"basis": ["x0", "x1", "x2"], "weights": ["1"] * 3, "left": left, "right": right}
    want = first_law_failure(algebra, data)
    assert want.startswith(law)
    assert library_law_failure(algebra, data) == want


@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
def test_a_non_finite_float_is_a_schema_error_in_rational_mode(value):
    with pytest.raises(SchemaError, match=re.escape(repr(value))):
        matrix_algebra(2).scalar(value)
    with pytest.raises(SchemaError, match=re.escape(repr(value))):
        AlgebraPresentation(["a"], {(0, 0): {0: 1}}, weights=[value])
    with pytest.raises(SchemaError, match=re.escape(repr(value))):
        AlgebraPresentation(["a"], {(0, 0): {0: value}})
    # float mode keeps such values: a float tensor may carry one
    assert repr(matrix_algebra(2, mode=FLOAT).scalar(value)) == repr(value)
