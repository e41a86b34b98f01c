"""Command-line behavior: subcommands, formats, and the exit-code contract."""

import json

import pytest

from amlab import linalg, matrix_algebra, matrix_diagonal, regular_bimodule, serialize
from amlab.cli import main


def write(path, obj):
    path.write_text(json.dumps(obj))
    return str(path)


@pytest.fixture()
def m2_file(tmp_path):
    return write(tmp_path / "M2.json",
                 serialize.algebra_to_dict(matrix_algebra(2)))


@pytest.fixture()
def good_net_file(tmp_path):
    A = matrix_algebra(2)
    t = matrix_diagonal(2, algebra=A)
    net = {"algebra": "M2", "tolerance": "0",
           "entries": [serialize.tensor_to_dict(t)["terms"]],
           "test_set": [{"label": lab, "coeffs": [[i, "1"]]}
                        for i, lab in enumerate(A.labels)]}
    return write(tmp_path / "net.json", net)


def test_check_diagonal_pass(m2_file, good_net_file, tmp_path, capsys):
    out = tmp_path / "report.json"
    code = main(["check-diagonal", m2_file, good_net_file,
                 "--require-symmetric", "--out", str(out)])
    assert code == 0
    report = json.loads(out.read_text())
    assert report["verdict"] is True
    assert report["entries"][0]["symmetric"] is True


def test_check_diagonal_fails_on_broken_tensor(m2_file, tmp_path):
    A = matrix_algebra(2)
    t = matrix_diagonal(2, algebra=A)
    terms = serialize.tensor_to_dict(t)["terms"]
    terms[1][2] = "-1/2"  # flip one sign
    net = {"tolerance": "0", "entries": [terms],
           "test_set": [{"label": "E11", "coeffs": [[0, "1"]]}]}
    net_file = write(tmp_path / "bad_net.json", net)
    code = main(["check-diagonal", m2_file, net_file])
    assert code == 1


@pytest.mark.parametrize("entries, message", [([], "empty net"),
                                              ([[[0, 0, "5"]]], "empty test set")])
def test_check_diagonal_refuses_an_empty_net_or_test_set(m2_file, tmp_path, capsys,
                                                        entries, message):
    """Either would pass any claim: with no test element, 5 E11 (x) E11, which
    is no diagonal of M2, would have every defect within tolerance."""
    net = write(tmp_path / "net.json", {"tolerance": "0", "entries": entries, "test_set": []})
    assert main(["check-diagonal", m2_file, net]) == 3
    assert f"validation error: {message}" in capsys.readouterr().err


def test_check_diagonal_csv(m2_file, good_net_file, capsys):
    code = main(["check-diagonal", m2_file, good_net_file, "--format", "csv"])
    assert code == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0] == \
        "entry_index,element_label,d1,d2,d3,d4,symmetric,verdict"


def test_malformed_json_exits_2(tmp_path, good_net_file):
    bad = tmp_path / "bad.json"
    bad.write_text("{nope")
    assert main(["check-diagonal", str(bad), good_net_file]) == 2


def test_invalid_presentation_exits_3(tmp_path, good_net_file):
    broken = {"basis": ["a", "b"], "weights": [1, 1],
              "mul": [[0, 0, 1, "1"], [1, 0, 0, "1"]], "unit": None}
    path = write(tmp_path / "broken.json", broken)
    assert main(["check-diagonal", path, good_net_file]) == 3


@pytest.mark.parametrize("tol", ["-1", "nan", "inf"])
def test_bad_tolerance_exits_2(m2_file, tol, capsys):
    assert main(["center", m2_file, "--mode", "float", "--tol", tol]) == 2
    assert "tolerance" in capsys.readouterr().err


@pytest.mark.parametrize("tol", ["-1", -0.5, float("nan")])
@pytest.mark.parametrize("mode", ["rational", "float"])
def test_bad_net_tolerance_exits_2(m2_file, good_net_file, tmp_path, mode, tol, capsys):
    # a bad value in the net file is bad input, like a bad --tol
    net = serialize.load_json(good_net_file)
    net["tolerance"] = tol
    path = write(tmp_path / "bad_tolerance.json", net)
    assert main(["check-diagonal", m2_file, path, "--mode", mode]) == 2
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("basis", [[["a"]], [1], [None]])
def test_non_string_basis_label_exits_2(tmp_path, basis, capsys):
    path = write(tmp_path / "A.json", {"basis": basis, "mul": [[0, 0, 0, "1"]]})
    assert main(["center", path]) == 2
    assert "basis labels must be strings" in capsys.readouterr().err


def test_non_string_bimodule_label_exits_2(tmp_path, m2_file, capsys):
    X = serialize.bimodule_to_dict(regular_bimodule(matrix_algebra(2)))
    X["basis"][0] = 0
    path = write(tmp_path / "X.json", X)
    assert main(["classify", "derivation", m2_file, path]) == 2
    assert "basis labels must be strings" in capsys.readouterr().err


@pytest.mark.parametrize("entry", [["a", 0, 0, "1"],   # non-integer algebra index
                                   [4, 0, 0, "1"],     # algebra index out of range
                                   [0, 0, 4, "1"]],    # image index out of range
                         ids=["string", "pair-out-of-range", "image-out-of-range"])
def test_bad_action_index_exits_2(tmp_path, m2_file, entry, capsys):
    X = serialize.bimodule_to_dict(regular_bimodule(matrix_algebra(2)))
    X["left"] = [entry]
    path = write(tmp_path / "X.json", X)
    assert main(["classify", "derivation", m2_file, path]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: basis index") and "Traceback" not in err


@pytest.mark.parametrize("entry", [[[0], 0, 0, "1"], [0, [0], 0, "1"], [0, 0, [0], "1"],
                                   [0.0, 0, 0, "1"]],
                         ids=["list-i", "list-j", "list-k", "float-i"])
def test_non_integer_mul_index_exits_2(tmp_path, entry, capsys):
    path = write(tmp_path / "A.json", {"basis": ["a"], "mul": [entry]})
    assert main(["center", path]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: basis index") and "Traceback" not in err


@pytest.mark.parametrize("side", ["left", "right"])
@pytest.mark.parametrize("position", [0, 1, 2])
def test_list_action_index_exits_2(tmp_path, m2_file, side, position, capsys):
    X = serialize.bimodule_to_dict(regular_bimodule(matrix_algebra(2)))
    X[side][0][position] = [X[side][0][position]]
    path = write(tmp_path / "X.json", X)
    assert main(["classify", "derivation", m2_file, path]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: basis index") and "Traceback" not in err


def test_malformed_table_entries_keep_their_messages(tmp_path, m2_file, capsys):
    path = write(tmp_path / "A.json", {"basis": ["a"], "mul": [[0, 0, "1"]]})
    assert main(["center", path]) == 2
    assert "mul entries must be [i, j, k, coeff]" in capsys.readouterr().err
    for side, layout in [("left", "[a, x, y, coeff]"), ("right", "[x, a, y, coeff]")]:
        X = serialize.bimodule_to_dict(regular_bimodule(matrix_algebra(2)))
        X[side][0] = X[side][0][:3]
        path = write(tmp_path / "X.json", X)
        assert main(["classify", "derivation", m2_file, path]) == 2
        assert f"{side} action entries must be {layout}" in capsys.readouterr().err


# JSON true and false load as bools, which Python counts as the ints 1 and 0

def test_boolean_mul_index_exits_2(tmp_path, capsys):
    path = write(tmp_path / "A.json", {"basis": ["a", "b"],
                                       "mul": [[True, True, 1, "1"], [0, 0, 0, "1"]]})
    assert main(["center", path]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: basis index True") and "true and false" in err
    assert "Traceback" not in err


def test_boolean_element_index_exits_2(tmp_path, m2_file, capsys):
    z = write(tmp_path / "z.json", {"coeffs": [[True, "1"]]})
    assert main(["witness", m2_file, z]) == 2
    err = capsys.readouterr().err
    assert "element indices must be integers" in err and "Traceback" not in err


def test_boolean_tensor_leg_exits_2(tmp_path, m2_file, capsys):
    terms = serialize.tensor_to_dict(matrix_diagonal(2))["terms"]
    assert terms[0][0] == 0
    terms[0][0] = False
    t_file = write(tmp_path / "t.json", {"terms": terms})
    map_file = write(tmp_path / "D.json", {"matrix": [["0"] * 4 for _ in range(4)]})
    assert main(["decompose-lie", m2_file, "regular", map_file, t_file]) == 2
    err = capsys.readouterr().err
    assert "tensor leg indices must be integers" in err and "Traceback" not in err


# JSON reads Infinity and NaN as floats, and numbers beyond the float range (1e400)
# as inf; float mode cannot hold an exact value beyond its range either

ONE_ELEMENT = {
    "constant": '{"basis": ["a"], "mul": [[0, 0, 0, %s]]}',
    "weight": '{"basis": ["a"], "weights": [%s], "mul": [[0, 0, 0, "1"]]}',
    "unit": '{"basis": ["a"], "mul": [[0, 0, 0, "1"]], "unit": [%s]}',
}
DIGITS_401 = "1" * 401

NON_FINITE = [
    ("rational", "constant", "Infinity", "non-finite JSON number Infinity"),
    ("rational", "constant", "1e400", "JSON number 1e400 is beyond the float range"),
    ("rational", "constant", "NaN", "non-finite JSON number NaN"),
    ("rational", "weight", "Infinity", "non-finite JSON number Infinity"),
    ("rational", "weight", "1e400", "JSON number 1e400 is beyond the float range"),
    ("rational", "unit", "Infinity", "non-finite JSON number Infinity"),
    ("rational", "unit", "1e400", "JSON number 1e400 is beyond the float range"),
    ("float", "constant", "Infinity", "non-finite JSON number Infinity"),
    ("float", "constant", "-Infinity", "non-finite JSON number -Infinity"),
    ("float", "weight", "Infinity", "non-finite JSON number Infinity"),
    ("float", "constant", '"1e400"', "scalar '1e400' is beyond the float range"),
    ("float", "constant", DIGITS_401, "scalar 111111111111111111...1111111111111111111 is beyond"),
]
LITERAL_IDS = {DIGITS_401: "401-digits", '"1e400"': "string-1e400"}


@pytest.mark.parametrize("mode, field, literal, named", NON_FINITE, ids=[
    f"{mode}-{field}-{LITERAL_IDS.get(literal, literal)}" for mode, field, literal, _ in NON_FINITE])
def test_non_finite_scalar_exits_2(tmp_path, mode, field, literal, named, capsys):
    path = tmp_path / "A.json"
    path.write_text(ONE_ELEMENT[field] % literal)
    assert main(["center", str(path), "--mode", mode]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {named}") and "Traceback" not in err


@pytest.mark.parametrize("literal", ['"1e400"', DIGITS_401], ids=LITERAL_IDS.get)
def test_exact_rationals_beyond_the_float_range_stay_valid(tmp_path, literal):
    path = tmp_path / "A.json"
    path.write_text(ONE_ELEMENT["weight"] % literal)
    assert main(["center", str(path), "--mode", "rational", "--out", str(tmp_path / "c.json")]) == 0


@pytest.mark.parametrize("group, message", [
    ({"table": [[False]]}, "group table must be a list of rows of integer indices"),
    ({"table": [5]}, "group table must be a list of rows of integer indices"),
    ({"table": [[0, 1], [1, "0"]]}, "group table must be a list of rows of integer indices"),
    ({"table": [[0]], "labels": 5}, "group labels must be a list of strings"),
    ({"table": [[0, 1], [1, 0]], "labels": ["a", 3]}, "group labels must be a list of strings"),
], ids=["boolean-entry", "row-not-a-list", "string-entry", "labels-not-a-list",
        "non-string-label"])
def test_malformed_group_file_exits_2(tmp_path, group, message, capsys):
    path = write(tmp_path / "G.json", group)
    assert main(["build-diagonal", "group", path]) == 2
    err = capsys.readouterr().err
    assert message in err and "Traceback" not in err


def test_non_associative_group_table_exits_3(tmp_path, capsys):
    path = write(tmp_path / "G.json", {"table": [[1, 0], [0, 0]]})
    assert main(["build-diagonal", "group", path]) == 3
    assert "group table is not associative" in capsys.readouterr().err


def numbers_in(obj):
    if isinstance(obj, dict):
        for v in obj.values():
            yield from numbers_in(v)
    elif isinstance(obj, list):
        for v in obj:
            yield from numbers_in(v)
    elif not isinstance(obj, (bool, str)) and obj is not None:
        yield obj


@pytest.mark.parametrize("mode", ["rational", "float"])
def test_central_jordan_report_writes_zero_in_the_mode_type(tmp_path, mode, capsys):
    """A zero norm is "0" in rational mode and 0.0 in float mode, like every
    other value of its field, not a bare JSON 0."""
    m3 = write(tmp_path / "M3.json", serialize.algebra_to_dict(matrix_algebra(3)))
    zero = write(tmp_path / "D.json", {"matrix": [["0"] * 9 for _ in range(9)]})
    t = tmp_path / "t.json"
    assert main(["build-diagonal", "matrix", "3", "--out", str(t)]) == 0
    capsys.readouterr()
    assert main(["--mode", mode, "decompose-jordan", m3, "regular", zero, str(t),
                 "--central"]) == 0
    report = json.loads(capsys.readouterr().out)
    zero_value = "0" if mode == "rational" else 0.0
    assert report["diagonal"]["symmetry_defect"] == zero_value
    assert report["derivation_defect"] == zero_value
    assert report["residuals"] == {label: zero_value for label in report["residuals"]}
    if mode == "rational":
        assert list(numbers_in(report)) == []
    else:
        assert all(type(v) is float for v in numbers_in(report))


def test_build_matrix_diagonal(tmp_path, capsys):
    out = tmp_path / "t.json"
    alg_out = tmp_path / "alg.json"
    code = main(["build-diagonal", "matrix", "2",
                 "--out", str(out), "--algebra-out", str(alg_out)])
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["symmetric"] is True
    assert payload["proj_norm"] == "2"
    algebra = serialize.algebra_from_dict(json.loads(alg_out.read_text()), "rational")
    t = serialize.tensor_from_dict(payload, algebra)
    assert t == matrix_diagonal(2, algebra=algebra)


def test_build_group_diagonal(tmp_path):
    group = {"labels": ["e", "g"], "table": [[0, 1], [1, 0]]}
    gpath = write(tmp_path / "C2.json", group)
    out = tmp_path / "t.json"
    assert main(["build-diagonal", "group", gpath, "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["symmetric"] is True
    assert sorted(payload["terms"]) == [[0, 0, "1/2"], [1, 1, "1/2"]]


def test_build_group_rejects_non_group(tmp_path):
    gpath = write(tmp_path / "notgroup.json",
                  {"labels": ["a", "b"], "table": [[1, 1], [1, 1]]})
    assert main(["build-diagonal", "group", gpath]) == 3


def test_build_ideal_delegates(tmp_path, m2_file):
    t_file = tmp_path / "t.json"
    main(["build-diagonal", "matrix", "2", "--out", str(t_file)])
    e_file = write(tmp_path / "e.json",
                   {"coeffs": [[0, "1"], [3, "1"]]})  # the unit of M2
    out = tmp_path / "m.json"
    assert main(["build-diagonal", "ideal", m2_file, str(t_file), str(e_file),
                 "--out", str(out)]) == 0
    m = json.loads(out.read_text())
    assert m["terms"] == json.loads(t_file.read_text())["terms"]


def test_build_direct_sum_and_pushforward(tmp_path):
    a2 = write(tmp_path / "A2.json", serialize.algebra_to_dict(matrix_algebra(2)))
    a3 = write(tmp_path / "A3.json", serialize.algebra_to_dict(matrix_algebra(3)))
    t2 = tmp_path / "t2.json"
    t3 = tmp_path / "t3.json"
    main(["build-diagonal", "matrix", "2", "--out", str(t2)])
    main(["build-diagonal", "matrix", "3", "--out", str(t3)])
    sum_out = tmp_path / "sum.json"
    sum_alg = tmp_path / "sum_alg.json"
    code = main(["build-diagonal", "direct-sum", a2, str(t2), a3, str(t3),
                 "--out", str(sum_out), "--algebra-out", str(sum_alg)])
    assert code == 0
    payload = json.loads(sum_out.read_text())
    assert payload["symmetric"] is True
    assert len(payload["terms"]) == 4 + 9


def test_build_truncated_diagonal(tmp_path):
    out = tmp_path / "t.json"
    alg_out = tmp_path / "alg.json"
    assert main(["build-diagonal", "truncated", "2", "4",
                 "--out", str(out), "--algebra-out", str(alg_out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["symmetric"] is True
    assert len(payload["terms"]) == 4       # the 2-block inside 4x4
    algebra = serialize.algebra_from_dict(json.loads(alg_out.read_text()), "rational")
    assert algebra.meta["matrix_n"] == 4    # provenance survives the file


def test_build_truncated_bad_params(tmp_path):
    assert main(["build-diagonal", "truncated", "5", "4"]) == 2


def test_build_pushforward(tmp_path):
    from amlab import block_projection, direct_sum_algebra, serialize as ser
    A2, A3 = matrix_algebra(2), matrix_algebra(3)
    S = direct_sum_algebra([A2, A3])
    dom = write(tmp_path / "S.json", ser.algebra_to_dict(S))
    cod = write(tmp_path / "M2.json", ser.algebra_to_dict(A2))
    theta = write(tmp_path / "theta.json",
                  ser.linear_map_to_dict(block_projection(S, 0)))
    # the summed diagonal over S, via the library, saved as a tensor file
    from amlab import direct_sum_diagonal, matrix_diagonal as md
    ts = direct_sum_diagonal([md(2, algebra=A2), md(3, algebra=A3)], ambient=S)
    tfile = write(tmp_path / "ts.json", ser.tensor_to_dict(ts))
    out = tmp_path / "pushed.json"
    assert main(["build-diagonal", "pushforward", dom, cod, theta, tfile,
                 "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    got = ser.tensor_from_dict(payload, matrix_algebra(2))
    assert got.coeffs == matrix_diagonal(2).coeffs


def test_build_pushforward_rejects_non_epimorphism(tmp_path, m2_file):
    t_file = tmp_path / "t.json"
    main(["build-diagonal", "matrix", "2", "--out", str(t_file)])
    bad = write(tmp_path / "bad_map.json",
                {"matrix": [["0", "1", "0", "0"], ["1", "0", "0", "0"],
                            ["0", "0", "0", "1"], ["0", "0", "1", "0"]]})
    assert main(["build-diagonal", "pushforward", m2_file, m2_file, bad,
                 str(t_file)]) == 3


def test_convergence_table(tmp_path, capsys):
    test_file = write(tmp_path / "tests.json",
                      {"elements": [{"label": "E14", "coeffs": [[3, "1"]]}]})
    code = main(["convergence-table", "6", str(test_file)])
    assert code == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "n,element,d1,d2,d3,d4,tail_bound"
    # E14 sits at row 1, column 4: d1 = 1 until n reaches 4
    by_n = {int(line.split(",")[0]): line.split(",") for line in lines[1:]}
    assert by_n[3][2] == "1" and by_n[4][2] == "0"


def test_convergence_table_empty_test_set(tmp_path, capsys):
    test_file = write(tmp_path / "tests.json", {"elements": []})
    assert main(["convergence-table", "4", str(test_file)]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines == ["n,element,d1,d2,d3,d4,tail_bound"]


def test_convergence_table_rejects_support_outside(tmp_path):
    test_file = write(tmp_path / "tests.json",
                      {"elements": [{"label": "big", "coeffs": [[99, "1"]]}]})
    assert main(["convergence-table", "3", str(test_file)]) == 2


def test_witness_feasible_and_infeasible(tmp_path, m2_file, capsys):
    z = write(tmp_path / "z.json", {"coeffs": [[0, "1"], [3, "1"]]})
    assert main(["witness", m2_file, z]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["decision"] == "FEASIBLE"
    assert payload["functional"]["values"] == ["1/2", "0", "0", "1/2"]
    z2 = write(tmp_path / "z2.json", {"coeffs": [[0, "1"], [3, "-1"]]})
    assert main(["witness", m2_file, z2]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["decision"] == "INFEASIBLE"
    assert payload["certificate"]


def test_witness_float_mode_without_tolerance(tmp_path, m2_file, capsys):
    # --tol 0 eliminates exactly; the certificate still holds the mode's floats
    z = write(tmp_path / "z.json", {"coeffs": [[0, "1"], [3, "-1"]]})
    assert main(["witness", m2_file, z, "--mode", "float", "--tol", "0"]) == 1
    certificate = json.loads(capsys.readouterr().out)["certificate"]
    assert certificate and all(type(c) is float for _, _, c in certificate)


def test_inconsistent_witness_system_exits_3(tmp_path, m2_file, monkeypatch, capsys):
    monkeypatch.setattr(linalg, "solve", lambda *args: None)
    z = write(tmp_path / "z.json", {"coeffs": [[0, "1"], [3, "1"]]})
    assert main(["witness", m2_file, z]) == 3
    err = capsys.readouterr().err
    assert "witness system unexpectedly inconsistent" in err
    assert "Traceback" not in err


def test_witness_with_diagonal(tmp_path, m2_file, capsys):
    z = write(tmp_path / "z.json", {"coeffs": [[0, "1"], [3, "1"]]})
    t = tmp_path / "t.json"
    main(["build-diagonal", "matrix", "2", "--out", str(t)])
    g = write(tmp_path / "g.json", {"values": ["1", "0", "0", "0"]})
    code = main(["witness", m2_file, z, "--diagonal", str(t),
                 "--seed-functional", g])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    wd = payload["witness_from_diagonal"]
    assert wd["commutator_defect"] == "0"
    assert wd["unit_residual"] == "0"


def test_decompose_jordan_cli(tmp_path, m2_file, capsys):
    # D = [E12, .] as a dense matrix, row q = image of basis q:
    # D(E11) = -E12, D(E12) = 0, D(E21) = E11 - E22, D(E22) = E12
    D = [["0", "-1", "0", "0"],
         ["0", "0", "0", "0"],
         ["1", "0", "0", "-1"],
         ["0", "1", "0", "0"]]
    map_file = write(tmp_path / "D.json", {"matrix": D})
    t_file = tmp_path / "t.json"
    main(["build-diagonal", "matrix", "2", "--out", str(t_file)])
    omega_file = tmp_path / "omega.json"
    code = main(["decompose-jordan", m2_file, "regular", map_file, str(t_file),
                 "--out-omega", str(omega_file)])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["ok"] is True
    omega = json.loads(omega_file.read_text())
    assert omega["coeffs"] == [[1, "-1"]]


def test_decompose_lie_cli(tmp_path, m2_file, capsys):
    # D(a) = [E12, a] + trace(a) I:
    # D(E11) = -E12 + I, D(E12) = 0, D(E21) = E11 - E22, D(E22) = E12 + I
    D = [["1", "-1", "0", "1"],
         ["0", "0", "0", "0"],
         ["1", "0", "0", "-1"],
         ["1", "1", "0", "1"]]
    map_file = write(tmp_path / "D.json", {"matrix": D})
    t_file = tmp_path / "t.json"
    main(["build-diagonal", "matrix", "2", "--out", str(t_file)])
    inner_file = tmp_path / "d.json"
    trace_file = tmp_path / "tau.json"
    code = main(["decompose-lie", m2_file, "regular", map_file, str(t_file),
                 "--out-inner", str(inner_file), "--out-trace", str(trace_file)])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["ok"] is True
    assert all(v in ("0", 0) for v in payload["residuals"].values())
    tau = json.loads(trace_file.read_text())["matrix"]
    assert tau == [["1", "0", "0", "1"],
                   ["0", "0", "0", "0"],
                   ["0", "0", "0", "0"],
                   ["1", "0", "0", "1"]]


def test_decompose_jordan_central_route(tmp_path, m2_file, capsys):
    # the zero map is vacuously a central Jordan derivation
    D = [["0"] * 4 for _ in range(4)]
    map_file = write(tmp_path / "D.json", {"matrix": D})
    t_file = tmp_path / "t.json"
    main(["build-diagonal", "matrix", "2", "--out", str(t_file)])
    code = main(["decompose-jordan", m2_file, "regular", map_file, str(t_file),
                 "--central"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["ok"] is True
    assert payload["symmetric_bimodule"] is False


@pytest.mark.parametrize("command", ["decompose-jordan", "decompose-lie"])
@pytest.mark.parametrize("images, message", [
    ([["1", "0"], ["0", "0"]], "map is not a"),
    ([["0", "0"], ["0", "0"]], "lifting a diagonal needs a unital carrier")])
def test_the_map_gate_runs_before_the_diagonal_is_lifted(tmp_path, capsys, command,
                                                         images, message):
    """E11 and E12 of M2: a a = a, a n = n, and no unit.  D(a) = a fails both
    gates; the zero map passes them and the lift of the diagonal is refused."""
    algebra = write(tmp_path / "A.json", {"basis": ["a", "n"],
                                          "mul": [[0, 0, 0, "1"], [0, 1, 1, "1"]]})
    map_file = write(tmp_path / "D.json", {"matrix": images})
    t_file = write(tmp_path / "t.json", {"terms": [[0, 0, "1"]]})
    assert main([command, algebra, "regular", map_file, t_file]) == 3
    assert message in capsys.readouterr().err


def test_classify_cli(m2_file, capsys):
    assert main(["classify", "lie", m2_file, "regular"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["dimension"] == 4


def test_center_cli(m2_file, capsys):
    assert main(["center", m2_file]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert len(payload["elements"]) == 1


@pytest.mark.parametrize("mode, failure", [("rational", "3 > 1"), ("float", "3.0 > 1.0")])
def test_an_uncertified_algebra_loads_with_its_warnings_on_stderr(tmp_path, mode, failure,
                                                                   capsys):
    """a a = 3 a and b b = b/2 with weights 1 and 1/2: a a fails the certificate,
    b b passes it, so one warning goes to stderr and the report is unchanged."""
    path = write(tmp_path / "A.json", {"basis": ["a", "b"], "weights": ["1", "1/2"],
                                       "mul": [[0, 0, 0, "3"], [1, 1, 1, "1/2"]]})
    A = serialize.algebra_from_dict(json.loads((tmp_path / "A.json").read_text()), mode,
                                    name="A")
    assert main(["center", path, "--mode", mode]) == 0
    captured = capsys.readouterr()
    assert captured.err == f"warning: submultiplicativity certificate fails at (a, a): " \
                           f"{failure}\n"
    assert A.warnings == [captured.err[len("warning: "):-1]]
    center = [A.element({0: 1}), A.element({1: 1})]
    assert captured.out == serialize.dump_json(serialize.element_list_to_dict(
        center, labels=["z0", "z1"], space=A)) + "\n"
    out = tmp_path / "center.json"
    assert main(["center", path, "--mode", mode, "--out", str(out)]) == 0
    assert out.read_text() == captured.out
    assert capsys.readouterr().out == ""


def test_quotient_cli(tmp_path, m2_file, capsys):
    from amlab import direct_sum_bimodule, regular_bimodule
    A = matrix_algebra(2)
    Y = direct_sum_bimodule([regular_bimodule(A), regular_bimodule(A)])
    bim_file = write(tmp_path / "Y.json", serialize.bimodule_to_dict(Y))
    sub_file = write(tmp_path / "sub.json",
                     {"elements": [{"coeffs": [[k, "1"]]} for k in range(4)]})
    assert main(["quotient", m2_file, bim_file, sub_file]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert len(payload["bimodule"]["basis"]) == 4


def test_quotient_rejects_non_invariant(tmp_path, m2_file):
    from amlab import direct_sum_bimodule, regular_bimodule
    A = matrix_algebra(2)
    Y = direct_sum_bimodule([regular_bimodule(A), regular_bimodule(A)])
    bim_file = write(tmp_path / "Y.json", serialize.bimodule_to_dict(Y))
    sub_file = write(tmp_path / "sub.json",
                     {"elements": [{"coeffs": [[0, "1"]]}]})
    assert main(["quotient", m2_file, bim_file, sub_file]) == 3


def test_mode_env_default(tmp_path, m2_file, good_net_file, monkeypatch, capsys):
    monkeypatch.setenv("AMLAB_MODE", "float")
    code = main(["check-diagonal", m2_file, good_net_file])
    assert code == 0  # exact-zero cases keep their exit code across modes
    payload = json.loads(capsys.readouterr().out)
    assert payload["entries"][0]["rows"][0]["d1"] == 0.0


def test_float_mode_flag(tmp_path, m2_file, good_net_file, capsys):
    code = main(["--mode", "float", "check-diagonal", m2_file, good_net_file])
    assert code == 0


def test_the_parser_is_built_once_and_the_mode_env_is_read_per_call(
        m2_file, good_net_file, monkeypatch, capsys):
    """One process, one parser: each main call still reads AMLAB_MODE, and an
    explicit --mode, before or after the subcommand, beats it."""
    from amlab import cli
    built = []
    build_parser = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda: built.append(1) or build_parser())
    cli._parser.cache_clear()
    try:
        d1 = {}
        for env, flags in [("rational", []), ("float", []), ("float", ["--mode", "rational"]),
                           ("rational", ["--mode", "float"])]:
            monkeypatch.setenv("AMLAB_MODE", env)
            for argv in ([*flags, "check-diagonal", m2_file, good_net_file],
                         ["check-diagonal", m2_file, good_net_file, *flags]):
                assert main(argv) == 0
                payload = json.loads(capsys.readouterr().out)
                d1.setdefault((env, tuple(flags)), set()).add(
                    repr(payload["entries"][0]["rows"][0]["d1"]))
        assert d1 == {("rational", ()): {"'0'"}, ("float", ()): {"0.0"},
                      ("float", ("--mode", "rational")): {"'0'"},
                      ("rational", ("--mode", "float")): {"0.0"}}
        monkeypatch.setenv("AMLAB_MODE", "bogus")
        assert main(["check-diagonal", m2_file, good_net_file]) == 2
        assert "unknown scalar mode 'bogus'" in capsys.readouterr().err
        assert built == [1]
    finally:
        cli._parser.cache_clear()


@pytest.mark.parametrize("meta", [[], 0, False, "", [1], 1, "x"])
def test_a_meta_that_is_not_an_object_exits_2(tmp_path, meta, capsys):
    data = serialize.algebra_to_dict(matrix_algebra(2))
    path = write(tmp_path / "A.json", {**data, "meta": meta})
    assert main(["center", path]) == 2
    assert "meta must be an object" in capsys.readouterr().err
    assert main(["center", write(tmp_path / "B.json", {**data, "meta": None})]) == 0
