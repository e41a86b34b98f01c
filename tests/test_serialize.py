"""Round trips: every emitted JSON artifact re-parses to an equal value."""

import json
import random
from fractions import Fraction

import pytest

from amlab import (DiagonalNet, Functional, LinearMap, SchemaError,
                   basis_test_set, defect_report, matrix_algebra,
                   matrix_diagonal, regular_bimodule, trace_feasibility)
from amlab import scalars, serialize


def through_json(obj):
    return json.loads(json.dumps(obj))


def test_algebra_round_trip(m2):
    data = through_json(serialize.algebra_to_dict(m2))
    back = serialize.algebra_from_dict(data, "rational")
    assert back.structurally_equal(m2)


def test_algebra_round_trip_with_weights_and_rationals():
    from amlab import AlgebraPresentation
    A = AlgebraPresentation(["p", "q"], {(0, 1): {0: Fraction(1, 3)},
                                         (1, 1): {1: Fraction(1, 3)}},
                            weights=[Fraction(1, 2), 2])
    data = through_json(serialize.algebra_to_dict(A))
    back = serialize.algebra_from_dict(data, "rational")
    assert back.structurally_equal(A)
    assert back.weights == (Fraction(1, 2), Fraction(2))


def test_element_round_trip(m2):
    x = m2.element({"E11": Fraction(-7, 3), "E21": 4})
    data = through_json(serialize.element_to_dict(x, label="probe"))
    back = serialize.element_from_dict(data, m2)
    assert back == x
    assert data["label"] == "probe"


def test_tensor_round_trip(m2):
    t = matrix_diagonal(2, algebra=m2)
    data = through_json(serialize.tensor_to_dict(t))
    assert serialize.tensor_from_dict(data, m2) == t


def test_net_round_trip(m2):
    els, labels = basis_test_set(m2)
    net = DiagonalNet([matrix_diagonal(2, algebra=m2)], els,
                      Fraction(1, 9), labels)
    data = through_json(serialize.net_to_dict(net))
    back = serialize.net_from_dict(data, m2)
    assert back.tolerance == Fraction(1, 9)
    assert back.labels == labels
    assert back.entries[0] == net.entries[0]
    assert back.test_set == els


def test_functional_round_trip(m2):
    f = Functional(m2, [Fraction(1, 2), 0, 0, Fraction(1, 2)])
    data = through_json(serialize.functional_to_dict(f))
    assert serialize.functional_from_dict(data, m2) == f


def test_feasibility_round_trip_shapes(m2):
    res = trace_feasibility(m2, m2.unit_element())
    data = through_json(serialize.feasibility_to_dict(res))
    assert data["decision"] == "FEASIBLE"
    f = serialize.functional_from_dict(data["functional"], m2)
    assert f(m2.unit_element()) == 1
    res2 = trace_feasibility(m2, m2.element({"E12": 1}))
    data2 = through_json(serialize.feasibility_to_dict(res2))
    assert data2["decision"] == "INFEASIBLE"
    assert all(len(entry) == 3 for entry in data2["certificate"])


def test_bimodule_round_trip(m2):
    X = regular_bimodule(m2)
    data = through_json(serialize.bimodule_to_dict(X))
    back = serialize.bimodule_from_dict(data, m2)
    assert back.left == X.left
    assert back.right == X.right
    assert back.weights == X.weights


def test_linear_map_round_trip(m2):
    X = regular_bimodule(m2)
    rng = random.Random(3)
    m = LinearMap(m2, X, [{rng.randrange(4): Fraction(rng.randint(-3, 3), 2)}
                          for _ in range(4)])
    data = through_json(serialize.linear_map_to_dict(m))
    back = serialize.linear_map_from_dict(data, m2, X)
    assert back == m


def test_defect_report_csv_header(m2):
    els, labels = basis_test_set(m2)
    report = defect_report(DiagonalNet([matrix_diagonal(2, algebra=m2)], els, 0, labels))
    text = serialize.defect_report_csv(report)
    lines = text.strip().splitlines()
    assert lines[0] == "entry_index,element_label,d1,d2,d3,d4,symmetric,verdict"
    assert len(lines) == 1 + len(els)
    assert lines[1].startswith("0,E11,0,0,0,0,True,True")


def test_csv_float_rendering_17_digits():
    from amlab.scalars import render
    assert render(Fraction(1, 3)) == "1/3"
    assert render(0.1) == "0.10000000000000001"
    assert float(render(1.0 / 3.0)) == 1.0 / 3.0


def test_schema_errors():
    with pytest.raises(SchemaError):
        serialize.algebra_from_dict({"basis": ["a"]}, "rational")  # missing mul
    with pytest.raises(SchemaError):
        serialize.tensor_from_dict({"terms": [[0, 0]]}, matrix_algebra(1))
    with pytest.raises(SchemaError):
        serialize.element_from_dict({"coeffs": [["E11", 1]]}, matrix_algebra(2))


def test_float_mode_parses_rational_strings():
    data = {"basis": ["u"], "weights": [1], "mul": [[0, 0, 0, "1/2"]], "unit": None}
    A = serialize.algebra_from_dict(data, "float")
    assert A.product_indices(0, 0)[0] == 0.5


# -- the report writer --------------------------------------------------------

def write_json(path, obj):
    path.write_text(json.dumps(obj), encoding="utf-8")
    return str(path)


def write_library_inputs(d):
    """The inputs no job writes: the S3 table, maps and elements on M3."""
    import itertools
    p = list(itertools.permutations(range(3)))
    write_json(d / "s3g.json", {"table": [[p.index(tuple(s[t[x]] for x in range(3)))
                                            for t in p] for s in p]})
    write_json(d / "id3.json", {"matrix": [[int(i == j) for j in range(9)] for i in range(9)]})
    write_json(d / "u3.json", {"coeffs": [[0, "1"], [4, "1"], [8, "1"]]})
    write_json(d / "e11.json", {"coeffs": [[0, "1"]]})
    write_json(d / "g3.json", {"values": [str(k + 1) for k in range(9)]})
    write_json(d / "tests3.json", {"elements": [{"label": "E₁₂ \"q\"\\\t",
                                                 "coeffs": [[1, "1/3"]]}, {"coeffs": []}]})
    write_json(d / "all3.json", {"elements": [{"coeffs": [[k, "1"]]} for k in range(9)]})
    write_json(d / "sum6.json", {"elements": [{"coeffs": [[k, "1"] for k in range(6)]}]})


BUILD_JOBS = [
    ["build-diagonal", "matrix", "3", "--algebra-out", "m3.json", "--out", "t3.json"],
    ["build-diagonal", "group", "s3g.json", "--algebra-out", "s3.json", "--out", "ts3.json"],
    ["build-diagonal", "truncated", "2", "3", "--algebra-out", "tr.json"],
    ["build-diagonal", "ideal", "m3.json", "t3.json", "e11.json"],
    ["build-diagonal", "direct-sum", "m3.json", "t3.json", "s3.json", "ts3.json",
     "--algebra-out", "sum.json"],
    ["build-diagonal", "pushforward", "m3.json", "m3.json", "id3.json", "t3.json"],
]


def write_algebra_inputs(d, mode, name, tensor):
    """A net, an inner derivation and the zero map on the algebra in name."""
    from amlab import inner_derivation
    A = serialize.algebra_from_dict(json.loads((d / f"{name}.json").read_text()), mode)
    write_json(d / f"net-{name}.json", {
        "tolerance": "0", "entries": [json.loads((d / tensor).read_text())["terms"]],
        "test_set": [{"coeffs": [[i, "1"], [(i + 1) % A.dim, "-1/2"]]} for i in range(A.dim)]})
    X = regular_bimodule(A)
    D = inner_derivation(X, X.element({1: 1, A.dim - 1: -2}))
    write_json(d / f"ad-{name}.json", serialize.linear_map_to_dict(D))
    write_json(d / f"zero-{name}.json", {"matrix": [["0"] * A.dim] * A.dim})


def algebra_jobs(name, tensor):
    algebra = f"{name}.json"
    return [["check-diagonal", algebra, f"net-{name}.json", "--require-symmetric"],
            ["decompose-jordan", algebra, "regular", f"ad-{name}.json", tensor,
             "--out-omega", "omega.json"],
            ["decompose-jordan", algebra, "regular", f"zero-{name}.json", tensor, "--central"],
            ["decompose-lie", algebra, "regular", f"ad-{name}.json", tensor,
             "--out-inner", "inner.json", "--out-trace", "trace.json"],
            ["center", algebra]] + [
            ["classify", kind, algebra, "regular"]
            for kind in ("derivation", "jordan", "lie", "central_trace")]


OTHER_JOBS = [
    ["convergence-table", "3", "tests3.json", "--format", "json"],
    ["witness", "m3.json", "u3.json", "--diagonal", "t3.json", "--seed-functional", "g3.json"],
    ["witness", "m3.json", "e11.json"],
    ["quotient", "m3.json", "regular", "all3.json"],
    ["quotient", "s3.json", "regular", "sum6.json"],
]


@pytest.mark.parametrize("mode", ["rational", "float"])
def test_every_report_is_json_dumps_indent_2_byte_for_byte(tmp_path, monkeypatch, mode):
    """dump_json writes what json.dumps(obj, indent=2) writes, on every report
    of every subcommand on M3 and l1(S3)."""
    from amlab.cli import main
    written = []
    dump_json = serialize.dump_json

    def recording(obj, path=None):
        written.append(obj)
        return dump_json(obj, path)

    monkeypatch.setattr(serialize, "dump_json", recording)
    monkeypatch.chdir(tmp_path)
    write_library_inputs(tmp_path)
    jobs = list(BUILD_JOBS)
    for argv in BUILD_JOBS:
        assert main(argv + ["--mode", mode]) == 0, argv
    for name, tensor in (("m3", "t3.json"), ("s3", "ts3.json")):
        write_algebra_inputs(tmp_path, mode, name, tensor)
        for argv in algebra_jobs(name, tensor):
            assert main(argv + ["--mode", mode]) in (0, 1), argv
        jobs += algebra_jobs(name, tensor)
    for argv in OTHER_JOBS:
        assert main(argv + ["--mode", mode]) in (0, 1), argv
    jobs += OTHER_JOBS
    assert {argv[0] for argv in jobs} == {
        "build-diagonal", "check-diagonal", "convergence-table", "witness",
        "decompose-jordan", "decompose-lie", "classify", "center", "quotient"}
    assert len(written) == len(jobs) + 4 + 2 * 3   # --algebra-out, --out-*
    for obj in written:
        assert dump_json(obj) == json.dumps(obj, indent=2)


def edge_shapes():
    from amlab.tensor import Tensor2
    A = matrix_algebra(2, mode="float")
    t = Tensor2.from_terms(A, [(0, 0, float("nan")), (1, 2, float("inf")),
                               (3, 3, -float("inf")), (2, 1, 5e-324), (1, 1, 1e16)])
    return [
        [], {}, [[]], [{}], {"a": []}, {"a": {}}, [[[], {}], {"b": [[{}]]}],
        -0.0, 0.0, 5e-324, 1e16, float("nan"), float("inf"), -float("inf"),
        serialize.tensor_to_dict(t),
        {"values": [1.0, -0.0, 5e-324, 1e16, 1e-7, 2.5e300]},
        {"values": [1.0, float("nan"), float("inf"), -float("inf"), -0.0]},
        ["é", "E₁₂", "\U0001d49c", 'say "hi"', "back\\slash",
         "ctl\x00\x01\x1f\x7f\t\n\r", ""],
        {"é\"\\\n": "∀", "": ""},
        True, False, None, [True, False, None], {"t": True, "f": False, "n": None},
        2 ** 63, -(2 ** 64) - 1, [2 ** 100, 0, -1],
        [[0, 1, "1/2"], [2, 3, 0.25], [4, 5, 1]], [1, "a", 1.5, None, True, [], {}],
        {1: "one", -2: [1.0], 3.5: {}, True: 0, None: "null"},
        ("tuple", ["in", ("tuples",)]),
        "top-level string",
    ]


@pytest.mark.parametrize("obj", edge_shapes())
def test_edge_shapes_are_json_dumps_indent_2_byte_for_byte(obj):
    assert serialize.dump_json(obj) == json.dumps(obj, indent=2)


def test_dump_json_writes_the_text_and_a_final_newline(tmp_path):
    obj = {"x": [-0.0, "1/2", {}]}
    serialize.dump_json(obj, tmp_path / "out.json")
    assert (tmp_path / "out.json").read_text(encoding="utf-8") == \
        json.dumps(obj, indent=2) + "\n"


@pytest.mark.parametrize("key", [(1, 2), frozenset()])
def test_dump_json_rejects_keys_json_rejects(key):
    with pytest.raises(TypeError):
        json.dumps({key: 1}, indent=2)
    with pytest.raises(TypeError):
        serialize.dump_json({key: 1})


# -- table literals ------------------------------------------------------------

def test_a_table_coerces_each_string_literal_once_and_other_values_each_time():
    seen = []

    def scalar(c):
        seen.append(c)
        return scalars.coerce(c, "float")

    entries = [[0, 0, 0, "1/2"], [0, 0, 1, "1/2"], [0, 1, 0, "1/2"], [1, 0, 0, 1],
               [1, 1, 0, 1.0], [1, 1, 1, -0.0], [0, 1, 1, 0.0], [0, 0, 0, "1/2"]]
    table = serialize._table(entries, "mul", "[i, j, k, coeff]", scalar)
    assert [repr(c) for c in seen] == ["'1/2'", "1", "1.0", "-0.0", "0.0"]
    assert table == {(0, 0): {0: 1.0, 1: 0.5}, (0, 1): {0: 0.5, 1: 0.0},
                     (1, 0): {0: 1.0}, (1, 1): {0: 1.0, 1: -0.0}}


@pytest.mark.parametrize("mode", ["rational", "float"])
def test_a_boolean_after_an_equal_number_is_still_no_scalar(tmp_path, mode, capsys):
    from amlab.cli import main
    data = {"basis": ["a"], "mul": [[0, 0, 0, 1], [0, 0, 0, True]]}
    with pytest.raises(SchemaError, match="boolean is not a scalar"):
        serialize.algebra_from_dict(data, mode)
    path = write_json(tmp_path / "A.json", data)
    assert main(["center", path, "--mode", mode]) == 2
    assert "boolean is not a scalar" in capsys.readouterr().err


def test_each_unit_entry_is_coerced_once(monkeypatch):
    coerced = []
    coerce = scalars.coerce
    monkeypatch.setattr(scalars, "coerce",
                        lambda value, mode: coerced.append(value) or coerce(value, mode))
    data = serialize.algebra_to_dict(matrix_algebra(2))
    data["unit"] = ["2/2", "0/5", "0/5", "2/2"]
    A = serialize.algebra_from_dict(data, "rational")
    assert A.unit == {0: 1, 3: 1}
    assert sum(value in data["unit"] for value in coerced) == 4
