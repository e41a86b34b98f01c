"""The command line on the bare interpreter.

`python -S` leaves site-packages off the path, so a runtime dependency fails
here, also one imported lazily on a path that only real jobs run.  Every
job runs `python -S -m amlab.cli ...` (or `python -S -c ...` for a helper
that uses the library) in a temporary directory, with PYTHONPATH set to the
source tree, and must exit 0.  Input files that need no library are written
by the test itself.
"""

import itertools
import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
KINDS = ("jordan", "derivation", "lie", "central_trace")


def bare(cwd, *args, mode=None):
    """Run `python -S args` in cwd, in the given scalar mode (the default when
    None), and require exit 0."""
    env = {k: v for k, v in os.environ.items() if k != "AMLAB_MODE"}
    env["PYTHONPATH"] = str(SRC)
    if mode is not None:
        env["AMLAB_MODE"] = mode
    proc = subprocess.run([sys.executable, "-S", *args], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, f"{args}: exit {proc.returncode}\n{proc.stderr}"


def cli(cwd, *args, mode=None):
    bare(cwd, "-m", "amlab.cli", *args, mode=mode)


def dump(directory, name, obj):
    (directory / name).write_text(json.dumps(obj), encoding="utf-8")


def load(directory, name):
    return json.loads((directory / name).read_text(encoding="utf-8"))


def same_bytes(directory, a, b):
    return (directory / a).read_bytes() == (directory / b).read_bytes()


def json_dumps_bytes(directory, name):
    """The report is json.dumps(indent=2) of its own value and a newline."""
    text = (directory / name).read_text(encoding="utf-8")
    return text == json.dumps(json.loads(text), indent=2) + "\n"


def write_inputs(d):
    """The inputs that need no library: a zero map on M3, the S3 table, the
    elements u = I and E11, and a seed functional."""
    dump(d, "zero.json", {"matrix": [["0"] * 9] * 9})
    p = list(itertools.permutations(range(3)))
    dump(d, "s3g.json", {"table": [[p.index(tuple(s[t[x]] for x in range(3))) for t in p]
                                   for s in p]})
    dump(d, "u3.json", {"coeffs": [[0, "1"], [4, "1"], [8, "1"]]})
    dump(d, "e11.json", {"coeffs": [[0, "1"]]})
    dump(d, "g3.json", {"values": [str(k + 1) for k in range(9)]})


def regular_module_file(d, algebra, module):
    """An algebra's regular bimodule as a file: its own tables, against the
    algebra's shared ones."""
    a = load(d, algebra)
    dump(d, module, {"basis": a["basis"], "weights": a["weights"],
                     "left": a["mul"], "right": a["mul"]})


def net_file(d, tensor, net):
    """The diagonal as a one-entry net, tested on elements b_i - 2 b_{i+4}: the
    opposite actions, contract_swapped, d3 and d4 run as flips of the tensor."""
    dump(d, net, {"tolerance": "0", "entries": [load(d, tensor)["terms"]],
                  "test_set": [{"coeffs": [[i, "1"], [(i + 4) % 9, "-2"]]} for i in range(9)]})


def run_jobs(d, mode, suffix):
    """Every subcommand on M3 and l1(S3) in one scalar mode; each classify kind
    on the regular module and on the same module as a file, which must agree
    byte for byte, so the rows also run on a module's own tables.  The last
    classify report is what json.dumps(indent=2) writes: the writer needs
    nothing beyond the bare stdlib."""
    m3, t3, s3, ts3 = (f"{name}{suffix}.json" for name in ("m3", "t3", "s3", "ts3"))
    cli(d, "build-diagonal", "matrix", "3", "--algebra-out", m3, "--out", t3, mode=mode)
    cli(d, "decompose-jordan", m3, "regular", "zero.json", t3, "--out", "dj.json", mode=mode)
    cli(d, "decompose-jordan", m3, "regular", "zero.json", t3, "--central",
        "--out", "djc.json", mode=mode)
    cli(d, "decompose-lie", m3, "regular", "zero.json", t3, "--out", "dl.json", mode=mode)
    cli(d, "center", m3, "--out", "center.json", mode=mode)
    # l1(S3): group rows carry three entries, so back-substitution meets rows the
    # new pivot's column is in, and the column index drops columns they cancel
    cli(d, "build-diagonal", "group", "s3g.json", "--algebra-out", s3, "--out", ts3, mode=mode)
    for algebra in (m3, s3):
        regular_module_file(d, algebra, f"x-{algebra}")
        for kind in KINDS:
            cli(d, "classify", kind, algebra, "regular", "--out", f"{kind}.json", mode=mode)
            cli(d, "classify", kind, algebra, f"x-{algebra}", "--out", f"{kind}-x.json",
                mode=mode)
            assert same_bytes(d, f"{kind}.json", f"{kind}-x.json"), (algebra, kind)
    assert json_dumps_bytes(d, "lie.json")
    net_file(d, t3, "net3.json")
    cli(d, "check-diagonal", m3, "net3.json", "--require-symmetric", "--out", "check.json",
        mode=mode)
    cli(d, "witness", m3, "u3.json", "--diagonal", t3, "--seed-functional", "g3.json",
        "--out", "witness.json", mode=mode)
    cli(d, "build-diagonal", "ideal", m3, t3, "e11.json", "--out", "ideal.json", mode=mode)


def test_the_help_runs_on_the_bare_interpreter(tmp_path):
    cli(tmp_path, "--help")


def test_rational_jobs_run_on_the_bare_interpreter(tmp_path):
    write_inputs(tmp_path)
    run_jobs(tmp_path, None, "")


def test_float_jobs_run_on_the_bare_interpreter(tmp_path):
    """The same jobs in float mode, where eps is the tolerance."""
    write_inputs(tmp_path)
    run_jobs(tmp_path, "float", "f")


def test_central_traces_of_files_run_on_the_bare_interpreter(tmp_path):
    """T3 and its regular module as files, quotiented by the strictly upper
    ideal, and T3 acting by left multiplication only: central_trace is
    Hom(T3/[T3, T3], Z(W)), of dimension 3 * 3 on the quotient W and 0 on the
    one-sided module, in both modes."""
    d = tmp_path
    bare(d, "-c", "import amlab, amlab.serialize as s; A = amlab.upper_triangular_algebra(3); "
                  "s.dump_json(s.algebra_to_dict(A), 'tri3.json'); "
                  "s.dump_json(s.bimodule_to_dict(amlab.regular_bimodule(A)), 'xtri3.json')")
    dump(d, "upper3.json", {"elements": [{"coeffs": [[k, "1"]]} for k in (1, 2, 4)]})
    cli(d, "quotient", "tri3.json", "xtri3.json", "upper3.json", "--out", "q3.json")
    dump(d, "w3.json", load(d, "q3.json")["bimodule"])
    a = load(d, "tri3.json")
    dump(d, "l3.json", {"basis": a["basis"], "left": a["mul"], "right": []})
    for mode in ("rational", "float"):
        for kind in KINDS:
            cli(d, "classify", kind, "tri3.json", "w3.json", "--out", f"w3-{kind}-{mode}.json",
                mode=mode)
            cli(d, "classify", kind, "tri3.json", "l3.json", "--out", f"l3-{kind}-{mode}.json",
                mode=mode)
        assert load(d, f"w3-central_trace-{mode}.json")["dimension"] == 9
        assert load(d, f"l3-central_trace-{mode}.json")["dimension"] == 0


def test_the_approximate_diagonal_route_runs_on_the_bare_interpreter(tmp_path):
    """t3f nudged off exactness, an inner derivation, --tol 0.1: both reports
    are approximate and carry their bounds."""
    d = tmp_path
    write_inputs(d)
    cli(d, "build-diagonal", "matrix", "3", "--algebra-out", "m3f.json", "--out", "t3f.json",
        mode="float")
    bare(d, "-c", "import amlab, amlab.serialize as s; "
                  "A = s.algebra_from_dict(s.load_json('m3f.json'), 'float'); "
                  "X = amlab.regular_bimodule(A); "
                  "D = amlab.inner_derivation(X, X.element({1: 1.0, 5: -0.5})); "
                  "s.dump_json(s.linear_map_to_dict(D), 'ad3f.json')", mode="float")
    t = load(d, "t3f.json")
    t["terms"] += [[1, 3, 0.01], [3, 1, 0.01]]
    dump(d, "t3fn.json", t)
    cli(d, "decompose-jordan", "m3f.json", "regular", "ad3f.json", "t3fn.json", "--tol", "0.1",
        "--out", "dj-tol.json", mode="float")
    cli(d, "decompose-lie", "m3f.json", "regular", "ad3f.json", "t3fn.json", "--tol", "0.1",
        "--out", "dl-tol.json", mode="float")
    j, lie = load(d, "dj-tol.json"), load(d, "dl-tol.json")
    assert not j["exact"] and j["stage_one_bounds"]
    assert not lie["exact"] and lie["residual_bounds"]
