"""Tests of the benchmark itself: every workload at a tiny size, and checks
that reject corrupted reports.

    python3 -m pytest bench
"""

import copy
import json
import shutil
import subprocess
import sys
from fractions import Fraction

import pytest

import cases
import check
import run
import spans

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
S3 = ("group", cases.S3)


@pytest.fixture
def tiny(monkeypatch):
    """Shrink every workload to algebras of dimension 9 or less."""
    monkeypatch.setattr(cases, "CLASSIFY_CASES", [("T3", ("triangular", 3), cases.KINDS),
                                                  ("M2", ("matrix", 2), cases.KINDS),
                                                  ("S3", S3, ("derivation", "central_trace"))])
    monkeypatch.setattr(cases, "RESCALED_CASES", [("M3x1e6", 3)])
    monkeypatch.setattr(cases, "DECOMPOSE_CASES", [("M2", ("matrix", 2)), ("S3", S3),
                                                   ("M2+S3", ("sum", ["M2", "S3"]))])
    monkeypatch.setattr(cases, "DECOMPOSE_RUN", ("M2", "S3", "M2+S3"))
    monkeypatch.setattr(cases, "VERIFY_CASES", [
        ("S3", S3), ("C2xC3", ("group", cases.cyclic_product((2, 3)))),
        ("M3", ("matrix", 3)), ("M2", ("matrix", 2)), ("M2+S3", ("sum", ["M2", "S3"]))])
    monkeypatch.setattr(cases, "VERIFY_RUN", ("S3", "C2xC3", "M3", "M2+S3"))
    monkeypatch.setattr(cases, "CONVERGENCE_N", 3)
    monkeypatch.setattr(run, "SETUP_REPEATS", 1)


@pytest.mark.parametrize("workload", sorted(cases.WORKLOADS))
@pytest.mark.parametrize("trace", [0, 1])
def test_every_workload_runs_and_checks(tiny, workload, trace):
    result = run.run(workload, seed=7, seconds=0, trace=trace)
    assert result["correct"] is True
    # the rescaled M3 fails on all four kinds, and it is the only failure
    assert result["failed"] == (4 if workload == "classify-float" else 0)
    listed = SPEC["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in listed} == \
        {name: m["unit"] for name, m in result["metrics"].items()}
    assert all(m["value"] > 0 for m in result["metrics"].values()) or trace


def test_same_seed_same_inputs(tiny, tmp_path):
    for seed, name in [(3, "a"), (3, "b"), (4, "c")]:
        (tmp_path / name).mkdir()
        cases.generate_classify(tmp_path / name, seed, None)
    read = {n: (tmp_path / n / "S3.json").read_text() for n in "abc"}
    assert read["a"] == read["b"] != read["c"]


@pytest.fixture
def reports(tiny, tmp_path):
    """Genuine reports of every tiny job: name -> (job, report, exit code)."""
    cli = run.import_amlab_cli()
    out = {}
    for workload, generate in cases.WORKLOADS.items():
        directory = tmp_path / workload
        directory.mkdir()
        for job in generate(directory, 5, cli.main):
            path = directory / "report.json"
            rc = run.run_job(cli, job, path)[0]
            out[f"{workload}: {job.name}"] = (job, json.loads(path.read_text()), rc)
    return out


def rejects(entry, corrupt):
    job, report, rc = entry
    job.check(copy.deepcopy(report), rc)  # the genuine report passes
    bad = copy.deepcopy(report)
    rc = corrupt(bad) or rc  # a corruption may return the exit code that goes with it
    with pytest.raises(check.CheckError):
        job.check(bad, rc)


def test_classify_check_rejects_a_wrong_dimension(reports):
    def off_by_one(r):
        r["dimension"] += 1
    rejects(reports["classify: classify derivation S3"], off_by_one)


def test_classify_check_rejects_a_map_breaking_the_identity(reports):
    def perturb(r):
        r["basis"][0][0][0] = str(Fraction(r["basis"][0][0][0]) + 1)
    for kind in cases.KINDS:
        rejects(reports[f"classify: classify {kind} M2"], perturb)


def test_classify_check_rejects_a_dependent_basis(reports):
    def duplicate(r):
        r["basis"][-1] = r["basis"][0]
    rejects(reports["classify: classify lie M2"], duplicate)


def test_jordan_check_rejects_omega_shifted_by_a_non_central_element(reports):
    entry = reports["decompose: decompose-jordan S3"]

    def shift(r, g):
        r["omega"]["coeffs"].append([g, "1"])

    job, report, rc = entry
    central = copy.deepcopy(report)
    identity = next(g for g in range(6) if cases.S3[g] == list(range(6)))
    shift(central, identity)  # omega + e still splits D
    job.check(central, rc)
    rejects(entry, lambda r: shift(r, (identity + 1) % 6))


def test_lie_check_rejects_a_changed_trace(reports):
    def change(r):
        r["central_trace_matrix"][0][0] = str(Fraction(r["central_trace_matrix"][0][0]) + 1)
    rejects(reports["decompose: decompose-lie M2+S3"], change)


def test_infeasible_check_rejects_a_changed_certificate_coefficient(reports):
    def change(r):
        r["certificate"][0][2] = str(Fraction(r["certificate"][0][2]) * 2)
    rejects(reports["verify: witness commutator S3"], change)


def test_feasible_check_rejects_a_functional_not_killing_commutators(reports):
    def change(r):
        r["functional"]["values"][1] = str(Fraction(r["functional"]["values"][1]) + 1)
    rejects(reports["verify: witness unit M3"], change)


def test_net_check_rejects_a_changed_defect_and_a_flipped_verdict(reports):
    def defect(r):
        r["entries"][0]["rows"][0]["d2"] = "1/7"
    rejects(reports["verify: check-diagonal perturbed S3"], defect)

    def verdict(r):
        r["verdict"] = r["entries"][-1]["verdict"] = True
        return 0
    rejects(reports["verify: check-diagonal truncated M3"], verdict)


def test_center_check_rejects_a_wrong_basis(reports):
    def extra(r):
        r["elements"].append({"coeffs": [[1, "1"]]})
    rejects(reports["verify: center S3"], extra)


def test_convergence_check_rejects_a_changed_tail_bound(reports):
    def change(r):
        r[0]["tail_bound"] = str(Fraction(r[0]["tail_bound"]) + 1)
    rejects(reports["verify: convergence-table 3"], change)


def test_a_job_that_raises_or_writes_no_report_is_a_failure(tmp_path):
    cli = run.import_amlab_cli()
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"basis": ["a"], "weights": 5, "mul": [[0, 0, 0, 1]]}))
    for path, want in [(bad, None), (tmp_path / "missing.json", 2)]:
        job = cases.Job("center", ["center", str(path)], lambda r, rc: None)
        rc, _, _, error = run.run_job(cli, job, tmp_path / "out.json")
        assert rc == want and (error is None) == (want is not None)
        assert not run.Judge().judge(0, job, rc, tmp_path / "out.json", error)


def test_triples_checked_matches_the_associativity_check(monkeypatch):
    run.import_amlab_cli()
    from amlab import algebra, catalog
    seen = []
    original = algebra.AlgebraPresentation._check_triple
    monkeypatch.setattr(algebra.AlgebraPresentation, "_check_triple",
                        lambda self, i, j, k: seen.append(1) or original(self, i, j, k))
    group = catalog.group_algebra(cases.S3)
    for build in (lambda: catalog.matrix_algebra(3), lambda: catalog.upper_triangular_algebra(4),
                  lambda: algebra.unitize(group)):
        seen.clear()
        A = build()
        assert spans.triples_checked(A) == len(seen)


def test_tracer_wraps_every_alias_and_restores_it():
    run.import_amlab_cli()
    from amlab import derivations, diagonals
    original = diagonals.defects
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert derivations.defects is diagonals.defects is not original
    finally:
        tracer.uninstall()
    assert derivations.defects is diagonals.defects is original


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copytree(run.BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    out = subprocess.run([sys.executable, "bench/run.py", "--workload", "verify", "--seed", "1",
                          "--seconds", "1", "--trace", "0"],
                         cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert out.returncode != 0
    assert '"correct"' not in out.stdout
