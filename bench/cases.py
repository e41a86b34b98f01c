"""The workloads: inputs made from a seed, and the fixed list of jobs of a round.

Each workload's generate(directory, seed, amlab_main) writes the JSON inputs
and returns the round's jobs in their fixed order.  A job is one `amlab`
command line and the check that its exit code and report must pass.

The seed picks element coefficients, perturbations, test sets and, in the
classify files, the order of the structure-constant entries.  It never
permutes a basis: that changes the pivot order of every elimination, and
so the cost of a job, from seed to seed.
"""

import json
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import check

KINDS = ("derivation", "jordan", "lie", "central_trace")
SMALL = (-3, -2, -1, 1, 2, 3)


@dataclass
class Job:
    name: str
    argv: list                  # amlab arguments; the round adds --out
    check: object               # check(report, exit_code), raises check.CheckError
    known_fault: str = None     # why the job fails today, when it does


# -- groups and presentations, built here ------------------------------------

def permutation_group(generators):
    """Multiplication table of the permutation group the generators span."""
    n = len(generators[0])

    def compose(s, t):
        return tuple(s[t[x]] for x in range(n))

    elems = {tuple(range(n))}
    frontier = list(elems)
    while frontier:
        new = {compose(s, g) for g in frontier for s in generators} - elems
        elems |= new
        frontier = list(new)
    elems = sorted(elems)
    index = {p: i for i, p in enumerate(elems)}
    return [[index[compose(s, t)] for t in elems] for s in elems]


def cyclic_product(sizes):
    elems = [()]
    for n in sizes:
        elems = [t + (r,) for t in elems for r in range(n)]
    index = {t: i for i, t in enumerate(elems)}
    return [[index[tuple((a + b) % n for a, b, n in zip(x, y, sizes))] for y in elems]
            for x in elems]


S3 = permutation_group([(1, 0, 2), (1, 2, 0)])
S4 = permutation_group([tuple(p) for p in ((1, 0, 2, 3), (1, 2, 3, 0))])
C4xC6 = cyclic_product((4, 6))


def matrix_data(n):
    idx = {(i, j): i * n + j for i in range(n) for j in range(n)}
    mul = [[idx[i, j], idx[j, l], idx[i, l], "1"]
           for i in range(n) for j in range(n) for l in range(n)]
    return {"basis": [f"E{i + 1}_{j + 1}" for i in range(n) for j in range(n)],
            "weights": ["1"] * (n * n), "mul": mul,
            "unit": ["1" if i == j else "0" for i in range(n) for j in range(n)]}


def triangular_data(n):
    pairs = [(i, j) for i in range(n) for j in range(i, n)]
    idx = {p: k for k, p in enumerate(pairs)}
    mul = [[idx[i, j], idx[j, l], idx[i, l], "1"] for (i, j) in pairs for l in range(j, n)]
    return {"basis": [f"E{i + 1}_{j + 1}" for i, j in pairs], "weights": ["1"] * len(pairs),
            "mul": mul, "unit": ["1" if i == j else "0" for i, j in pairs]}


def group_data(table):
    n = len(table)
    return {"basis": [f"g{g}" for g in range(n)], "weights": ["1"] * n,
            "mul": [[g, h, table[g][h], "1"] for g in range(n) for h in range(n)],
            "unit": ["1" if all(table[g][h] == h for h in range(n)) else "0"
                     for g in range(n)]}


def data_of(shape):
    kind, arg = shape
    return {"matrix": matrix_data, "triangular": triangular_data, "group": group_data}[kind](arg)


def rescaled(data, exponent):
    """The same algebra on the basis s_i b_i, s_i = 10^(+-exponent) by index parity."""
    s = [Fraction(10) ** (exponent if i % 2 == 0 else -exponent)
         for i in range(len(data["basis"]))]
    mul = [[i, j, k, str(Fraction(c) * s[i] * s[j] / s[k])] for i, j, k, c in data["mul"]]
    unit = [str(Fraction(c) / s[i]) for i, c in enumerate(data["unit"])]
    return dict(data, mul=mul, unit=unit)


def write(path, obj):
    Path(path).write_text(json.dumps(obj), encoding="utf-8")
    return str(path)


def shuffled(data, rng):
    mul = list(data["mul"])
    rng.shuffle(mul)
    return dict(data, mul=mul)


# -- classify ----------------------------------------------------------------------

# (name, shape, kinds).  S4 keeps two of its four kinds: all four take about
# 7.5 s, longer than every other workload's whole round.
CLASSIFY_CASES = [("T5", ("triangular", 5), KINDS), ("M5", ("matrix", 5), KINDS),
                  ("S4", ("group", S4), ("derivation", "central_trace"))]
RESCALED_CASES = [("M3x1e6", 3), ("M4x1e6", 4)]
RESCALED_FAULT = ("float mode uses an absolute tolerance in linalg._pick_pivot and "
                  "linalg.vec_chop, so a rescaled basis changes the dimensions")


def classify_jobs(directory, seed, mode):
    rng = random.Random(f"classify:{seed}")
    exact = mode == "rational"
    cases = [(name, shape, kinds, shuffled(data_of(shape), rng), None)
             for name, shape, kinds in CLASSIFY_CASES]
    if not exact:
        cases += [(name, ("matrix", n), KINDS, rescaled(matrix_data(n), 6), RESCALED_FAULT)
                  for name, n in RESCALED_CASES]
    jobs = []
    for name, shape, kinds, data, fault in cases:
        path = write(Path(directory) / f"{name}.json", data)
        A = check.Presentation(data, exact)
        for kind in kinds:
            # a known fault must fail alike on every seed, so its check is not seeded
            job_rng = random.Random(f"classify:{'fixed' if fault else seed}:{name}:{kind}")

            def run_check(report, rc, A=A, shape=shape, kind=kind, job_rng=job_rng):
                check.check_classify(report, rc, A, shape, kind, job_rng)

            jobs.append(Job(f"classify {kind} {name}",
                            ["classify", kind, path, "regular", "--mode", mode],
                            run_check, fault))
    return jobs


def generate_classify(directory, seed, amlab_main):
    return classify_jobs(directory, seed, "rational")


def generate_classify_float(directory, seed, amlab_main):
    return classify_jobs(directory, seed, "float")


# -- exact diagonals, built by amlab ------------------------------------------------

def build_diagonal(directory, name, shape, amlab_main, parts=()):
    """Run `amlab build-diagonal` for a shape; returns (algebra path, tensor path)."""
    d = Path(directory)
    alg, tensor = str(d / f"{name}.json"), str(d / f"t{name}.json")
    kind, arg = shape
    if kind == "matrix":
        argv = ["matrix", str(arg)]
    elif kind == "group":
        argv = ["group", write(d / f"{name}-group.json", {"table": arg})]
    else:
        argv = ["direct-sum"] + [p for part in parts for p in part]
    rc = amlab_main(["build-diagonal"] + argv + ["--algebra-out", alg, "--out", tensor])
    check.require(rc == 0, f"build-diagonal {name} exited with {rc}")
    return alg, tensor


def build_cases(directory, cases, amlab_main):
    """Build every case's algebra and exact diagonal; a sum names its blocks."""
    built = {}
    for name, shape in cases:
        parts = [built[block][:2] for block in shape[1]] if shape[0] == "sum" else ()
        shape = ("sum", [built[block][2] for block in shape[1]]) if parts else shape
        built[name] = build_diagonal(directory, name, shape, amlab_main, parts) + (shape,)
    return built


def load(path):
    return check.Presentation(json.loads(Path(path).read_text(encoding="utf-8")))


def traces_and_centrals(shape, offset=0):
    """Functionals killing commutators, and central elements, spanning each family."""
    kind, arg = shape
    if kind == "matrix":  # the trace, and the identity
        diagonal = {offset + i * arg + i: 1 for i in range(arg)}
        return [diagonal], [diagonal]
    if kind == "group":  # class indicators, and class sums
        classes = [{offset + g: 1 for g in c} for c in check.conjugacy_classes(arg)]
        return classes, classes
    traces, centrals = [], []
    for part in arg:
        t, c = traces_and_centrals(part, offset)
        traces += t
        centrals += c
        offset += check.invariants(part)[0]
    return traces, centrals


def dense(images, dim):
    return [[str(img.get(k, 0)) for k in range(dim)] for img in images]


def element(coeffs, label=None):
    out = {"coeffs": [[i, str(c)] for i, c in sorted(coeffs.items())]}
    if label is not None:
        out["label"] = label
    return out


def random_element(rng, dim, size):
    return {i: rng.choice(SMALL) for i in rng.sample(range(dim), size)}


# -- decompose ---------------------------------------------------------------------

DECOMPOSE_CASES = [("M5", ("matrix", 5)), ("M6", ("matrix", 6)), ("S4", ("group", S4)),
                   ("M3", ("matrix", 3)), ("S3", ("group", S3)),
                   ("M3+S3", ("sum", ["M3", "S3"]))]
DECOMPOSE_RUN = ("M5", "M6", "S4", "M3+S3")


def generate_decompose(directory, seed, amlab_main):
    rng = random.Random(f"decompose:{seed}")
    built = build_cases(directory, DECOMPOSE_CASES, amlab_main)
    jobs = []
    for name in DECOMPOSE_RUN:
        alg, tensor, shape = built[name]
        A = load(alg)
        x = {i: rng.choice(SMALL) for i in range(A.dim)}
        inner = check.inner_images(A, x)
        traces, centrals = traces_and_centrals(shape)
        z = {}
        for c in centrals:
            check.add_scaled(z, c, rng.choice(SMALL))
        lam = {}
        for t in traces:
            check.add_scaled(lam, t, rng.choice(SMALL))
        tau = [check.add_scaled({}, z, lam.get(q, 0)) for q in range(A.dim)]
        lie = [check.add_scaled(dict(a), b, 1) for a, b in zip(inner, tau)]
        d = Path(directory)
        jordan_map = write(d / f"ad-{name}.json", {"matrix": dense(inner, A.dim)})
        lie_map = write(d / f"lie-{name}.json", {"matrix": dense(lie, A.dim)})
        jobs.append(Job(f"decompose-jordan {name}",
                        ["decompose-jordan", alg, "regular", jordan_map, tensor],
                        lambda r, rc, A=A, D=inner, x=x: check.check_jordan(r, rc, A, D, x)))
        jobs.append(Job(f"decompose-lie {name}",
                        ["decompose-lie", alg, "regular", lie_map, tensor],
                        lambda r, rc, A=A, x=x, tau=tau: check.check_lie(r, rc, A, x, tau)))
    return jobs


# -- verify ------------------------------------------------------------------------

VERIFY_CASES = [("S4", ("group", S4)), ("C4xC6", ("group", C4xC6)), ("M8", ("matrix", 8)),
                ("M4", ("matrix", 4)), ("S3", ("group", S3)), ("M4+S3", ("sum", ["M4", "S3"]))]
VERIFY_RUN = ("S4", "C4xC6", "M8", "M4+S3")
TEST_ELEMENTS = 6
CONVERGENCE_N = 8


def truncated_terms(n, N):
    """(1/n) sum_{i,j<n} E_ij (x) E_ji inside the N-by-N matrix units, as terms."""
    c = str(Fraction(1, n))
    return [[i * N + j, j * N + i, c] for i in range(n) for j in range(n)]


def perturbed_terms(terms, rng, dim):
    t = check.parse_tensor(terms)
    p, q = rng.sample(range(dim), 2)
    eps = Fraction(1, rng.randint(2, 9))
    check.add_scaled(t, {(p, q): eps, (q, p): eps}, 1)
    return [[i, j, str(c)] for (i, j), c in sorted(t.items())]


def verify_jobs_for(name, alg, tensor, shape, directory, rng):
    d = Path(directory)
    A = load(alg)
    terms = json.loads(Path(tensor).read_text(encoding="utf-8"))["terms"]
    tests = [element(random_element(rng, A.dim, 3), f"a{k}") for k in range(TEST_ELEMENTS)]
    jobs = []

    def net_job(label, entries, tail=None):
        net = {"tolerance": "0", "entries": entries, "test_set": tests}
        path = write(d / f"net-{label}-{name}.json", net)
        jobs.append(Job(f"check-diagonal {label} {name}",
                        ["check-diagonal", alg, path, "--require-symmetric"],
                        lambda r, rc: check.check_net(r, rc, A, net, tail)))

    net_job("exact", [terms])
    if shape[0] == "matrix":
        N = shape[1]
        net_job("truncated", [truncated_terms(n, N) for n in range(1, N)],
                (list(range(1, N)), N))
    else:
        net_job("perturbed", [perturbed_terms(terms, rng, A.dim)])

    unit = dict(A.unit)
    z_path = write(d / f"unit-{name}.json", element(unit))
    g_path = write(d / f"g-{name}.json",
                   {"values": [str(rng.randint(1, 5)) for _ in range(A.dim)]})
    jobs.append(Job(f"witness unit {name}",
                    ["witness", alg, z_path, "--diagonal", tensor, "--seed-functional", g_path],
                    lambda r, rc: check.check_feasible(r, rc, A, unit, True)))
    pairs = [(p, q) for p in range(A.dim) for q in range(p + 1, A.dim)
             if A.commutator({p: 1}, {q: 1})]
    if pairs:
        z = A.commutator(*({i: 1} for i in rng.choice(pairs)))
        path = write(d / f"commutator-{name}.json", element(z))
        jobs.append(Job(f"witness commutator {name}", ["witness", alg, path],
                        lambda r, rc: check.check_infeasible(r, rc, A, z)))
    else:  # commutative: every nonzero element admits a witness
        z = random_element(rng, A.dim, 3)
        path = write(d / f"element-{name}.json", element(z))
        jobs.append(Job(f"witness element {name}", ["witness", alg, path],
                        lambda r, rc: check.check_feasible(r, rc, A, z, False)))
    jobs.append(Job(f"center {name}", ["center", alg],
                    lambda r, rc: check.check_center(r, rc, A, shape)))
    return jobs


def generate_verify(directory, seed, amlab_main):
    rng = random.Random(f"verify:{seed}")
    built = build_cases(directory, VERIFY_CASES, amlab_main)
    jobs = []
    for name in VERIFY_RUN:
        alg, tensor, shape = built[name]
        jobs += verify_jobs_for(name, alg, tensor, shape, directory, rng)
    N = CONVERGENCE_N
    elements = [element(random_element(rng, N * N, 4), f"a{k}") for k in range(3)]
    path = write(Path(directory) / "convergence-elements.json", {"elements": elements})
    jobs.append(Job(f"convergence-table {N}",
                    ["convergence-table", str(N), path, "--format", "json"],
                    lambda r, rc: check.check_convergence(r, rc, N, elements)))
    return jobs


WORKLOADS = {
    "classify": generate_classify,
    "classify-float": generate_classify_float,
    "decompose": generate_decompose,
    "verify": generate_verify,
}
