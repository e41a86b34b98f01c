"""Checks of amlab reports, made without amlab.

Nothing here imports amlab.  Presentations are read back from the JSON
files the jobs consumed, and every product, defect, dimension and
certificate is recomputed from the structure constants by the code below.
Each check raises CheckError with the reason when a report is wrong.
"""

from fractions import Fraction

PRIME = (1 << 61) - 1
FLOAT_TOL = 1e-6


class CheckError(Exception):
    """A report disagrees with the independent computation."""


def require(cond, message):
    if not cond:
        raise CheckError(message)


def scalar(value, exact=True):
    """A JSON scalar ("p/q" string, int or float) as a Fraction or a float."""
    require(not isinstance(value, bool), f"boolean is not a scalar: {value!r}")
    if exact:
        return Fraction(value)
    return float(Fraction(value)) if isinstance(value, str) else float(value)


def sparse(values, exact=True):
    """The nonzero entries of a dense list of JSON scalars, by index."""
    out = {}
    for k, c in enumerate(values):
        c = scalar(c, exact)
        if c != 0:
            out[k] = c
    return out


def add_scaled(target, src, factor):
    """target += factor * src on sparse dicts, dropping exact zeros."""
    if factor == 0:
        return target
    for i, x in src.items():
        y = target.get(i, 0) + factor * x
        if y == 0:
            target.pop(i, None)
        else:
            target[i] = y
    return target


def sub(u, v):
    return add_scaled(dict(u), v, -1)


def is_small(v, exact, scale=1):
    if exact:
        return not v
    return all(abs(x) <= FLOAT_TOL * scale for x in v.values())


class Presentation:
    """Structure constants read from an algebra JSON file."""

    def __init__(self, data, exact=True):
        self.exact = exact
        self.dim = len(data["basis"])
        self.weights = [scalar(w, exact) for w in data.get("weights") or [1] * self.dim]
        self.mul = {}
        for i, j, k, c in data["mul"]:
            add_scaled(self.mul.setdefault((i, j), {}), {k: scalar(c, exact)}, 1)
        unit = data.get("unit")
        self.unit = None if unit is None else sparse(unit, exact)

    def product(self, u, v):
        out = {}
        for i, a in u.items():
            for j, b in v.items():
                row = self.mul.get((i, j))
                if row:
                    add_scaled(out, row, a * b)
        return out

    def commutator(self, u, v):
        return sub(self.product(u, v), self.product(v, u))

    def norm(self, u):
        return sum(abs(c) * self.weights[i] for i, c in u.items())

    def is_central(self, u):
        return all(is_small(self.commutator(u, {i: 1}), self.exact)
                   for i in range(self.dim))

    def apply(self, images, u):
        """The map with images[j] the image of b_j, applied to u."""
        out = {}
        for j, c in u.items():
            add_scaled(out, images[j], c)
        return out


# -- theory: dimensions the classification must find ---------------------------

def conjugacy_classes(table):
    """Conjugacy classes of a group table (table[g][h] is the index of gh)."""
    n = len(table)
    identity = next(e for e in range(n) if all(table[e][g] == g for g in range(n)))
    inverse = [next(h for h in range(n) if table[g][h] == identity) for g in range(n)]
    seen = set()
    classes = []
    for g in range(n):
        if g in seen:
            continue
        orbit = {table[table[h][g]][inverse[h]] for h in range(n)}
        seen |= orbit
        classes.append(sorted(orbit))
    return classes


def invariants(shape):
    """(dim A, dim Z(A), dim A/[A,A]) of a case shape.

    A shape is ("matrix", n), ("triangular", n), ("group", table) or
    ("sum", [shape, ...]).
    """
    kind, arg = shape
    if kind == "matrix":
        return arg * arg, 1, 1
    if kind == "triangular":
        return arg * (arg + 1) // 2, 1, arg
    if kind == "group":
        k = len(conjugacy_classes(arg))
        return len(arg), k, k
    parts = [invariants(s) for s in arg]
    return tuple(sum(p[m] for p in parts) for m in range(3))


def expected_dimension(shape, kind):
    """Dimension of each map space on the regular bimodule.

    Every derivation of these algebras is inner and every Jordan derivation
    is a derivation, so both spaces have dimension d - dim Z.  Central
    traces are Hom(A/[A,A], Z(A)), and no nonzero derivation is a central
    trace, so the Lie space is the sum of the two.
    """
    d, z, ab = invariants(shape)
    der = d - z
    ct = z * ab
    return {"derivation": der, "jordan": der, "lie": der + ct, "central_trace": ct}[kind]


# -- linear algebra mod p ----------------------------------------------------------

def to_mod_p(x):
    num, den = Fraction(x).as_integer_ratio()
    require(den % PRIME, "denominator divisible by the check prime")
    return num * pow(den, -1, PRIME) % PRIME


def rank_mod_p(vectors):
    """Rank of sparse rational vectors mod p, a lower bound of their rank over Q."""
    pivots = {}
    for v in vectors:
        r = {i: to_mod_p(x) for i, x in v.items() if to_mod_p(x)}
        while r:
            p = min(r)
            if p not in pivots:
                inv = pow(r[p], -1, PRIME)
                pivots[p] = {i: x * inv % PRIME for i, x in r.items()}
                break
            f = r[p]
            for i, x in pivots[p].items():
                y = (r.get(i, 0) - f * x) % PRIME
                if y:
                    r[i] = y
                else:
                    r.pop(i, None)
    return len(pivots)


# -- classify ----------------------------------------------------------------------

def parse_matrix(rows, exact):
    return [sparse(row, exact) for row in rows]


def identity_residuals(A, D, kind):
    """Residual vectors of the identity on basis pairs, from the structure constants."""
    d = A.dim

    def right(u, j):
        return A.product(u, {j: 1})

    def left(i, u):
        return A.product({i: 1}, u)

    for i in range(d):
        for j in range(d):
            if (kind == "jordan" and j < i) or (kind == "lie" and j <= i):
                continue  # symmetric or antisymmetric in (i, j)
            if kind == "derivation":
                r = A.apply(D, A.mul.get((i, j), {}))
                add_scaled(r, right(D[i], j), -1)
                add_scaled(r, left(i, D[j]), -1)
            elif kind == "jordan":
                r = A.apply(D, add_scaled(dict(A.mul.get((i, j), {})), A.mul.get((j, i), {}), 1))
                for u in (right(D[i], j), left(i, D[j]), right(D[j], i), left(j, D[i])):
                    add_scaled(r, u, -1)
            elif kind == "lie":
                r = A.apply(D, A.commutator({i: 1}, {j: 1}))
                add_scaled(r, A.commutator(D[i], {j: 1}), -1)
                add_scaled(r, A.commutator({i: 1}, D[j]), -1)
            else:  # central_trace: D kills commutators and D(b_j) is central
                yield A.apply(D, A.commutator({i: 1}, {j: 1}))
                r = A.commutator({i: 1}, D[j])
            yield r


def check_classify(report, rc, A, shape, kind, rng):
    require(rc == 0, f"exit code {rc}, expected 0")
    require(report["kind"] == kind, f"report kind {report['kind']!r}")
    want = expected_dimension(shape, kind)
    require(report["dimension"] == want,
            f"{kind} dimension {report['dimension']}, theory gives {want}")
    basis = [parse_matrix(m, A.exact) for m in report["basis"]]
    require(len(basis) == want, "basis length differs from the dimension")
    require(all(len(m) == A.dim for m in basis), "basis maps have the wrong shape")
    flat = [{j * A.dim + k: c for j, img in enumerate(m) for k, c in img.items()}
            for m in basis]
    require(rank_mod_p(flat) == want, "returned basis is linearly dependent")
    coeffs = [rng.choice((-3, -2, -1, 1, 2, 3)) for _ in basis]
    D = [{} for _ in range(A.dim)]
    for c, m in zip(coeffs, basis):
        for j, img in enumerate(m):
            add_scaled(D[j], img, c)
    scale = 1 + max((abs(x) for img in D for x in img.values()), default=0)
    for r in identity_residuals(A, D, kind):
        require(is_small(r, A.exact, scale), f"a combination of the basis breaks the {kind} identity")


# -- decompositions ----------------------------------------------------------------

def inner_images(A, x):
    """Images of the basis under ad_x: b -> b x - x b."""
    return [A.commutator({q: 1}, x) for q in range(A.dim)]


def parse_element(data, exact=True):
    out = {}
    for i, c in data["coeffs"]:
        add_scaled(out, {i: scalar(c, exact)}, 1)
    return out


def check_jordan(report, rc, A, D, x):
    require(rc == 0, f"exit code {rc}, expected 0")
    require(report["ok"] is True and report["exact"] is True, "decomposition not ok and exact")
    omega = parse_element(report["omega"])
    for q in range(A.dim):
        require(A.commutator({q: 1}, omega) == D[q], f"D(b_{q}) != b_{q} omega - omega b_{q}")
    require(A.is_central(sub(omega, x)), "omega - x is not central")


def check_lie(report, rc, A, x, tau):
    require(rc == 0, f"exit code {rc}, expected 0")
    require(report["ok"] is True and report["exact"] is True, "decomposition not ok and exact")
    require(parse_matrix(report["inner_matrix"], True) == inner_images(A, x),
            "inner part differs from ad_x")
    require(parse_matrix(report["central_trace_matrix"], True) == tau,
            "trace part differs from tau")


# -- diagonals and defects ---------------------------------------------------------

def tensor_act(A, a, t, leg, side):
    """Multiply one leg of every term of t by a ('l': a on the left)."""
    out = {}
    for (l, r), ct in t.items():
        target = l if leg == 0 else r
        for i, ca in a.items():
            row = A.mul.get((i, target) if side == "l" else (target, i))
            for k, ck in (row or {}).items():
                add_scaled(out, {(k, r) if leg == 0 else (l, k): ck}, ca * ct)
    return out


def proj_norm(A, t):
    return sum(abs(c) * A.weights[i] * A.weights[j] for (i, j), c in t.items())


def contraction(A, t, swapped):
    out = {}
    for (i, j), c in t.items():
        add_scaled(out, A.mul.get((j, i) if swapped else (i, j), {}), c)
    return out


def defects(A, t, a):
    """(d1, d2, d3, d4) of tensor t at element a."""
    d1 = proj_norm(A, sub(tensor_act(A, a, t, 0, "l"), tensor_act(A, a, t, 1, "r")))
    d2 = A.norm(sub(A.product(contraction(A, t, False), a), a))
    d3 = proj_norm(A, sub(tensor_act(A, a, t, 1, "l"), tensor_act(A, a, t, 0, "r")))
    d4 = A.norm(sub(A.product(a, contraction(A, t, True)), a))
    return d1, d2, d3, d4


def parse_tensor(terms):
    out = {}
    for i, j, c in terms:
        add_scaled(out, {(i, j): Fraction(c)}, 1)
    return out


def check_net(report, rc, A, net, tail=None):
    """Every defect equals the recomputed one; the verdict follows from them.

    tail, for a truncated matrix net, is (block sizes per entry, N): each
    defect must then also be at most the mass of the test element outside
    the top-left n-by-n block of the N-by-N matrix.
    """
    tol = Fraction(net["tolerance"])
    tests = [parse_element(e) for e in net["test_set"]]
    verdict = False
    require(len(report["entries"]) == len(net["entries"]), "one report entry per net entry")
    for idx, (entry, terms) in enumerate(zip(report["entries"], net["entries"])):
        t = parse_tensor(terms)
        flip = {(j, i): c for (i, j), c in t.items()}
        symmetric = proj_norm(A, sub(t, flip)) <= tol
        require(entry["symmetric"] == symmetric, f"entry {idx}: symmetry flag")
        worst = 0
        for row, a in zip(entry["rows"], tests):
            got = tuple(Fraction(row[k]) for k in ("d1", "d2", "d3", "d4"))
            want = defects(A, t, a)
            require(got == want, f"entry {idx}, element {row['element']}: defects {got} != {want}")
            worst = max(worst, *want)
            if tail is not None:
                require(max(want) <= tail_mass(a, tail[0][idx], tail[1]),
                        f"entry {idx}: defect above the tail mass")
        verdict = worst <= tol and (symmetric or not report["require_symmetric"])
        require(entry["verdict"] == verdict, f"entry {idx}: verdict")
    require(report["verdict"] == verdict, "net verdict")
    require(rc == (0 if verdict else 1), f"exit code {rc} for verdict {verdict}")
    return verdict


def tail_mass(a, n, N):
    """l1 mass of an N-by-N matrix element outside its top-left n-by-n block."""
    return sum(abs(c) for i, c in a.items() if i // N >= n or i % N >= n)


def check_convergence(rows, rc, N, elements):
    """Rows of the truncated-diagonal table against tail masses computed here."""
    require(rc == 0, f"exit code {rc}, expected 0")
    require(len(rows) == N * len(elements), "one row per block size and element")
    for row in rows:
        a = parse_element(elements[[e["label"] for e in elements].index(row["element"])])
        n = row["n"]
        mass = tail_mass(a, n, N)
        require(Fraction(row["tail_bound"]) == mass, f"n={n}: tail bound {row['tail_bound']} != {mass}")
        ds = [Fraction(row[k]) for k in ("d1", "d2", "d3", "d4")]
        require(max(ds) <= mass, f"n={n}: a defect exceeds the tail bound")
        require(n < N or max(ds) == 0, "the full matrix diagonal has a nonzero defect")


# -- witnesses and the center -------------------------------------------------------

def check_feasible(report, rc, A, z, with_diagonal):
    require(rc == 0 and report["decision"] == "FEASIBLE", f"exit {rc}, {report['decision']}")
    functionals = [report["functional"]]
    if with_diagonal:
        w = report["witness_from_diagonal"]
        require(Fraction(w["commutator_defect"]) == 0 and Fraction(w["unit_residual"]) == 0,
                "witness from an exact diagonal has a nonzero defect")
        functionals.append(w["functional"])
    for data in functionals:
        f = [Fraction(v) for v in data["values"]]
        require(len(f) == A.dim, "functional has the wrong length")

        def value(u):
            return sum((f[i] * c for i, c in u.items()), Fraction(0))

        require(value(z) == 1, "functional does not take the value 1 at z")
        for p in range(A.dim):
            for q in range(p + 1, A.dim):
                require(value(A.commutator({p: 1}, {q: 1})) == 0,
                        f"functional does not kill [b_{p}, b_{q}]")


def check_infeasible(report, rc, A, z):
    require(rc == 1 and report["decision"] == "INFEASIBLE", f"exit {rc}, {report['decision']}")
    total = {}
    for p, q, c in report["certificate"]:
        add_scaled(total, A.commutator({p: 1}, {q: 1}), Fraction(c))
    require(total == z, "certificate does not recombine to z")


def check_center(report, rc, A, shape):
    require(rc == 0, f"exit code {rc}, expected 0")
    basis = [parse_element(e) for e in report["elements"]]
    want = invariants(shape)[1]
    require(len(basis) == want, f"center dimension {len(basis)}, theory gives {want}")
    require(rank_mod_p(basis) == want, "center basis is linearly dependent")
    require(all(A.is_central(u) for u in basis), "a center element is not central")
