"""Sparse elimination against sympy's dense exact elimination."""

import random
from fractions import Fraction

import pytest

from amlab import linalg

from oracles import sympy_nullity, sympy_rank


def rand_rows(rng, nrows, ncols, density=0.5):
    rows = []
    for _ in range(nrows):
        row = {}
        for j in range(ncols):
            if rng.random() < density:
                c = Fraction(rng.randint(-4, 4))
                if c:
                    row[j] = c
        rows.append(row)
    return rows


def dot(row, vec):
    return sum(c * vec.get(j, 0) for j, c in row.items())


def test_rank_matches_sympy():
    rng = random.Random(7)
    for _ in range(25):
        nrows, ncols = rng.randint(1, 6), rng.randint(1, 6)
        rows = rand_rows(rng, nrows, ncols)
        assert linalg.rank(rows) == sympy_rank(rows, ncols)


def test_nullspace_dimension_and_membership():
    rng = random.Random(11)
    for _ in range(25):
        nrows, ncols = rng.randint(1, 6), rng.randint(1, 7)
        rows = rand_rows(rng, nrows, ncols)
        basis = linalg.nullspace(rows, ncols)
        assert len(basis) == sympy_nullity(rows, ncols)
        for v in basis:
            for row in rows:
                assert dot(row, v) == 0
        # basis vectors are independent
        assert linalg.rank(basis) == len(basis)


def test_solve_consistent_and_inconsistent():
    rng = random.Random(13)
    hits = misses = 0
    for _ in range(60):
        nrows, ncols = rng.randint(1, 6), rng.randint(1, 6)
        rows = rand_rows(rng, nrows, ncols)
        rhs = [Fraction(rng.randint(-4, 4)) for _ in rows]
        sol = linalg.solve(rows, rhs, ncols)
        if sol is None:
            misses += 1
            # sympy agrees there is no solution: [A|b] has larger rank than A
            aug = [dict(row) for row in rows]
            for row, b in zip(aug, rhs):
                if b:
                    row[ncols] = b
            assert sympy_rank(aug, ncols + 1) > sympy_rank(rows, ncols)
        else:
            hits += 1
            for row, b in zip(rows, rhs):
                assert dot(row, sol) == b
    assert hits and misses


def test_coordinates_in_span():
    rng = random.Random(17)
    for _ in range(20):
        ncols = rng.randint(2, 6)
        gens = rand_rows(rng, rng.randint(1, 4), ncols)
        # a known combination must be recovered
        target = {}
        weights = [Fraction(rng.randint(-3, 3)) for _ in gens]
        for w, g in zip(weights, gens):
            linalg.vec_add_scaled(target, g, w)
        coords = linalg.coordinates_in_span(gens, target)
        assert coords is not None
        rebuilt = {}
        for c, g in zip(coords, gens):
            linalg.vec_add_scaled(rebuilt, g, c)
        assert rebuilt == target


def test_coordinates_in_span_rejects_outsider():
    gens = [{0: Fraction(1)}, {1: Fraction(1)}]
    assert linalg.coordinates_in_span(gens, {2: Fraction(1)}) is None


def test_span_reduce_and_contains():
    sp = linalg.span_basis([{0: Fraction(1), 1: Fraction(2)}, {1: Fraction(1)}])
    assert sp.dim == 2
    assert sp.contains({0: Fraction(3), 1: Fraction(-1)})
    assert not sp.contains({2: Fraction(1)})


def test_float_mode_pivoting():
    rows = [{0: 1e-30, 1: 1.0}, {0: 1.0, 1: 1.0}]
    basis = linalg.nullspace(rows, 3, eps=1e-12)
    assert len(basis) == 1
    for v in basis:
        for row in rows:
            assert abs(dot(row, v)) < 1e-9



def test_exact_mode_eliminates_floats_as_rationals():
    rows = [{0: 0.1, 1: 0.7, 2: -1.5}, {0: 0.3, 1: 2.1}, {1: 1e-300, 2: 3.0}]
    exact = [{j: Fraction(x) for j, x in row.items()} for row in rows]
    assert linalg.nullspace(rows, 4) == linalg.nullspace(exact, 4)
    rhs = [1.0, 0.5, 0.0]
    assert linalg.solve(rows, rhs, 3) == linalg.solve(exact, [Fraction(b) for b in rhs], 3)

# -- the integer kernel against the Fraction elimination it replaced -------------------

def ref_add_scaled(target, src, factor):
    for i, x in src.items():
        y = target.get(i, 0) + factor * x
        if y == 0:
            target.pop(i, None)
        else:
            target[i] = y


class ReferenceSpan:
    """Gauss-Jordan in Fractions over every stored row: exact-mode Span before the kernel."""

    def __init__(self, avoid_col=None):
        self.avoid_col = avoid_col
        self.pivots = []
        self.rows = []

    def reduce(self, v):
        out = dict(v)
        for p, row in zip(self.pivots, self.rows):
            c = out.get(p)
            if c:
                ref_add_scaled(out, row, -c)
        return out

    def add(self, v):
        res = self.reduce(v)
        if not res:
            return None
        p = min(res)
        if p == self.avoid_col and len(res) > 1:
            p = sorted(res)[1]
        inv = 1 / res[p]
        res = {i: x * inv for i, x in res.items()}
        for other in self.rows:
            c = other.get(p)
            if c:
                ref_add_scaled(other, res, -c)
        self.pivots.append(p)
        self.rows.append(res)
        return res

    def contains(self, v):
        return not self.reduce(v)


def ref_nullspace(rows, ncols, eps=0):
    sp = ref_span(eps)
    for row in rows:
        sp.add(row)
    pivot_of = dict(zip(sp.pivots, sp.rows))
    basis = []
    for f in range(ncols):
        if f in pivot_of:
            continue
        v = {f: 1.0 if eps else Fraction(1)}
        for p, row in pivot_of.items():
            c = row.get(f)
            if c:
                v[p] = -c
        basis.append(v)
    return basis


def ref_solve(rows, rhs, ncols, eps=0):
    sp = ref_span(eps, avoid_col=ncols)
    for row, b in zip(rows, rhs):
        r = dict(row)
        if b:
            r[ncols] = b
        sp.add(r)
    sol = {}
    for p, row in zip(sp.pivots, sp.rows):
        if p == ncols:
            return None
        b = row.get(ncols)
        if b:
            sol[p] = b
    return sol


def ref_coordinates_in_span(generators, target):
    coords = sorted(set(target).union(*generators))
    rows = [{j: g[i] for j, g in enumerate(generators) if i in g} for i in coords]
    sol = ref_solve(rows, [target.get(i, 0) for i in coords], len(generators))
    return None if sol is None else [sol.get(j, 0) for j in range(len(generators))]


def rand_scalar(rng):
    if rng.random() < 0.5:
        return Fraction(rng.choice([-3, -2, -1, 1, 2, 3]))
    return Fraction(rng.choice([-1, 1]) * rng.randint(1, 10 ** 6), rng.randint(1, 10 ** 12))


def rand_system(rng, ncols):
    """Sparse rows with random, duplicate, rescaled, zero and dependent members."""
    rows = []
    for _ in range(rng.randint(0, 9)):
        kind = rng.random()
        if rows and kind < 0.15:
            rows.append(dict(rng.choice(rows)))
        elif rows and kind < 0.3:
            c = rand_scalar(rng)
            rows.append({i: c * x for i, x in rng.choice(rows).items()})
        elif kind < 0.4:
            rows.append({})
        elif len(rows) > 1 and kind < 0.55:
            row = {}
            for r in rng.sample(rows, 2):
                ref_add_scaled(row, r, rand_scalar(rng))
            rows.append(row)
        else:
            rows.append({j: rand_scalar(rng) for j in range(ncols) if rng.random() < 0.4})
    return rows


def items(vectors):
    return [list(v.items()) for v in vectors]


def exact(vectors):
    return all(type(x) is Fraction for v in vectors for x in v.values())


def test_integer_kernel_matches_the_fraction_reference():
    rng = random.Random(31)
    seen = set()
    for _ in range(300):
        ncols = rng.randint(1, 8)
        rows = rand_system(rng, ncols)
        sp, ref = linalg.Span(), ReferenceSpan()
        for row in rows:
            got, want = sp.add(row), ref.add(row)
            assert (got is None) == (want is None)
            if got is not None:
                assert got == ref.pivots[-1]
        assert sp.pivots == ref.pivots and sp.dim == len(ref.rows)
        assert items(sp.rows) == items(ref.rows) and exact(sp.rows)
        assert linalg.rank(rows) == len(ref.rows)
        probes = rand_system(rng, ncols) + rows
        for v in probes:
            assert list(sp.reduce(v).items()) == list(ref.reduce(v).items())
            assert exact([sp.reduce(v)])
            assert sp.contains(v) == ref.contains(v)
            seen.add(("contains", ref.contains(v)))
        basis = linalg.nullspace(rows, ncols)
        assert items(basis) == items(ref_nullspace(rows, ncols)) and exact(basis)
        # rows that are empty with b != 0 only hit the augmented column
        rhs = [rand_scalar(rng) if rng.random() < 0.7 else 0 for _ in rows]
        sol, want = linalg.solve(rows, rhs, ncols), ref_solve(rows, rhs, ncols)
        assert (sol is None) == (want is None)
        seen.add(("solvable", want is not None))
        if sol is not None:
            assert list(sol.items()) == list(want.items()) and exact([sol])
        for target in probes[:4]:
            assert (linalg.coordinates_in_span(rows, target)
                    == ref_coordinates_in_span(rows, target))
    assert seen == {(check, b) for check in ("contains", "solvable") for b in (True, False)}


# -- the column index against the scan it replaced -----------------------------------------

class ScanSpan:
    """Float-mode Span before the column index: a new pivot is back-substituted
    into every stored row that holds its column, found by testing all of them."""

    def __init__(self, eps, avoid_col=None):
        self.eps = eps
        self.avoid_col = avoid_col
        self.pivots = []
        self.rows = []

    def reduce(self, v):
        out = {i: x for i, x in v.items() if x}
        for p, row in zip(self.pivots, self.rows):
            c = out.get(p)
            if c:
                ref_add_scaled(out, row, -c)
        return {i: x for i, x in out.items() if abs(x) > self.eps}

    def add(self, v):
        res = self.reduce(v)
        if not res:
            return None
        p, top = self.avoid_col, self.eps
        for i, x in res.items():
            if i != self.avoid_col and abs(x) > top:
                p, top = i, abs(x)
        inv = 1 / res[p]
        res = {i: x * inv for i, x in res.items()}
        res[p] = 1.0
        for other in self.rows:
            c = other.get(p)
            if c:
                ref_add_scaled(other, res, -c)
        self.pivots.append(p)
        self.rows.append(res)
        return res


def ref_span(eps, avoid_col=None):
    return ScanSpan(eps, avoid_col) if eps else ReferenceSpan(avoid_col)


def column_index(sp):
    """Column -> positions of the stored rows holding it, recomputed from the rows."""
    index = {}
    for k, (p, row) in enumerate(zip(sp.pivots, sp._rows)):
        for c in row:
            if c != p:
                index.setdefault(c, set()).add(k)
    return index


def rand_index_system(rng, ncols, eps):
    """rand_system plus tails of earlier rows (one entry dropped, rescaled), which
    cancel a column out of the stored rows they are back-substituted into."""
    rows = rand_system(rng, ncols)
    for _ in range(rng.randint(0, 4)):
        nonzero = [r for r in rows if r]
        if nonzero:
            row = rng.choice(nonzero)
            drop, c = rng.choice(list(row)), rand_scalar(rng)
            rows.insert(rng.randint(0, len(rows)), {i: c * x for i, x in row.items() if i != drop})
    if eps:
        rows = [{i: float(x) for i, x in row.items()} for row in rows]
    return rows


@pytest.mark.parametrize("eps", [0, 1e-9], ids=["rational", "float"])
def test_column_index_and_results_match_the_scan(eps):
    rng = random.Random(41)
    seen = set()
    for _ in range(300):
        ncols = rng.randint(1, 8)
        rows = rand_index_system(rng, ncols, eps)
        rhs = [rand_scalar(rng) if rng.random() < 0.7 else 0 for _ in rows]
        if eps:
            rhs = [float(b) for b in rhs]
        augmented = [{**row, ncols: b} if b else row for row, b in zip(rows, rhs)]
        # solve's augmented system first, so sp and ref are the plain system's below
        for system, avoid in ((augmented, ncols), (rows, None)):
            sp, ref = linalg.Span(eps, avoid_col=avoid), ref_span(eps, avoid_col=avoid)
            for row in system:
                before = column_index(sp)
                got, want = sp.add(row), ref.add(row)
                assert got == (None if want is None else ref.pivots[-1])
                after = column_index(sp)
                assert {c: ks for c, ks in sp._cols.items() if ks} == after
                if any(before[c] - after.get(c, set()) for c in before if c not in sp._at):
                    seen.add("discard")
                if got is not None and got == avoid:
                    seen.add("avoid_col pivot")
            assert sp.pivots == ref.pivots and items(sp.rows) == items(ref.rows)
        probes = rand_index_system(rng, ncols, eps) + rows
        for v in probes:
            assert list(sp.reduce(v).items()) == list(ref.reduce(v).items())
        assert items(linalg.nullspace(rows, ncols, eps)) == items(ref_nullspace(rows, ncols, eps))
        sol, want = linalg.solve(rows, rhs, ncols, eps), ref_solve(rows, rhs, ncols, eps)
        assert sol == want and (sol is None or list(sol.items()) == list(want.items()))
    assert seen == {"discard", "avoid_col pivot"}
