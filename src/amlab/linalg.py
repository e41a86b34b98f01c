"""Sparse elimination over exact rationals (or floats).

Vectors and matrix rows are dicts {index: coefficient}; absent keys are
zero.  With eps == 0 arithmetic is exact and pivots are the first nonzero
entry of a row.  The elimination itself runs in Python ints: each incoming
row is cleared of its denominators once and reduced fraction-free, and
values become Fractions only where they leave a Span (its rows, reduce,
and the results of nullspace and solve).  With eps > 0 entries within eps
of zero are treated as zero and pivots are chosen by largest magnitude.
A Span indexes its stored rows by column, so keeping them reduced visits
only the rows that hold a new pivot's column.
"""

import math
from fractions import Fraction


def vec_scale(v, c):
    if c == 0:
        return {}
    return {i: c * x for i, x in v.items()}


def vec_add_scaled(target, src, factor):
    """target += factor * src, in place, dropping exact zeros."""
    if factor == 0:
        return target
    for i, x in src.items():
        y = target.get(i, 0) + factor * x
        if y == 0:
            target.pop(i, None)
        else:
            target[i] = y
    return target


def vec_combination(terms):
    """sum of c * v over (c, v) pairs, dropping exact zeros; v may be None."""
    out = {}
    for c, v in terms:
        if v:
            vec_add_scaled(out, v, c)
    return out


def vec_sub(u, v):
    out = dict(u)
    vec_add_scaled(out, v, -1)
    return out


def vec_chop(v, eps):
    if eps == 0:
        return v
    return {i: x for i, x in v.items() if abs(x) > eps}


def _pick_pivot(v, eps, avoid=None):
    if eps == 0:
        best = min(v)
        if best == avoid and len(v) > 1:
            return sorted(v)[1]
        return best
    best, best_mag = None, eps
    for i, x in v.items():
        if i != avoid and abs(x) > best_mag:
            best, best_mag = i, abs(x)
    if best is None and avoid in v and abs(v[avoid]) > eps:
        return avoid
    return best


def _clear_denominators(v):
    """(out, s) with v == out / s and out in ints; zero entries are dropped."""
    try:
        s = math.lcm(*[x.denominator for x in v.values()])
    except AttributeError:
        # floats (float mode with tol 0) are eliminated as the rationals they are
        return _clear_denominators({i: Fraction(x) for i, x in v.items()})
    return {i: x.numerator * (s // x.denominator) for i, x in v.items() if x}, s


def _subtract_multiple(out, row, a, c):
    """out = a' * out - c' * row in place, with a'/c' = a/c in lowest terms; returns a'.

    row is a at the pivot where out is c, so out becomes zero there.  In
    float mode a is exactly 1.0 and out is not scaled.
    """
    if a != 1:
        g = math.gcd(a, c)
        a, c = a // g, c // g
    if a != 1:
        for i, x in out.items():
            out[i] = x * a
    vec_add_scaled(out, row, -c)
    return a


def _make_primitive(row, p):
    """Divide an int row by the gcd of its entries, signed so that row[p] > 0."""
    g = math.gcd(*row.values())
    if row[p] < 0:
        g = -g
    if g != 1:
        for i, x in row.items():
            row[i] = x // g


class Span:
    """Incremental row space in reduced form, supporting reduction and membership.

    Stored rows are fully reduced (Gauss-Jordan): each is zero at every
    other pivot, so reducing a vector visits only the pivots in its own
    support.  In exact mode a stored row is in ints, primitive, with a
    positive value at its pivot; in float mode its pivot value is exactly
    1.0, which makes that column exactly zero in the rows it is subtracted
    from.  A column index maps each non-pivot column to the positions of
    the stored rows that hold it (a set that may be left empty), so a new
    pivot is back-substituted into exactly the rows listed under its column.
    """

    def __init__(self, eps=0, avoid_col=None):
        self.eps = eps
        self.avoid_col = avoid_col  # column used last as a pivot (RHS of augmented systems)
        self.pivots = []   # pivot column per stored row
        self._rows = []    # stored rows, in the order of pivots
        self._at = {}      # pivot column -> its position in pivots
        self._cols = {}    # non-pivot column -> positions of the stored rows holding it

    @property
    def dim(self):
        return len(self._rows)

    @property
    def rows(self):
        """The stored rows normalized to 1 at their pivot, mutually reduced."""
        return [self._normalized(p, row) for p, row in zip(self.pivots, self._rows)]

    def _normalized(self, p, row):
        if self.eps:
            return row
        a = row[p]
        return {i: Fraction(x, a) for i, x in row.items()}

    def _residue(self, v):
        """(out, s) with out / s the residue of v; out is in ints in exact mode."""
        eps = self.eps
        if eps:
            out, s = {i: x for i, x in v.items() if x}, 1
        else:
            out, s = _clear_denominators(v)
        at = self._at
        hits = [at[i] for i in out if i in at]
        if len(hits) > 1:
            # in the order the pivots were stored, which fixes the residue's key order
            hits.sort()
        for k in hits:
            p, row = self.pivots[k], self._rows[k]
            if eps:
                vec_add_scaled(out, row, -out[p])  # row[p] is exactly 1.0
            else:
                s *= _subtract_multiple(out, row, row[p], out[p])
        if eps and out and min(map(abs, out.values())) <= eps:
            out = vec_chop(out, eps)
        return out, s

    def reduce(self, v):
        """Residue of v after eliminating every stored pivot column."""
        out, s = self._residue(v)
        if self.eps:
            return out
        return {i: Fraction(x, s) for i, x in out.items()}

    def add(self, v):
        """Insert v; returns its pivot column, or None if v was dependent.

        The new row is subtracted from the stored rows the column index
        lists under its pivot; each update reads only the new row, so their
        order does not matter.
        """
        res, _ = self._residue(v)
        if not res:
            return None
        p = _pick_pivot(res, self.eps, avoid=self.avoid_col)
        if self.eps:
            inv = 1 / res[p]
            res = vec_scale(res, inv)
            res[p] = 1.0
        else:
            _make_primitive(res, p)
        cols, n = self._cols, len(self.pivots)
        hits = cols.pop(p, ())
        for c in res:
            if c != p:
                cols.setdefault(c, set()).add(n)
        # keep fully reduced form (Gauss-Jordan)
        a = res[p]
        for k in hits:
            other = self._rows[k]
            if _subtract_multiple(other, res, a, other[p]) != 1:
                _make_primitive(other, self.pivots[k])
            for c in res:
                if c in other:
                    cols[c].add(k)
                elif c != p:
                    cols[c].discard(k)
        self._at[p] = n
        self.pivots.append(p)
        self._rows.append(res)
        return p

    def contains(self, v):
        return not self._residue(v)[0]


def span_basis(vectors, eps=0):
    """Reduced basis of the span of the given sparse vectors."""
    sp = Span(eps)
    for v in vectors:
        sp.add(v)
    return sp


def rank(rows, eps=0):
    return span_basis(rows, eps).dim


def nullspace(rows, ncols, eps=0):
    """Basis of {x : row . x == 0 for every row}, as sparse vectors of length ncols."""
    sp = span_basis(rows, eps)
    pivots = set(sp.pivots)
    one = 1.0 if eps else Fraction(1)
    basis = {f: {f: one} for f in range(ncols) if f not in pivots}
    # a stored row is zero at every other pivot, so its other entries are free columns
    for p, row in zip(sp.pivots, sp._rows):
        for f, c in sp._normalized(p, row).items():
            if f != p:
                basis[f][p] = -c
    return list(basis.values())


def solve(rows, rhs, ncols, eps=0):
    """One solution x of the system {row_k . x == rhs_k}, or None if inconsistent.

    Free variables are set to zero.
    """
    aug_col = ncols
    sp = Span(eps, avoid_col=aug_col)
    for row, b in zip(rows, rhs):
        r = dict(row)
        if b:
            r[aug_col] = b
        sp.add(r)
    sol = {}
    for p, row in zip(sp.pivots, sp.rows):
        if p == aug_col:
            return None
        b = row.get(aug_col)
        if b:
            sol[p] = b
    return sol


def coordinates_in_span(generators, target, eps=0):
    """Coefficients x with sum_j x_j * generators[j] == target, or None.

    Certificate-style membership: unlike Span.contains this names which
    generators combine to the target.
    """
    support = set(target)
    for g in generators:
        support.update(g)
    coords = sorted(support)
    rows = [{j: g[i] for j, g in enumerate(generators) if i in g} for i in coords]
    rhs = [target.get(i, 0) for i in coords]
    sol = solve(rows, rhs, len(generators), eps)
    if sol is None:
        return None
    return [sol.get(j, 0) for j in range(len(generators))]
