"""Sparse elimination over exact rationals (or floats).

Vectors and matrix rows are dicts {index: coefficient}; absent keys are
zero.  With eps == 0 arithmetic is exact and pivots are the first nonzero
entry of a row; with eps > 0 entries within eps of zero are treated as
zero and pivots are chosen by largest magnitude.
"""


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


def vec_is_zero(v, eps=0):
    if eps == 0:
        return not v
    return all(abs(x) <= eps for x in v.values())


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


class Span:
    """Incremental row space in reduced form, supporting reduction and membership."""

    def __init__(self, eps=0, avoid_col=None):
        self.eps = eps
        self.avoid_col = avoid_col  # column used last as a pivot (RHS of augmented systems)
        self.pivots = []   # pivot column per stored row
        self.rows = []     # rows normalized to 1 at their pivot, mutually reduced

    @property
    def dim(self):
        return len(self.rows)

    def reduce(self, v):
        """Residue of v after eliminating every stored pivot column."""
        out = dict(v)
        for p, row in zip(self.pivots, self.rows):
            c = out.get(p)
            if c:
                vec_add_scaled(out, row, -c)
        return vec_chop(out, self.eps)

    def add(self, v):
        """Insert v; returns the reduced new basis row, or None if v was dependent."""
        res = self.reduce(v)
        if vec_is_zero(res, self.eps):
            return None
        p = _pick_pivot(res, self.eps, avoid=self.avoid_col)
        if p is None:
            return None
        inv = 1 / res[p]
        res = vec_scale(res, inv)
        # keep fully reduced form (Gauss-Jordan)
        for other in self.rows:
            c = other.get(p)
            if c:
                vec_add_scaled(other, res, -c)
        self.pivots.append(p)
        self.rows.append(res)
        return res

    def contains(self, v):
        return vec_is_zero(self.reduce(v), self.eps)


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
    pivot_of = dict(zip(sp.pivots, sp.rows))
    free = [j for j in range(ncols) if j not in pivot_of]
    basis = []
    for f in free:
        v = {f: _one_like(rows, eps)}
        for p, row in pivot_of.items():
            c = row.get(f)
            if c:
                v[p] = -c
        basis.append(v)
    return basis


def _one_like(rows, eps):
    # match the scalar type in use so rational mode stays rational
    for row in rows:
        for x in row.values():
            return x / x
    return 1 if eps == 0 else 1.0


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
