"""Diagonal tensors and the four-defect diagnostic.

For a tensor t and a test element a the four defects are

    d1 = || a t - t a ||            (two-sided action)
    d2 = || contract(t) a - a ||    (left approximate identity of the contraction)
    d3 = || a o t - t o a ||        (opposite-algebra action: d1 of flip(t))
    d4 = || a contract_swapped(t) - a ||  (contract_swapped(t) = contract(flip(t)))

A finite family of tensors together with a finite test set and a tolerance
stands in for an approximate-diagonal net: the claim "defects -> 0" becomes
"the final entry's defects are all <= tolerance", with the earlier entries
giving convergence evidence.  A symmetric tensor (fixed by the flip) with
all four defects zero is an exact symmetric diagonal.
"""

from dataclasses import dataclass, field

from . import linalg
from .algebra import AlgebraError, multiply, unitize
from .catalog import (direct_sum_algebra, group_algebra, matrix_algebra,
                      matrix_unit_index)
from .maps import check_epimorphism
from .scalars import RATIONAL
from .tensor import (Tensor2, contract, elementary, flip, left_action,
                     opposite_right_action, right_action)


def defects(t, a):
    """The defect quadruple (d1, d2, d3, d4) of tensor t at test element a; d3 and d4
    read s = flip(t), and d3 flips back so that its norm sums in t's term order."""
    s = flip(t)
    d1 = (left_action(a, t) - right_action(t, a)).proj_norm()
    d2 = (multiply(contract(t), a) - a).norm()
    d3 = flip(left_action(a, s) - right_action(s, a)).proj_norm()
    d4 = (multiply(a, contract(s)) - a).norm()
    return d1, d2, d3, d4


def max_defect(t, a):
    return max(defects(t, a))


class DiagonalNet:
    """Finite ordered family of tensors with a test set and a tolerance."""

    def __init__(self, entries, test_set, tolerance=0, labels=None):
        entries = list(entries)
        test_set = list(test_set)
        for t in entries:
            if not isinstance(t, Tensor2):
                raise AlgebraError("net entries must be tensors")
        if entries:
            space = entries[0].space
            for t in entries:
                if t.space is not space:
                    raise AlgebraError("net entries live over different presentations")
            for a in test_set:
                if a.space is not space:
                    raise AlgebraError("test elements live over a different presentation")
        if labels is None:
            labels = [f"a{k}" for k in range(len(test_set))]
        if len(labels) != len(test_set):
            raise AlgebraError("one label per test element required")
        self.entries = entries
        self.test_set = test_set
        self.labels = [str(x) for x in labels]
        space = entries[0].space if entries else None
        self.tolerance = space.scalar(tolerance) if space else tolerance
        if self.tolerance < 0:
            raise AlgebraError("tolerance must be nonnegative")

    @property
    def space(self):
        return self.entries[0].space if self.entries else None


@dataclass
class DefectRow:
    entry_index: int
    element_label: str
    d1: object
    d2: object
    d3: object
    d4: object

    def max(self):
        return max(self.d1, self.d2, self.d3, self.d4)


@dataclass
class EntryReport:
    index: int
    symmetric: bool
    symmetry_defect: object
    proj_norm: object
    rows: list = field(default_factory=list)
    verdict: bool = False

    def max_defect(self):
        return max((r.max() for r in self.rows), default=0)


@dataclass
class DefectReport:
    tolerance: object
    require_symmetric: bool
    entries: list

    @property
    def verdict(self):
        """True when the final net entry passes; the net's convergence claim."""
        return bool(self.entries) and self.entries[-1].verdict

    def all_rows(self):
        return [row for e in self.entries for row in e.rows]


def defect_report(net, require_symmetric=False):
    """Evaluate all four defects for every (entry, test element) pair.

    An entry's verdict is true when every defect on the test set is within
    the net tolerance and, if required, the entry is symmetric (its flip
    distance is within the same tolerance).  Symmetry is reported for every
    entry regardless.
    """
    if not net.entries:
        raise AlgebraError("empty net")
    tol = net.tolerance
    out = []
    for idx, t in enumerate(net.entries):
        sdef = t.symmetry_defect()
        entry = EntryReport(index=idx, symmetric=sdef <= tol,
                            symmetry_defect=sdef, proj_norm=t.proj_norm())
        for a, lab in zip(net.test_set, net.labels):
            d1, d2, d3, d4 = defects(t, a)
            entry.rows.append(DefectRow(idx, lab, d1, d2, d3, d4))
        ok = all(r.max() <= tol for r in entry.rows)
        if require_symmetric:
            ok = ok and entry.symmetric
        entry.verdict = ok
        out.append(entry)
    return DefectReport(tolerance=tol, require_symmetric=require_symmetric, entries=out)


def basis_test_set(space):
    """All basis elements with their labels, the usual finite test set F."""
    return space.basis_elements(), list(space.labels)


# ---------------------------------------------------------------------------
# constructors
# ---------------------------------------------------------------------------

def matrix_diagonal(n, algebra=None, mode=RATIONAL):
    """(1/n) sum_{i,j<=n} E_ij (x) E_ji over the n-by-n matrix algebra.

    Symmetric, and an exact diagonal: all four defects vanish on every
    test element.
    """
    return truncated_matrix_diagonal(n, n, algebra, mode)


def truncated_matrix_diagonal(n, ambient_dim, algebra=None, mode=RATIONAL):
    """The n-block matrix diagonal inside the ambient N-by-N truncation.

    Models the n-th entry of the approximate-diagonal net for the infinite
    l1 matrix algebra: exact on elements supported in the top-left n-by-n
    block, with defects bounded by the mass outside that block.
    """
    if not 1 <= n <= ambient_dim:
        raise ValueError(f"need 1 <= n <= ambient dimension, got n={n}, N={ambient_dim}")
    if algebra is None:
        algebra = matrix_algebra(ambient_dim, mode=mode)
    N = algebra.meta.get("matrix_n")
    if N != ambient_dim:
        raise AlgebraError(f"presentation is not the {ambient_dim}x{ambient_dim} matrix algebra")
    inv = algebra.scalar(1) / algebra.scalar(n)
    coeffs = {}
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            coeffs[(matrix_unit_index(N, i, j), matrix_unit_index(N, j, i))] = inv
    return Tensor2(algebra, coeffs)


def tail_mass(a, n):
    """Weighted mass of a matrix element outside the top-left n-by-n block.

    This is the bound that dominates all four defects of the n-block
    truncated diagonal at a.
    """
    N = a.space.meta.get("matrix_n")
    if N is None:
        raise AlgebraError("element is not over a matrix-unit presentation")
    total = a.space.scalar(0)
    for idx, c in a.coeffs.items():
        i, j = divmod(idx, N)
        if i >= n or j >= n:
            total += abs(c) * a.space.weights[idx]
    return total


def support_block(a):
    """Smallest n with a supported in the top-left n-by-n block."""
    N = a.space.meta.get("matrix_n")
    if N is None:
        raise AlgebraError("element is not over a matrix-unit presentation")
    best = 0
    for idx in a.coeffs:
        i, j = divmod(idx, N)
        best = max(best, i + 1, j + 1)
    return best


def group_diagonal(table, labels=None, algebra=None, mode=RATIONAL):
    """(1/|G|) sum_g delta_g (x) delta_{g^-1} over the l1 group algebra.

    Exact and symmetric for every finite group: both properties follow from
    reindexing the sum by g -> g^-1 and g -> hg.
    """
    if algebra is None:
        algebra = group_algebra(table, labels, mode=mode)
    tab = algebra.meta.get("group_table")
    inverse = algebra.meta.get("group_inverse")
    if tab is None or inverse is None:
        raise AlgebraError("presentation is not a group algebra")
    if table is not None and tab != [list(r) for r in table]:
        raise AlgebraError("group table does not match the presentation")
    n = len(tab)
    inv = algebra.scalar(1) / algebra.scalar(n)
    coeffs = {(g, inverse[g]): inv for g in range(n)}
    return Tensor2(algebra, coeffs)


def trace_form_diagonal(algebra):
    """(Omega, radical) from the trace form G_ij = tr(L_{b_i b_j}) of any
    presentation, in rational mode; tr(L_{b_k}) = sum_m c_kmm.

    [G | I] is eliminated in one Span.  When G is nonsingular its reduced rows
    are [I | G^-1], and Omega = sum_j b_j (x) e^j, with e^j = sum_k (G^-1)_jk b_k
    the basis dual to b under the trace form, is returned with an empty
    radical.  Omega is the Casimir element of an invariant form, so it
    commutes with A and is symmetric (G is), and its contraction is the unit.
    When G is singular the augmented parts of the rows whose G part reduced
    to zero span the nullspace of G; that is returned as the radical with no
    tensor, since in characteristic 0 it is the Jacobson radical (Dickson)
    and an algebra with a diagonal is semisimple.
    """
    if algebra.mode != RATIONAL:
        raise AlgebraError("the trace-form diagonal is computed in rational mode")
    d, mul = algebra.dim, algebra.mul
    trace = [sum(mul.get((k, m), {}).get(m, 0) for m in range(d)) for k in range(d)]
    sp = linalg.Span()
    for i in range(d):
        row = {d + i: 1}
        for j in range(d):
            g = sum(c * trace[k] for k, c in mul.get((i, j), {}).items())
            if g:
                row[j] = g
        sp.add(row)
    rows = list(zip(sp.pivots, sp.rows))
    radical = [algebra.element({c - d: x for c, x in row.items()})
               for p, row in rows if p >= d]
    if radical:
        return None, radical
    return Tensor2(algebra, {(p, c - d): x for p, row in rows
                             for c, x in row.items() if c >= d}), []


def direct_sum_diagonal(components, ambient=None):
    """Sum of block embeddings of per-block tensors over the l1 direct sum.

    components is a list of tensors or of (presentation, tensor) pairs.
    Block embeddings are isometric with disjoint supports, so each defect
    of the sum at a test element is exactly the sum of the block defects at
    the element's block components.
    """
    tensors = []
    blocks = []
    for item in components:
        if isinstance(item, Tensor2):
            tensors.append(item)
            blocks.append(item.space)
        else:
            space, t = item
            if t.space is not space:
                raise AlgebraError("component tensor is not over its stated presentation")
            tensors.append(t)
            blocks.append(space)
    if not tensors:
        raise AlgebraError("direct sum needs at least one component")
    if ambient is None:
        ambient = direct_sum_algebra(blocks)
    amb_blocks = ambient.meta.get("blocks")
    offsets = ambient.meta.get("block_offsets")
    if amb_blocks is None or len(amb_blocks) != len(blocks) or \
            any(a is not b for a, b in zip(amb_blocks, blocks)):
        raise AlgebraError("ambient presentation does not match the component blocks")
    coeffs = {}
    for off, t in zip(offsets, tensors):
        for (i, j), c in t.coeffs.items():
            coeffs[(off + i, off + j)] = c
    return Tensor2(ambient, coeffs)


def pushforward_diagonal(theta, t):
    """Apply theta (x) theta to a tensor along a verified algebra epimorphism.

    Pushing a symmetric (approximate) diagonal forward along a
    multiplicative surjection yields a symmetric (approximate) diagonal
    for the codomain.
    """
    if t.space is not theta.domain:
        raise AlgebraError("tensor is not over the map's domain")
    check_epimorphism(theta)
    out = {}
    for (i, j), c in t.coeffs.items():
        for k, ck in theta.images[i].items():
            linalg.vec_add_scaled(out, {(k, l): cl for l, cl in theta.images[j].items()},
                                  c * ck)
    return Tensor2(theta.codomain, out)


def ideal_diagonal(t, e):
    """Compress a diagonal into an ideal with (approximate) identity e: (t o e) e.

    Term by term this sends b (x) c to be (x) ce, so a symmetric t yields a
    symmetric result.  How good a diagonal the output is for the ideal is a
    matter for defect_report, not for this constructor.
    """
    if e.space is not t.space:
        raise AlgebraError("element and tensor live over different presentations")
    return right_action(opposite_right_action(t, e), e)


def unitized_diagonal(t):
    """Lift an exact diagonal of a unital algebra to its unitization.

    If u is the unit of the carrier of t and e the adjoined unit, the lift
    is t + (e - u) (x) (e - u); its contraction is e and it inherits
    symmetry and exactness over the unitization.
    """
    algebra = t.space
    if algebra.unit is None:
        raise AlgebraError("lifting a diagonal needs a unital carrier")
    sharp = unitize(algebra)
    e_idx = sharp.meta["adjoined_index"]
    lifted = {key: c for key, c in t.coeffs.items()}
    corr = sharp.element({e_idx: 1}) - sharp.element(dict(algebra.unit))
    out = Tensor2(sharp, lifted) + elementary(corr, corr)
    return out
