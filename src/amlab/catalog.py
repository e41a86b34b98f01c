"""Ready-made presentations: matrix-unit algebras, finite group algebras,
direct sums, upper-triangular algebras.

All carriers here have unit weights, so the weighted-l1 norm is the plain
l1 norm of the coefficient vector.
"""

from itertools import permutations

from .algebra import (AlgebraPresentation, PresentationError, _block_layout,
                      _shifted)
from .maps import LinearMap
from .scalars import RATIONAL, DEFAULT_FLOAT_TOL


def matrix_unit_label(i, j):
    """Label of the (i, j) matrix unit, 1-based."""
    if i <= 9 and j <= 9:
        return f"E{i}{j}"
    return f"E{i}_{j}"


def matrix_unit_index(n, i, j):
    """Basis index of the (i, j) matrix unit in the n-by-n presentation, 1-based."""
    if not (1 <= i <= n and 1 <= j <= n):
        raise ValueError(f"matrix unit ({i},{j}) outside {n}x{n}")
    return (i - 1) * n + (j - 1)


def _matrix_unit_algebra(n, pairs, mode, tol, name, meta):
    """The span of the matrix units E_ij, (i, j) in pairs (row-major), with
    E_ij E_jl = E_il whenever E_jl is in the span too."""
    index = {p: k for k, p in enumerate(pairs)}
    mul = {(index[(i, j)], index[(j, l)]): {index[(i, l)]: 1}
           for i, j in pairs for l in range(1, n + 1) if (j, l) in index}
    unit = {index[(i, i)]: 1 for i in range(1, n + 1)}
    return AlgebraPresentation([matrix_unit_label(i, j) for i, j in pairs], mul,
                               unit=unit, mode=mode, tol=tol, name=name, meta=meta)


def matrix_algebra(n, mode=RATIONAL, tol=DEFAULT_FLOAT_TOL):
    """The n-by-n matrix algebra on the matrix-unit basis, l1 norm on entries."""
    if n < 1:
        raise ValueError("matrix algebra needs n >= 1")
    pairs = [(i, j) for i in range(1, n + 1) for j in range(1, n + 1)]
    return _matrix_unit_algebra(n, pairs, mode, tol, f"M{n}", {"matrix_n": n})


def upper_triangular_algebra(n, mode=RATIONAL, tol=DEFAULT_FLOAT_TOL):
    """Upper-triangular n-by-n matrices on the matrix units E_ij with i <= j."""
    pairs = [(i, j) for i in range(1, n + 1) for j in range(i, n + 1)]
    return _matrix_unit_algebra(n, pairs, mode, tol, f"T{n}", {"triangular_n": n})


def validate_group_table(table, labels=None):
    """Check a multiplication table defines a group; returns (labels, identity, inverse).

    table[g][h] is the index of the product gh.
    """
    n = len(table)
    if n == 0:
        raise PresentationError("empty group table")
    for row in table:
        if len(row) != n or any(type(x) is not int or not 0 <= x < n for x in row):
            raise PresentationError("group table is not a square table of indices")
    for g in range(n):
        for h in range(n):
            for k in range(n):
                if table[table[g][h]][k] != table[g][table[h][k]]:
                    raise PresentationError("group table is not associative")
    identity = None
    for e in range(n):
        if all(table[e][g] == g and table[g][e] == g for g in range(n)):
            identity = e
            break
    if identity is None:
        raise PresentationError("group table has no identity")
    inverse = [None] * n
    for g in range(n):
        for h in range(n):
            if table[g][h] == identity and table[h][g] == identity:
                inverse[g] = h
                break
        if inverse[g] is None:
            raise PresentationError(f"group element {g} has no inverse")
    if labels is None:
        labels = [f"g{k}" for k in range(n)]
        labels[identity] = "e"
    elif len(labels) != n:
        raise PresentationError("group labels and table size differ")
    return list(labels), identity, inverse


def group_algebra(table, labels=None, mode=RATIONAL, tol=DEFAULT_FLOAT_TOL, name=None):
    """l1 group algebra of a finite group given by its multiplication table.

    validate_group_table proves the group laws, and one-term rows of unit
    weight are submultiplicative, so the presentation is built unvalidated."""
    labels, identity, inverse = validate_group_table(table, labels)
    n = len(table)
    mul = {(g, h): {table[g][h]: 1} for g in range(n) for h in range(n)}
    return AlgebraPresentation(labels, mul, unit={identity: 1}, mode=mode, tol=tol,
                               name=name or f"l1(G{n})",
                               meta={"group_table": [list(r) for r in table],
                                     "group_identity": identity,
                                     "group_inverse": list(inverse)}, validate=False)


def cyclic_group_table(n):
    if n < 1:
        raise ValueError("cyclic group needs n >= 1")
    table = [[(a + b) % n for b in range(n)] for a in range(n)]
    labels = [f"c{k}" for k in range(n)]
    labels[0] = "e"
    return table, labels


def abelian_product_table(sizes):
    """Direct product of cyclic groups C_{n1} x ... x C_{nk}."""
    if not sizes:
        raise ValueError("need at least one cyclic factor")
    elems = [()]
    for n in sizes:
        elems = [t + (r,) for t in elems for r in range(n)]
    index = {t: i for i, t in enumerate(elems)}
    table = [[index[tuple((a + b) % n for a, b, n in zip(x, y, sizes))]
              for y in elems] for x in elems]
    labels = ["(" + ",".join(map(str, t)) + ")" for t in elems]
    return table, labels


def symmetric_group_table(n):
    """Multiplication table of S_n on all permutations of {0..n-1}.

    Product st acts by s after t (st)(x) = s(t(x)).
    """
    perms = sorted(permutations(range(n)))
    index = {p: i for i, p in enumerate(perms)}
    table = [[index[tuple(s[t[x]] for x in range(n))] for t in perms] for s in perms]
    labels = ["".join(map(str, p)) for p in perms]
    return table, labels


def direct_sum_algebra(blocks, name=None):
    """l1 direct sum of finitely many presentations; cross products vanish.

    Basis labels are prefixed with the block number; meta records the block
    offsets and the original presentations so embeddings and projections can
    be rebuilt.
    """
    if not blocks:
        raise ValueError("direct sum needs at least one block")
    mode = blocks[0].mode
    if any(b.mode != mode for b in blocks):
        raise PresentationError("direct-sum blocks disagree on scalar mode")
    labels, weights, offsets = _block_layout(blocks)
    mul = {}
    for o, b in zip(offsets, blocks):
        mul.update(_shifted(b.mul, o, o, o))
    unit = None
    if all(b.unit is not None for b in blocks):
        unit = {o + k: c for o, b in zip(offsets, blocks) for k, c in b.unit.items()}
    tol = max(b.tol for b in blocks)
    return AlgebraPresentation(labels, mul, weights, unit, mode, tol,
                               name or "+".join(b.name or "?" for b in blocks),
                               meta={"blocks": list(blocks), "block_offsets": offsets})


def _sum_layout(sum_algebra):
    try:
        return sum_algebra.meta["blocks"], sum_algebra.meta["block_offsets"]
    except KeyError:
        raise ValueError("presentation was not built by direct_sum_algebra") from None


def block_embedding(sum_algebra, block_index):
    """The isometric embedding of one block into the direct sum."""
    blocks, offsets = _sum_layout(sum_algebra)
    block = blocks[block_index]
    off = offsets[block_index]
    images = [{off + j: block.scalar(1)} for j in range(block.dim)]
    return LinearMap(block, sum_algebra, images)


def block_projection(sum_algebra, block_index):
    """The coordinate projection of the direct sum onto one block."""
    blocks, offsets = _sum_layout(sum_algebra)
    block = blocks[block_index]
    off = offsets[block_index]
    images = []
    for j in range(sum_algebra.dim):
        if off <= j < off + block.dim:
            images.append({j - off: block.scalar(1)})
        else:
            images.append({})
    return LinearMap(sum_algebra, block, images)
