"""Independent oracles used only by the tests.

Matrix-algebra elements are re-expanded into dense Fraction matrices and
multiplied entrywise, bypassing the structure-constant machinery entirely;
rank and nullspace dimensions are cross-checked through sympy.  Expected
values in the tests labelled "dense oracle" were computed along this path.
"""

from fractions import Fraction

import sympy


def zeros(n):
    return [[Fraction(0)] * n for _ in range(n)]


def dense_from_element(a):
    """n x n Fraction matrix of an element of the matrix-unit presentation."""
    n = a.space.meta["matrix_n"]
    M = zeros(n)
    for idx, c in a.coeffs.items():
        i, j = divmod(idx, n)
        M[i][j] = Fraction(c)
    return M


def element_from_dense(algebra, M):
    n = algebra.meta["matrix_n"]
    coeffs = {}
    for i in range(n):
        for j in range(n):
            if M[i][j]:
                coeffs[i * n + j] = M[i][j]
    return algebra.element(coeffs)


def mat_mul(X, Y):
    n = len(X)
    out = zeros(n)
    for i in range(n):
        for k in range(n):
            if X[i][k]:
                for j in range(n):
                    if Y[k][j]:
                        out[i][j] += X[i][k] * Y[k][j]
    return out


def mat_add(X, Y):
    return [[x + y for x, y in zip(rx, ry)] for rx, ry in zip(X, Y)]


def mat_sub(X, Y):
    return [[x - y for x, y in zip(rx, ry)] for rx, ry in zip(X, Y)]


def mat_trace(M):
    return sum(M[i][i] for i in range(len(M)))


def mat_abs_sum(M):
    return sum(abs(x) for row in M for x in row)


def sympy_rank(rows, ncols):
    """Rank of a sparse-row system, via sympy's dense exact elimination."""
    dense = [[sympy.Rational(row.get(j, 0)) for j in range(ncols)] for row in rows]
    if not dense:
        return 0
    return sympy.Matrix(dense).rank()


def sympy_nullity(rows, ncols):
    return ncols - sympy_rank(rows, ncols)


def tensor_arithmetic_defects(t, a):
    """The four defects of t at a by the Tensor2 and Element arithmetic of their
    definitions, with no kernel: d3 is flipped back so its norm sums in t's key
    order, the order the library's kernel keeps."""
    from amlab import contract, flip, left_action, multiply, right_action
    s = flip(t)
    d1 = (left_action(a, t) - right_action(t, a)).proj_norm()
    d2 = (multiply(contract(t), a) - a).norm()
    d3 = flip(left_action(a, s) - right_action(s, a)).proj_norm()
    d4 = (multiply(a, contract(s)) - a).norm()
    return d1, d2, d3, d4
