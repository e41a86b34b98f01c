"""Sparse two-leg tensors over an algebra presentation.

A Tensor2 models an element of the projective tensor square of a
weighted-l1 algebra: a sparse table {(i, j): c} standing for
sum c * b_i (x) b_j.  For weighted-l1 carriers the projective norm is
exactly sum |c| w_i w_j, so no norm estimation is needed.

Leg conventions (a an algebra element, t a tensor):

    left_action(a, t):            a (b (x) c) = ab (x) c
    right_action(t, a):           (b (x) c) a = b (x) ca
    opposite_left_action(a, t):   a o (b (x) c) = b (x) ac    = flip(a flip(t))
    opposite_right_action(t, a):  (b (x) c) o a = ba (x) c    = flip(flip(t) a)
    contract(t):                  b (x) c -> bc
    contract_swapped(t):          b (x) c -> cb               = contract(flip(t))
    flip(t):                      b (x) c -> c (x) b
"""

from . import linalg, scalars
from .algebra import AlgebraError, AlgebraPresentation, Element, same_space


class Tensor2:
    """Sparse coefficient table over basis pairs; immutable by convention.

    Contractions and the flip are cached on the instance since report
    generation evaluates them repeatedly against many test elements.
    """

    __slots__ = ("space", "coeffs", "_cache")

    def __init__(self, space, coeffs):
        if not isinstance(space, AlgebraPresentation):
            raise AlgebraError("tensors require an algebra presentation")
        self.space = space
        coerced = zip(coeffs, map(space.scalar, coeffs.values()))
        self.coeffs = {key: c for key, c in coerced if c != 0}
        self._cache = {}

    @classmethod
    def from_terms(cls, space, terms):
        """Build from [(i, j, coeff), ...] with repeated pairs accumulated."""
        out = {}
        for i, j, c in terms:
            space.check_index(i)
            space.check_index(j)
            linalg.vec_add_scaled(out, {(i, j): space.scalar(c)}, 1)
        return cls(space, out)

    def terms(self):
        return [(i, j, c) for (i, j), c in sorted(self.coeffs.items())]

    def proj_norm(self):
        if "proj_norm" not in self._cache:
            w = self.space.weights
            self._cache["proj_norm"] = sum(
                (abs(c) * w[i] * w[j] for (i, j), c in self.coeffs.items()),
                self.space.scalar(0))
        return self._cache["proj_norm"]

    def is_zero(self):
        return self.proj_norm() <= self.space.eps

    def symmetry_defect(self):
        """Projective norm of t - flip(t); zero exactly when t is symmetric."""
        return (self - flip(self)).proj_norm()

    def is_symmetric(self):
        return self.symmetry_defect() <= self.space.eps

    def __add__(self, other):
        self._check(other)
        out = dict(self.coeffs)
        linalg.vec_add_scaled(out, other.coeffs, 1)
        return Tensor2(self.space, out)

    def __sub__(self, other):
        self._check(other)
        out = dict(self.coeffs)
        linalg.vec_add_scaled(out, other.coeffs, -1)
        return Tensor2(self.space, out)

    def __neg__(self):
        return Tensor2(self.space, {k: -c for k, c in self.coeffs.items()})

    def scaled(self, c):
        c = self.space.scalar(c)
        if c == 0:
            return Tensor2(self.space, {})
        return Tensor2(self.space, {k: c * x for k, x in self.coeffs.items()})

    def __rmul__(self, other):
        if isinstance(other, Element):
            return left_action(other, self)
        return self.scaled(other)

    def __mul__(self, other):
        if isinstance(other, Element):
            return right_action(self, other)
        return self.scaled(other)

    def _check(self, other):
        if not isinstance(other, Tensor2) or other.space is not self.space:
            raise AlgebraError("tensors live over different presentations")

    def __eq__(self, other):
        return (isinstance(other, Tensor2) and self.space is other.space
                and self.coeffs == other.coeffs)

    def __repr__(self):
        n = len(self.coeffs)
        return f"<Tensor2 {n} term{'s' if n != 1 else ''} over {self.space!r}>"


def elementary(a, b):
    """The elementary tensor a (x) b."""
    same_space(a, b, "tensor factors")
    return Tensor2(a.space, {(i, j): ci * cj for i, ci in a.coeffs.items()
                             for j, cj in b.coeffs.items()})


def zero_tensor(space):
    return Tensor2(space, {})


def _act(a, t, side):
    """a times each left leg (side 'l') or each right leg times a, on the algebra's
    integer_tables, where right[l][i] is the row of b_i b_l and left[r][i] of b_r b_i."""
    if a.space is not t.space:
        raise AlgebraError("element and tensor live over different presentations")
    space = t.space
    ints = space.integer_tables
    a_scale, (av,) = scalars.clear_denominators(space.mode, [a.coeffs])
    t_scale, (tv,) = scalars.clear_denominators(space.mode, [t.coeffs])
    out = {}
    for (l, r), ct in tv.items():
        rows = ints.right[l] if side == "l" else ints.left[r]
        for i, ca in av.items():
            row = rows.get(i)
            if row:
                linalg.vec_add_scaled(out, {((k, r) if side == "l" else (l, k)): ck
                                            for k, ck in row.items()}, ca * ct)
    scale = ints.scale * a_scale * t_scale
    return Tensor2(space, {key: scalars.unscale(space.mode, c, scale)
                           for key, c in out.items()})


def left_action(a, t):
    """a (b (x) c) = ab (x) c."""
    return _act(a, t, "l")


def right_action(t, a):
    """(b (x) c) a = b (x) ca."""
    return _act(a, t, "r")


def opposite_left_action(a, t):
    """a o (b (x) c) = b (x) ac."""
    return flip(left_action(a, flip(t)))


def opposite_right_action(t, a):
    """(b (x) c) o a = ba (x) c."""
    return flip(right_action(flip(t), a))


def flip(t):
    """Transpose the legs: b (x) c -> c (x) b."""
    if "flip" not in t._cache:
        t._cache["flip"] = Tensor2(t.space, {(j, i): c for (i, j), c in t.coeffs.items()})
    return t._cache["flip"]


def contract(t):
    """Multiply the legs together: b (x) c -> bc."""
    if "contract" not in t._cache:
        out = {}
        for (i, j), c in t.coeffs.items():
            row = t.space.product_indices(i, j)
            if row:
                linalg.vec_add_scaled(out, row, c)
        t._cache["contract"] = Element(t.space, out)
    return t._cache["contract"]


def contract_swapped(t):
    """Multiply the legs in reverse order: b (x) c -> cb."""
    return contract(flip(t))


def proj_norm(t):
    return t.proj_norm()
