"""Linear maps between presented spaces, stored by images of basis vectors."""

from . import linalg
from .algebra import AlgebraError, Element, PresentationError, multiply
from .scalars import SchemaError


class LinearMap:
    """Linear map given by images[j] = sparse coefficients of the image of b_j."""

    def __init__(self, domain, codomain, images):
        if len(images) != domain.dim:
            raise SchemaError("one image per domain basis vector required")
        self.domain = domain
        self.codomain = codomain
        self.images = [
            {codomain.check_index(i): codomain.scalar(c) for i, c in img.items() if c != 0}
            for img in images
        ]

    @classmethod
    def zero(cls, domain, codomain):
        return cls(domain, codomain, [{} for _ in range(domain.dim)])

    @classmethod
    def identity(cls, space):
        return cls(space, space, [{j: space.scalar(1)} for j in range(space.dim)])

    def __call__(self, element):
        if element.space is not self.domain:
            raise AlgebraError("element is not over this map's domain")
        out = {}
        for j, c in element.coeffs.items():
            linalg.vec_add_scaled(out, self.images[j], c)
        return Element(self.codomain, out)

    def image_of_basis(self, j):
        return Element(self.codomain, dict(self.images[j]))

    def op_norm(self):
        """Weighted-l1 operator norm: max over basis of ||image|| / weight."""
        best = self.codomain.scalar(0)
        for j, img in enumerate(self.images):
            n = Element(self.codomain, img).norm() / self.domain.weights[j]
            if n > best:
                best = n
        return best

    def is_zero(self):
        return all(Element(self.codomain, img).is_zero() for img in self.images)

    def __add__(self, other):
        self._check_same_shape(other)
        return LinearMap(self.domain, self.codomain,
                         [linalg.vec_add_scaled(dict(a), b, 1)
                          for a, b in zip(self.images, other.images)])

    def __sub__(self, other):
        self._check_same_shape(other)
        return LinearMap(self.domain, self.codomain,
                         [linalg.vec_add_scaled(dict(a), b, -1)
                          for a, b in zip(self.images, other.images)])

    def scaled(self, c):
        c = self.codomain.scalar(c)
        return LinearMap(self.domain, self.codomain,
                         [linalg.vec_scale(img, c) for img in self.images])

    def compose(self, inner):
        """self after inner."""
        if inner.codomain is not self.domain:
            raise AlgebraError("composition shapes do not match")
        images = []
        for img in inner.images:
            out = {}
            for j, c in img.items():
                linalg.vec_add_scaled(out, self.images[j], c)
            images.append(out)
        return LinearMap(inner.domain, self.codomain, images)

    def _check_same_shape(self, other):
        if self.domain is not other.domain or self.codomain is not other.codomain:
            raise AlgebraError("maps have different domain or codomain")

    def __eq__(self, other):
        return (isinstance(other, LinearMap) and self.domain is other.domain
                and self.codomain is other.codomain and self.images == other.images)

    def __repr__(self):
        return f"<LinearMap {self.domain.dim}->{self.codomain.dim}>"


def flatten_map(m):
    """Sparse vector over domain*codomain coordinates, for span arithmetic on maps."""
    dim_c = m.codomain.dim
    out = {}
    for j, img in enumerate(m.images):
        for k, c in img.items():
            out[j * dim_c + k] = c
    return out


def map_from_flat(domain, codomain, flat):
    images = [{} for _ in range(domain.dim)]
    for idx, c in flat.items():
        images[idx // codomain.dim][idx % codomain.dim] = c
    return LinearMap(domain, codomain, images)


def hom_defect(theta):
    """Largest ||theta(b_i b_j) - theta(b_i) theta(b_j)|| over basis pairs."""
    dom, cod = theta.domain, theta.codomain
    worst = cod.scalar(0)
    for i in range(dom.dim):
        ti = theta.image_of_basis(i)
        for j in range(dom.dim):
            lhs = theta(multiply(dom.basis_element(i), dom.basis_element(j)))
            rhs = multiply(ti, theta.image_of_basis(j))
            d = (lhs - rhs).norm()
            if d > worst:
                worst = d
    return worst


def is_surjective(theta):
    return linalg.rank(theta.images, theta.codomain.eps) == theta.codomain.dim


def check_epimorphism(theta):
    """Raise unless theta is a multiplicative surjection (within the codomain's eps)."""
    d = hom_defect(theta)
    if d > theta.codomain.eps:
        raise PresentationError(f"map is not multiplicative on basis pairs (defect {d})")
    if not is_surjective(theta):
        raise PresentationError("map is not surjective")
