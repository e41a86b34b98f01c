"""Trace-like witness functionals.

A symmetric (approximate) diagonal forces the existence of functionals that
vanish on commutators while taking the value 1 at a chosen nonzero central
element z.  At finite dimension the existence question is exact: such a
functional exists precisely when z is outside the span of the commutators,
and membership in that span is itself a certificate that no witness can
exist.
"""

from dataclasses import dataclass

from . import linalg
from .algebra import AlgebraError, Element, basis_commutators
from .tensor import contract_swapped, left_action


class Functional:
    """Dense linear functional: one value per basis element."""

    def __init__(self, space, values):
        if len(values) != space.dim:
            raise AlgebraError("one value per basis element required")
        self.space = space
        self.values = [space.scalar(v) for v in values]

    def __call__(self, element):
        if element.space is not self.space:
            raise AlgebraError("element is not over this functional's space")
        return sum((self.values[i] * c for i, c in element.coeffs.items()),
                   self.space.scalar(0))

    def norm(self):
        """Dual weighted-l1 norm: max |value| / weight."""
        return max((abs(v) / w for v, w in zip(self.values, self.space.weights)),
                   default=self.space.scalar(0))

    def __eq__(self, other):
        return (isinstance(other, Functional) and self.space is other.space
                and self.values == other.values)

    def __repr__(self):
        return f"<Functional on {self.space!r}>"


@dataclass
class WitnessReport:
    functional: Functional
    commutator_defect: object   # max |f(b_p b_q - b_q b_p)| over basis pairs
    unit_residual: object       # |f(z) - 1|
    normalized: bool            # True when g had g(z) != 1 and was rescaled


def commutator_values(f):
    """Largest |f([b_p, b_q])| over basis pairs."""
    space = f.space
    worst = space.scalar(0)
    for _, _, vec in basis_commutators(space):
        v = abs(f(Element(space, vec)))
        if v > worst:
            worst = v
    return worst


def witness_from_diagonal(t, z, g):
    """Build f(a) = g(contract_swapped(a t)) and report how good a witness it is.

    Requires g(z) invertible; g is rescaled to g(z) = 1 first.  When t is an
    exact symmetric diagonal and z is central with contraction identity
    fixing z, the report shows a commutator defect of exactly zero and
    f(z) = 1.
    """
    space = t.space
    if z.space is not space or g.space is not space:
        raise AlgebraError("tensor, element and functional must share one presentation")
    gz = g(z)
    if space.is_zero_scalar(gz):
        raise AlgebraError("g(z) = 0: cannot normalize the seed functional")
    normalized = gz != 1
    scale = space.scalar(1) / gz
    values = []
    for i in range(space.dim):
        fi = g(contract_swapped(left_action(space.basis_element(i), t))) * scale
        values.append(fi)
    f = Functional(space, values)
    return WitnessReport(functional=f,
                         commutator_defect=commutator_values(f),
                         unit_residual=abs(f(z) - 1),
                         normalized=normalized)


@dataclass
class FeasibilityResult:
    decision: str                 # "FEASIBLE" or "INFEASIBLE"
    functional: object = None     # Functional, when feasible
    certificate: list = None      # [(p, q, coeff)] with z = sum coeff [b_p, b_q]
    commutator_dim: int = 0

    @property
    def feasible(self):
        return self.decision == "FEASIBLE"


def trace_feasibility(algebra, z):
    """Decide whether some functional kills all commutators while sending z to 1.

    FEASIBLE returns such a functional (exact in rational mode); INFEASIBLE
    returns a certificate expressing z as an explicit combination of basis
    commutators, which rules every witness out.
    """
    if z.space is not algebra:
        raise AlgebraError("element is not over the given presentation")
    if z.is_zero():
        raise AlgebraError("z must be nonzero")
    eps = algebra.eps
    commutators = list(basis_commutators(algebra))
    generators = [vec for _, _, vec in commutators]
    sp = linalg.span_basis(generators, eps)
    target = dict(z.coeffs)
    coords = (linalg.coordinates_in_span(generators, target, eps)
              if sp.contains(target) else None)
    if coords is not None:
        cert = [(p, q, algebra.scalar(c)) for (p, q, _), c in zip(commutators, coords)
                if c != 0]
        return FeasibilityResult("INFEASIBLE", certificate=cert, commutator_dim=sp.dim)
    rows = [dict(v) for v in sp.rows]
    rhs = [algebra.scalar(0)] * len(rows)
    rows.append(dict(z.coeffs))
    rhs.append(algebra.scalar(1))
    sol = linalg.solve(rows, rhs, algebra.dim, eps)
    if sol is None:
        # z in the span would have been caught above; nothing else can fail
        raise AlgebraError("witness system unexpectedly inconsistent")
    values = [sol.get(i, algebra.scalar(0)) for i in range(algebra.dim)]
    f = Functional(algebra, values)
    return FeasibilityResult("FEASIBLE", functional=f, commutator_dim=sp.dim)
