"""Finite-dimensional rings given by structure constants.

Endomorphism rings of localized modules are presented by structure
constants, with the algebra homomorphism lambda attached.  No corner ring
eAe is built here: the stratifying-ideal test reads its multiplication
check Ae ⊗_{eAe} eA -> AeA off Tor over the algebra itself.
"""

from dataclasses import dataclass

from .algebra import Algebra
from .errors import ConsistencyError, InputError
from .linalg import Matrix, row_space


@dataclass(frozen=True)
class SCRing:
    """Associative unital ring: basis b_0..b_{d-1}, products
    b_i * b_j = sum_k mult[(i, j)][k] b_k, unit coordinates."""

    field: object
    dim: int
    labels: tuple
    mult: dict
    unit: tuple

    def __post_init__(self):
        fld = self.field
        if len(self.labels) != self.dim or len(self.unit) != self.dim:
            raise InputError("ring presentation sizes disagree")
        for i in range(self.dim):
            for j in range(self.dim):
                if (i, j) not in self.mult or len(self.mult[(i, j)]) != self.dim:
                    raise InputError("incomplete multiplication table")
        for i in range(self.dim):
            ei = tuple(fld.one() if k == i else fld.zero() for k in range(self.dim))
            if self.product(self.unit, ei) != ei or self.product(ei, self.unit) != ei:
                raise ConsistencyError("unit law fails")
        for i in range(self.dim):
            for j in range(self.dim):
                ij = self.mult[(i, j)]
                for k in range(self.dim):
                    ek = tuple(fld.one() if t == k else fld.zero() for t in range(self.dim))
                    left = self.product(ij, ek)
                    jk = self.mult[(j, k)]
                    ei = tuple(fld.one() if t == i else fld.zero() for t in range(self.dim))
                    right = self.product(ei, jk)
                    if left != right:
                        raise ConsistencyError("ring structure constants not associative")

    @classmethod
    def _trusted(cls, field, dim, labels, mult, unit) -> "SCRing":
        """Build without the checks of __post_init__, for rings that are
        associative and unital by construction, such as a ring of module
        maps under composition."""
        obj = object.__new__(cls)
        object.__setattr__(obj, "field", field)
        object.__setattr__(obj, "dim", dim)
        object.__setattr__(obj, "labels", labels)
        object.__setattr__(obj, "mult", mult)
        object.__setattr__(obj, "unit", unit)
        return obj

    def product(self, u: tuple, w: tuple) -> tuple:
        fld = self.field
        out = [fld.zero()] * self.dim
        for i, c in enumerate(u):
            if not c:
                continue
            for j, d in enumerate(w):
                if not d:
                    continue
                cd = fld.mul(c, d)
                for k, e in enumerate(self.mult[(i, j)]):
                    if e:
                        out[k] = fld.add(out[k], fld.mul(cd, e))
        return tuple(out)

    def two_sided_ideal_dim(self, seed_vecs) -> int:
        """Dimension of the two-sided ideal generated by the given vectors."""
        fld = self.field
        span = row_space(Matrix(fld, len(seed_vecs), self.dim, tuple(tuple(v) for v in seed_vecs)))
        basis_vecs = [tuple(fld.one() if k == i else fld.zero() for k in range(self.dim))
                      for i in range(self.dim)]
        while True:
            new_rows = []
            for r in span.entries:
                for b in basis_vecs:
                    new_rows.append(self.product(r, b))
                    new_rows.append(self.product(b, r))
            bigger = row_space(span.vstack(Matrix(fld, len(new_rows), self.dim, tuple(new_rows))))
            if bigger.rows == span.rows:
                return span.rows
            span = bigger


@dataclass(frozen=True)
class RingPresentation:
    """A ring together with a homomorphism lambda from a path algebra,
    given on the algebra basis.  Checked: lambda(1) = 1 and
    lambda(p)lambda(q) = lambda(pq) on all basis pairs."""

    ring: SCRing
    algebra: Algebra
    lam: tuple  # algebra basis index -> ring coordinate vector

    def __post_init__(self):
        alg = self.algebra
        fld = alg.field
        if len(self.lam) != alg.dim:
            raise InputError("lambda must be given on the whole algebra basis")
        one = [fld.zero()] * self.ring.dim
        for v in alg.vertices:
            i = alg.vertex_idempotent(v)
            one = [fld.add(a, b) for a, b in zip(one, self.lam[i])]
        if tuple(one) != self.ring.unit:
            raise ConsistencyError("lambda does not preserve the unit")
        for i in range(alg.dim):
            for j in range(alg.dim):
                lhs = self.ring.product(self.lam[i], self.lam[j])
                rhs = [fld.zero()] * self.ring.dim
                for k, c in alg.mult[(i, j)]:
                    rhs = [fld.add(a, fld.mul(c, b)) for a, b in zip(rhs, self.lam[k])]
                if lhs != tuple(rhs):
                    raise ConsistencyError("lambda is not multiplicative")
