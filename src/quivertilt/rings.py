"""Finite-dimensional rings given by structure constants, and homological
algebra over them.

Two consumers: endomorphism rings of localized modules (with the algebra
homomorphism lambda attached), and corner rings eAe for the stratifying
ideal test, where Tor over eAe is computed from free resolutions.
"""

from dataclasses import dataclass

from .algebra import Algebra
from .errors import ConsistencyError, InputError
from .linalg import (Matrix, _tensor_homology_dims, _tensor_quotient, block_matrix, rank,
                     row_space, solve_linear_system, solve_right_kernel)


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

    def right_regular_matrices(self):
        """Matrix of x -> x * b_i for each i (rows = ring basis)."""
        fld = self.field
        out = []
        for i in range(self.dim):
            rows = [self.mult[(p, i)] for p in range(self.dim)]
            out.append(Matrix(fld, self.dim, self.dim, tuple(rows)))
        return out

    def is_idempotent(self, u: tuple) -> bool:
        return self.product(u, u) == tuple(u)

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
                for k, c in enumerate(alg.mult[(i, j)]):
                    if c:
                        rhs = [fld.add(a, fld.mul(c, b)) for a, b in zip(rhs, self.lam[k])]
                if lhs != tuple(rhs):
                    raise ConsistencyError("lambda is not multiplicative")

    def lam_of(self, coeffs) -> tuple:
        fld = self.algebra.field
        out = [fld.zero()] * self.ring.dim
        for i, c in enumerate(coeffs):
            if c:
                out = [fld.add(a, fld.mul(c, b)) for a, b in zip(out, self.lam[i])]
        return tuple(out)


# -- modules over a structure-constant ring ---------------------------------------


@dataclass(frozen=True)
class SCRightModule:
    """x * b_i = x @ act[i]."""

    ring: SCRing
    dim: int
    act: tuple

    def __post_init__(self):
        _check_action(self.ring.field, self.ring.unit, self.ring.mult, self.dim, self.act,
                      right=True)


@dataclass(frozen=True)
class SCLeftModule:
    """b_i * y = y @ act[i]; compatibility act[i*j] = act[j] @ act[i]."""

    ring: SCRing
    dim: int
    act: tuple

    def __post_init__(self):
        _check_action(self.ring.field, self.ring.unit, self.ring.mult, self.dim, self.act,
                      right=False)


def _check_action(fld, unit, mult, dim: int, act, right: bool):
    """Module laws for action matrices act[i] of the basis elements b_i of a
    ring with unit coordinates `unit` and products b_i b_j = sum_k
    mult[(i, j)][k] b_k: the unit acts as the identity, and act[i*j] is
    act[i] @ act[j] for a right module, act[j] @ act[i] for a left one (row
    convention).  Path algebras and structure-constant rings share it."""
    if len(act) != len(unit):
        raise InputError("one action matrix per ring basis element required")
    for a in act:
        if (a.rows, a.cols) != (dim, dim):
            raise InputError("action matrices must be square of the module dimension")

    def combo(coeffs) -> Matrix:
        out = Matrix.zeros(fld, dim, dim)
        for k, c in enumerate(coeffs):
            if c:
                out = out.add(act[k].scale(c))
        return out

    if combo(unit) != Matrix.identity(fld, dim):
        raise ConsistencyError("unit does not act as identity")
    for i in range(len(unit)):
        for j in range(len(unit)):
            got = act[i].mul(act[j]) if right else act[j].mul(act[i])
            if combo(mult[(i, j)]) != got:
                raise ConsistencyError("action does not respect ring multiplication")


def sc_free_right_module(ring: SCRing, rank_: int) -> SCRightModule:
    fld = ring.field
    regs = ring.right_regular_matrices()
    act = []
    for i in range(ring.dim):
        blocks = [[regs[i] if r == c else Matrix.zeros(fld, ring.dim, ring.dim)
                   for c in range(rank_)] for r in range(rank_)]
        act.append(block_matrix(fld, blocks) if rank_ else Matrix.zeros(fld, 0, 0))
    return SCRightModule(ring, rank_ * ring.dim, tuple(act))


def _module_span(m: SCRightModule, rows: Matrix) -> Matrix:
    """Smallest action-stable row space containing the given rows."""
    span = row_space(rows)
    while True:
        new = [tuple(Matrix(m.ring.field, 1, m.dim, (r,)).mul(a).entries[0])
               for r in span.entries for a in m.act]
        bigger = row_space(span.vstack(Matrix(m.ring.field, len(new), m.dim, tuple(new)))) \
            if new else span
        if bigger.rows == span.rows:
            return span
        span = bigger


def sc_cover_by_free(m: SCRightModule):
    """(free, cover matrix, generators): a surjection free -> m built from a
    greedy generating set of m."""
    fld = m.ring.field
    gens = []
    span = Matrix.zeros(fld, 0, m.dim)
    for i in range(m.dim):
        e = tuple(fld.one() if k == i else fld.zero() for k in range(m.dim))
        probe = Matrix(fld, 1, m.dim, (e,))
        sol, _ = solve_linear_system(span, probe) if span.rows else (None, None)
        if sol is not None:
            continue
        gens.append(e)
        span = _module_span(m, span.vstack(probe))
        if span.rows == m.dim:
            break
    free = sc_free_right_module(m.ring, len(gens))
    rows = []
    for g in gens:
        for i in range(m.ring.dim):
            # free basis (generator, ring basis b_i) maps to g * b_i
            rows.append(Matrix(fld, 1, m.dim, (g,)).mul(m.act[i]).entries[0])
    cover = Matrix(fld, free.dim, m.dim, tuple(rows))
    if rank(cover) != m.dim:
        raise ConsistencyError("free cover is not surjective")
    return free, cover, gens


def sc_kernel_module(m: SCRightModule, f: Matrix):
    """(kernel module, inclusion rows) of a module map given by a matrix f
    with x*f equivariant for the actions."""
    ker = solve_right_kernel(f)
    fld = m.ring.field
    act = []
    for i in range(m.ring.dim):
        img = ker.mul(m.act[i])
        sol, _ = solve_linear_system(ker, img)
        if sol is None:
            raise ConsistencyError("kernel is not action-stable")
        act.append(sol)
    return SCRightModule(m.ring, ker.rows, tuple(act)), ker


def sc_is_projective(m: SCRightModule) -> bool:
    """Does the free cover of m split?  (Equivalently, m is projective.)"""
    if m.dim == 0:
        return True
    ring = m.ring
    fld = ring.field
    free, cover, _ = sc_cover_by_free(m)
    # unknown section S (m.dim x free.dim) with S*cover = I and
    # act_m[i]*S = S*act_free[i] for every ring basis element
    nvars = m.dim * free.dim

    def var(r, k):
        return r * free.dim + k

    eq_cols = []
    targets = []
    # S * cover = identity
    for r in range(m.dim):
        for c in range(m.dim):
            col = [fld.zero()] * nvars
            for k in range(free.dim):
                if cover.entries[k][c]:
                    col[var(r, k)] = cover.entries[k][c]
            eq_cols.append(col)
            targets.append(fld.one() if r == c else fld.zero())
    # equivariance
    for i in range(ring.dim):
        A, B = m.act[i], free.act[i]
        for r in range(m.dim):
            for c in range(free.dim):
                col = [fld.zero()] * nvars
                for k in range(m.dim):
                    if A.entries[r][k]:
                        col[var(k, c)] = A.entries[r][k]
                for k in range(free.dim):
                    if B.entries[k][c]:
                        col[var(r, k)] = fld.sub(col[var(r, k)], B.entries[k][c])
                if any(col):
                    eq_cols.append(col)
                    targets.append(fld.zero())
    eqm = Matrix(fld, nvars, len(eq_cols), tuple(zip(*eq_cols))) if eq_cols \
        else Matrix.zeros(fld, nvars, 0)
    tgt = Matrix(fld, 1, len(targets), (tuple(targets),))
    sol, _ = solve_linear_system(eqm, tgt)
    return sol is not None


def sc_free_resolution(x: SCRightModule, max_len: int):
    """Free resolution of x up to length max_len.

    Returns (terms, diffs, conclusive) with diffs[k]: terms[k] ->
    terms[k-1] as matrices (diffs[0] is None).  conclusive means the
    resolution either terminated or reached a projective syzygy, so every
    Tor beyond the window vanishes."""
    terms = []
    diffs = []
    current = x
    incl_to_prev_free = None
    conclusive = False
    for k in range(max_len + 1):
        free, cover, _ = sc_cover_by_free(current)
        terms.append(free)
        diffs.append(None if k == 0 else cover.mul(incl_to_prev_free))
        kmod, krows = sc_kernel_module(free, cover)
        if kmod.dim == 0:
            conclusive = True
            break
        if not conclusive and sc_is_projective(kmod):
            # the syzygy is projective: Tor_i vanishes beyond this stage
            conclusive = True
        current = kmod
        incl_to_prev_free = krows
    return terms, diffs, conclusive


def sc_tor_dims(x: SCRightModule, y: SCLeftModule, max_degree: int):
    """(dims of Tor_1..Tor_max_degree, conclusive) over the common ring.

    conclusive is True when the free resolution terminated within the
    window, so all higher Tor groups vanish as well."""
    terms, diffs, conclusive = sc_free_resolution(x, max_degree + 1)
    spaces = [_tensor_quotient(x.ring.field, t.dim, y.dim, zip(t.act, y.act)) for t in terms]
    return _tensor_homology_dims(spaces, diffs[1:], y.dim, max_degree)[1:], conclusive


# -- corner rings eAe -------------------------------------------------------------


def corner_ring(alg: Algebra, vertices):
    """(eAe as SCRing, list of algebra basis indices forming its basis) for
    e the sum of the given vertex idempotents."""
    vs = tuple(vertices)
    for v in vs:
        alg.vertex_index(v)
    vset = set(vs)
    idx = [i for i in range(alg.dim)
           if alg.path_source(i) in vset and alg.path_target(i) in vset]
    fld = alg.field
    pos = {b: k for k, b in enumerate(idx)}
    mult = {}
    for a, i in enumerate(idx):
        for b, j in enumerate(idx):
            row = [fld.zero()] * len(idx)
            for k, c in enumerate(alg.mult[(i, j)]):
                if c:
                    if k not in pos:
                        raise ConsistencyError("corner product escaped the corner")
                    row[pos[k]] = c
            mult[(a, b)] = tuple(row)
    unit = [fld.zero()] * len(idx)
    for v in vs:
        unit[pos[alg.vertex_idempotent(v)]] = fld.one()
    labels = tuple(str(alg.basis[i]) for i in idx)
    return SCRing(fld, len(idx), labels, mult, tuple(unit)), idx


def corner_bimodules(alg: Algebra, vertices):
    """(Ae as right eAe-module, eA as left eAe-module, their algebra basis
    index lists, the corner ring)."""
    ring, corner_idx = corner_ring(alg, vertices)
    vset = set(vertices)
    fld = alg.field
    ae_idx = [i for i in range(alg.dim) if alg.path_target(i) in vset]
    ea_idx = [i for i in range(alg.dim) if alg.path_source(i) in vset]
    ae_pos = {b: k for k, b in enumerate(ae_idx)}
    ea_pos = {b: k for k, b in enumerate(ea_idx)}
    # right action of corner basis on Ae
    r_act = []
    for j in corner_idx:
        rows = []
        for i in ae_idx:
            row = [fld.zero()] * len(ae_idx)
            for k, c in enumerate(alg.mult[(i, j)]):
                if c:
                    row[ae_pos[k]] = c
            rows.append(tuple(row))
        r_act.append(Matrix(fld, len(ae_idx), len(ae_idx), tuple(rows)))
    ae = SCRightModule(ring, len(ae_idx), tuple(r_act))
    # left action of corner basis on eA: b * y, row-convention y @ L_b
    l_act = []
    for j in corner_idx:
        rows = []
        for i in ea_idx:
            row = [fld.zero()] * len(ea_idx)
            for k, c in enumerate(alg.mult[(j, i)]):
                if c:
                    row[ea_pos[k]] = c
            rows.append(tuple(row))
        l_act.append(Matrix(fld, len(ea_idx), len(ea_idx), tuple(rows)))
    ea = SCLeftModule(ring, len(ea_idx), tuple(l_act))
    return ae, ea, ae_idx, ea_idx, ring
