"""The Euler form as an integer oracle for Ext: on an algebra of finite
global dimension, Σ_i (-1)^i dim Ext^i(M, N) equals <dim M, dim N>, read
off the Cartan matrix with no resolution (Ringel, *Tame algebras and
integral quadratic forms*, LNM 1099; Happel, *Triangulated categories in
the representation theory of finite dimensional algebras*, LMS LN 119).
Checked on every pair of projectives, injectives and simples of the
fixtures and of the linear quivers A_3..A_6 with and without
radical-square-zero relations."""

import itertools

import pytest

from quivertilt import GF, ext_dim, global_dimension, injective, projective, simple
from quivertilt.formats import fixture_algebra
from quivertilt.modules import _same_module
from conftest import linear_algebra
from oracles import euler_characteristic, euler_form


def modules_of(alg):
    """(label, module) of P_v, I_v and S_v for every vertex v."""
    return [(f"{label}{v}", make(alg, v)) for v in alg.vertices
            for label, make in (("P", projective), ("I", injective), ("S", simple))]


def ext_dims(m, n, gldim):
    """dim Ext^i(m, n) for i = 0..gldim."""
    return [ext_dim(i, m, n) for i in range(gldim + 1)]


def euler_mismatches(alg):
    """The label pairs of modules_of(alg) where the alternating sum of Ext
    dimensions differs from the Euler form, and the number of pairs."""
    gldim = global_dimension(alg)
    assert gldim is not None
    mods = modules_of(alg)
    pairs = list(itertools.product(mods, mods))
    bad = [(a, b) for (a, m), (b, n) in pairs
           if euler_characteristic(ext_dims(m, n, gldim)) != euler_form(m, n)]
    return bad, len(pairs)


@pytest.mark.parametrize("field", [None, GF(101), GF(5)], ids=["Q", "GF101", "GF5"])
@pytest.mark.parametrize("name", ["cycle2", "triple3", "a2"])
def test_euler_form_on_the_fixtures(name, field):
    alg = fixture_algebra(name, field)
    bad, count = euler_mismatches(alg)
    assert count == 9 * len(alg.vertices) ** 2
    assert not bad, (name, bad)


@pytest.mark.parametrize("rad2", [False, True], ids=["hered", "rad2"])
@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_euler_form_on_linear_quivers(n, rad2):
    alg = linear_algebra(n, rad2)
    assert global_dimension(alg) == (n - 1 if rad2 else 1)
    bad, count = euler_mismatches(alg)
    assert count == 9 * n * n
    assert not bad, (n, rad2, bad)


@pytest.mark.parametrize("degree", [0, 1, 2])
@pytest.mark.parametrize("delta", [1, -1])
def test_a_shifted_ext_dimension_breaks_the_euler_identity(monkeypatch, degree, delta):
    """Ext^degree(I_1, S_2) of cycle2 shifted by delta inside the library
    (``homology.ext``): the Euler check flags that pair and no other."""
    import dataclasses

    import quivertilt.homology as homology

    alg = fixture_algebra("cycle2")
    i1, s2 = injective(alg, "1"), simple(alg, "2")
    real = homology.ext

    def shifted(k, m, n, *args, **kwargs):
        space = real(k, m, n, *args, **kwargs)
        if k == degree and _same_module(m, i1) and _same_module(n, s2):
            return dataclasses.replace(space, dim=space.dim + delta)
        return space

    assert euler_mismatches(alg)[0] == []
    monkeypatch.setattr(homology, "ext", shifted)
    assert euler_mismatches(alg)[0] == [("I1", "S2")]
