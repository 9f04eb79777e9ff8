"""add(T) membership by the minimal right add(T)-approximation, against the
Krull-Schmidt matching oracle, and the (T3) sequences it certifies."""

import itertools

import pytest

from quivertilt import (GF, QQ, TiltingCertificate, injective, projective, simple,
                        zero_module)
from quivertilt.formats import fixture_algebra
from quivertilt.modules import _same_module, direct_sum, right_add_approximation
from quivertilt.tilting import tilting_module_check
from conftest import tilting_summary
from oracles import in_add_of, reference_in_add_of

FIELDS = {"Q": QQ, "GF101": GF(101), "GF5": GF(5)}


def fixture_modules(alg):
    """P_v, I_v and S_v for every vertex v, in that order per vertex."""
    return [make(alg, v) for v in alg.vertices for make in (projective, injective, simple)]


def sweep_targets(mods):
    """Each module, and the direct sum of each pair of distinct ones."""
    return mods + [direct_sum([a, b]) for a, b in itertools.combinations(mods, 2)]


def assert_t1_is_split(cert):
    """T1 is zero, or a recorded direct_sum of factor objects of T, and the
    sequence's projection lands in that sum."""
    t1 = cert.sequence.right
    assert t1 is cert.sequence.proj.target
    if t1.total_dim == 0:
        return
    parts = t1._parts
    assert all(any(part is fac for fac in cert.factors) for part in parts)


@pytest.mark.parametrize("field", FIELDS.values(), ids=FIELDS.keys())
@pytest.mark.parametrize("name", ["a2", "cycle2", "triple3", "kron2"])
def test_membership_matches_the_matching_oracle(name, field):
    """Every P, I and S against every such module and every sum of two
    distinct ones: in_add_of agrees with Krull-Schmidt matching, and the
    right approximation is an isomorphism exactly on the yes cases.  Every
    target that certifies as tilting hands T1 on split; over triple3 no sum
    of two modules has the three summands a tilting module needs."""
    alg = fixture_algebra(name, None if field == QQ else field)
    mods = fixture_modules(alg)
    yes = no = certified = 0
    for t in sweep_targets(mods):
        for x in mods:
            verdict = in_add_of(x, t)
            assert verdict == reference_in_add_of(x, t), (name, x, t)
            g = right_add_approximation(x, t)
            assert (g is not None and g.is_isomorphism()) == verdict
            if g is not None:
                assert _same_module(g.target, x)
            yes, no = yes + verdict, no + (not verdict)
        cert = tilting_module_check(t)
        if isinstance(cert, TiltingCertificate):
            certified += 1
            assert_t1_is_split(cert)
    assert yes and no and (certified or len(alg.vertices) > 2)


@pytest.mark.parametrize("field", [QQ, GF(101)], ids=["Q", "GF101"])
@pytest.mark.parametrize("name, make, v", [
    ("a2", projective, "1"), ("cycle2", projective, "2"),
    ("kron2", projective, "1"), ("kron2", injective, "2")])
def test_cokernel_outside_add_t_is_the_only_reason(name, make, v, field):
    """These modules have pd <= 1, no self-extensions and generate, but the
    cokernel of the approximation of R is not in add(T)."""
    alg = fixture_algebra(name, None if field == QQ else field)
    assert tilting_summary(tilting_module_check(make(alg, v))) == ("failure", ("coker",))


def test_approximation_of_a_module_with_no_maps_from_t(cycle2):
    """Hom(t, x) = 0 gives no approximation; x = 0 is in every add(t)."""
    p2 = projective(cycle2, "2")
    s1 = simple(cycle2, "1")
    assert right_add_approximation(s1, p2) is None and not in_add_of(s1, p2)
    assert right_add_approximation(zero_module(cycle2), p2) is None
    assert in_add_of(zero_module(cycle2), p2)
