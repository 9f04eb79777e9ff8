"""Extensions realized along the recorded parts of their target.

``realize_extension`` pushes out only over the parts of a ``direct_sum``
target that the cocycle touches and records the untouched parts, as the
same objects, in the middle term.  These tests hold it against the pushout
over the whole target (``oracles.reference_realize_extension``) on the
Bongartz complements of every simple of the A_n families and two fixtures.
"""

import pytest

from conftest import linear_algebra
from oracles import reference_realize_extension
from quivertilt import GF, QQ, ext, regular_module, simple
from quivertilt.formats import fixture_algebra
from quivertilt.homology import (ExtClass, connecting_class, left_regular_module,
                                 realize_extension)
from quivertilt.modules import (_block_maps, direct_sum, is_isomorphic, match_decomposition,
                                decompose, zero_map)


def _algebras():
    for n in (3, 4, 5, 6):
        yield f"A{n}/hered/Q", linear_algebra(n)
        yield f"A{n}/rad2/GF(101)", linear_algebra(n, True, GF(101))
    for name in ("cycle2", "a2"):
        yield name, fixture_algebra(name)


ALGEBRAS = dict(_algebras())


def _untouched(cocycle, target):
    """The recorded parts of target on whose block the cocycle vanishes."""
    return [part for part, proj in zip(target._caches["parts"], _block_maps(target)[1])
            if cocycle.compose(proj).is_zero()]


@pytest.mark.parametrize("name", list(ALGEBRAS))
def test_bongartz_complement_matches_the_unsplit_pushout(name, monkeypatch):
    """N of 0 -> R -> N -> S_v^k -> 0 for every simple S_v: isomorphic to
    the pushout over all of R, with the same Krull-Schmidt grouping, and
    every part of R the class does not touch recorded in N as itself."""
    import quivertilt.homology as homology
    from quivertilt.homology import universal_extension

    alg = ALGEBRAS[name]
    r = regular_module(alg)
    classes = []

    def recording(c):
        classes.append(c)
        return realize_extension(c)

    monkeypatch.setattr(homology, "realize_extension", recording)
    for v in alg.vertices:
        classes.clear()
        n_mod, ses = universal_extension(simple(alg, v), r)
        if not classes:  # Ext^1(S_v, R) = 0: N is R itself
            assert n_mod is r
            continue
        (cls,) = classes
        ref_mid, _, _ = reference_realize_extension(cls)
        assert is_isomorphic(n_mod, ref_mid), (name, v)
        assert match_decomposition(decompose(n_mod), decompose(ref_mid)), (name, v)
        untouched = _untouched(cls.cocycle, r)
        assert untouched, (name, v)
        recorded = n_mod._caches["parts"]
        assert all(any(q is p for q in recorded) for p in untouched), (name, v)
        assert len(recorded) == len(untouched) + 1, (name, v)


@pytest.mark.parametrize("name", list(ALGEBRAS))
def test_connecting_class_round_trips_on_a_target_with_parts(name):
    alg = ALGEBRAS[name]
    r = regular_module(alg)
    for v in alg.vertices:
        space = ext(1, simple(alg, v), r)
        for k, cls in enumerate(space.classes):
            ses = realize_extension(cls)
            expected = tuple(1 if i == k else 0 for i in range(space.dim))
            assert tuple(connecting_class(ses, space)) == expected, (name, v, k)


def test_zero_cocycle_records_every_part_of_the_target(cycle2):
    r = regular_module(cycle2)
    space = ext(1, simple(cycle2, "2"), r)
    res = space.resolution
    ses = realize_extension(ExtClass(res, 1, r, zero_map(res.terms[1].rep, r)))
    parts = ses.mid._caches["parts"]
    assert len(parts) == 3 and parts[1:] == r._caches["parts"]
    assert all(a is b for a, b in zip(parts[1:], r._caches["parts"]))
    assert is_isomorphic(parts[0], simple(cycle2, "2"))
    assert is_isomorphic(ses.mid, direct_sum([r, simple(cycle2, "2")]))
    assert connecting_class(ses, space) == (0,) * space.dim


@pytest.mark.parametrize("field", [QQ, GF(101)])
def test_a_cocycle_touching_every_part_gives_the_unsplit_pushout(field):
    """S_2 ⊕ S_2 over a2, with the sum of both classes of Ext^1(S_1, -):
    both parts are touched, so mid is the pushout over the whole target,
    matrix for matrix."""
    a2 = fixture_algebra("a2", field)
    target = direct_sum([simple(a2, "2"), simple(a2, "2")])
    space = ext(1, simple(a2, "1"), target)
    assert space.dim == 2
    c0, c1 = space.classes
    cls = ExtClass(space.resolution, 1, target, c0.cocycle.add(c1.cocycle))
    assert _untouched(cls.cocycle, target) == []
    ses = realize_extension(cls)
    ref_mid, ref_incl, ref_proj = reference_realize_extension(cls)
    assert "parts" not in ses.mid._caches
    assert (ses.mid.dims, ses.mid.arrow_mats) == (ref_mid.dims, ref_mid.arrow_mats)
    assert ses.incl.mats == ref_incl.mats and ses.proj.mats == ref_proj.mats
    assert connecting_class(ses, space) == (1, 1)


def test_regular_modules_are_memoized_per_algebra(cycle2):
    assert regular_module(cycle2) is regular_module(cycle2)
    assert left_regular_module(cycle2) is left_regular_module(cycle2)
    assert regular_module(linear_algebra(3)) is not regular_module(linear_algebra(3))
