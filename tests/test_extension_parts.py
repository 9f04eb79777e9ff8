"""Extensions realized along the recorded parts of their target.

``realize_extension`` pushes out only over the parts of a ``direct_sum``
target that the cocycle touches and records the untouched parts, as the
same objects, in the middle term.  These tests hold it against the pushout
over the whole target (``oracles.reference_realize_extension``) on the
Bongartz complements of every simple of the A_n families and two fixtures.
"""

import pytest

from conftest import linear_algebra
from oracles import connecting_class, left_regular_module, reference_realize_extension
from quivertilt import GF, QQ, ext, regular_module, simple
from quivertilt.formats import fixture_algebra
from quivertilt.homology import ExtClass, realize_extension
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
    return [part for part, proj in zip(target._parts, _block_maps(target)[1])
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
        recorded = n_mod._parts
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
    ses = realize_extension(ExtClass(res, 1, r, zero_map(res.terms[1], r)))
    parts = ses.mid._parts
    assert len(parts) == 3 and parts[1:] == r._parts
    assert all(a is b for a, b in zip(parts[1:], r._parts))
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
    assert not ses.mid._parts
    assert (ses.mid.dims, ses.mid.arrow_mats) == (ref_mid.dims, ref_mid.arrow_mats)
    assert ses.incl.mats == ref_incl.mats and ses.proj.mats == ref_proj.mats
    assert connecting_class(ses, space) == (1, 1)


def test_regular_modules_are_memoized_per_algebra(cycle2):
    assert regular_module(cycle2) is regular_module(cycle2)
    assert left_regular_module(cycle2) is left_regular_module(cycle2)
    assert regular_module(linear_algebra(3)) is not regular_module(linear_algebra(3))


FIELDS = {"Q": None, "GF101": GF(101), "GF5": GF(5)}


def _fixture_classes(fld):
    """Every basis class of Ext^1 between the simples, injectives and
    projectives of the four fixtures over the field."""
    from quivertilt import injective, projective
    for name in ("a2", "kron2", "cycle2", "triple3"):
        alg = fixture_algebra(name, fld)
        mods = [build(alg, v) for v in alg.vertices for build in (simple, injective, projective)]
        for m in mods:
            for n in mods:
                yield from ext(1, m, n).classes


def _bongartz_classes(fld, monkeypatch):
    """The class each universal extension 0 -> R -> N -> S_v^k -> 0 over
    hereditary A_3..A_5 realizes."""
    import quivertilt.homology as homology
    from quivertilt.homology import universal_extension
    classes = []

    def recording(c):
        classes.append(c)
        return realize_extension(c)

    monkeypatch.setattr(homology, "realize_extension", recording)
    for n in (3, 4, 5):
        alg = linear_algebra(n, field=fld or QQ)
        for v in alg.vertices:
            universal_extension(simple(alg, v), regular_module(alg))
    monkeypatch.undo()
    return classes


@pytest.mark.parametrize("field", list(FIELDS))
def test_pushout_is_the_reference_pushout_entry_for_entry(field, monkeypatch):
    """The cokernel of (-c, d_1) gives the reference pushout's middle term,
    inclusion and projection matrix for matrix."""
    from quivertilt.homology import _pushout
    fld = FIELDS[field]
    classes = list(_fixture_classes(fld)) + _bongartz_classes(fld, monkeypatch)
    assert len(classes) > 30
    for cls in classes:
        mid, incl, proj = _pushout(cls.resolution, cls.cocycle)
        ref_mid, ref_incl, ref_proj = reference_realize_extension(cls)
        assert (mid.dims, mid.arrow_mats) == (ref_mid.dims, ref_mid.arrow_mats)
        assert incl.mats == ref_incl.mats and proj.mats == ref_proj.mats
        assert incl.source is cls.target and proj.target is cls.resolution.module


def _rad2_classes(fld):
    """The basis classes of Ext^1(S_v, ⊕ simples ⊕ projectives) over
    rad-square-zero A_4 and A_5, whose resolutions are long and whose
    target has arrows acting nontrivially."""
    from quivertilt import projective
    for n in (4, 5):
        alg = linear_algebra(n, True, fld or QQ)
        target = direct_sum([build(alg, v) for build in (simple, projective)
                             for v in alg.vertices])
        for v in alg.vertices:
            yield from ext(1, simple(alg, v), target).classes


@pytest.mark.parametrize("field", list(FIELDS))
def test_a_cocycle_that_does_not_vanish_on_the_second_syzygy_is_rejected(field):
    """Changing one generator image of a cocycle so that c∘d_2 != 0 fails
    the cocycle check, in _pushout and in realize_extension; a change that
    keeps c∘d_2 = 0 is still a cocycle and pushes out."""
    from quivertilt import ConsistencyError
    from quivertilt.homology import _pushout, _split_gen_vector, gen_coords
    from quivertilt.modules import hom_from_gens
    rejected = kept = 0
    fld = FIELDS[field]
    for cls in list(_fixture_classes(fld)) + list(_rad2_classes(fld)):
        res, n = cls.resolution, cls.target
        if res.length < 2:
            continue
        p1 = res.terms[1]
        flat = list(gen_coords(p1, cls.cocycle))
        for i in range(len(flat)):
            changed = flat[:i] + [n.algebra.field.add(flat[i], 1)] + flat[i + 1:]
            c = hom_from_gens(p1, n, _split_gen_vector(p1, n, changed))
            bad = ExtClass(res, 1, n, c)
            if res.diffs[1].compose(c).is_zero():
                _pushout(res, c)
                kept += 1
                continue
            for realize in (lambda: _pushout(res, c), lambda: realize_extension(bad)):
                with pytest.raises(ConsistencyError, match="cocycle"):
                    realize()
            rejected += 1
    assert rejected >= 5 and kept


def test_a_pushout_needs_the_resolution_through_the_second_term(cycle2):
    """An incomplete resolution that stops at P_1 cannot show c∘d_2 = 0."""
    from quivertilt import InputError
    from quivertilt.homology import Resolution, _pushout, min_resolution
    cls = next(c for c in ext(1, simple(cycle2, "1"), simple(cycle2, "2")).classes)
    res = min_resolution(simple(cycle2, "1"), 1, require_finite=False)
    assert res.length == 1 and not res.complete
    short = Resolution(res.module, res.terms, res.diffs, res.augment, False)
    with pytest.raises(InputError, match="P_2"):
        _pushout(short, cls.cocycle)
