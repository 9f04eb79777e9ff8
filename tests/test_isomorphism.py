"""is_isomorphic is exact: "yes" comes with an invertible map, and "no"
comes from unequal dimensions of Hom(m, n), End(m) and End(n), from an
indecomposable module, whose local End ring keeps every basis of
Hom(m, n) out of the non-isomorphisms when m ≅ n, or from comparing
Krull-Schmidt groupings.  The verdicts agree with the seeded
random search it replaced (``oracles.reference_is_isomorphic``)."""

import itertools

import pytest

import quivertilt.modules as modules
from quivertilt import (GF, ConsistencyError, InputError, Representation, cokernel,
                        direct_sum, hom_space, injective, is_isomorphic,
                        left_add_approximation, projective, regular_module, simple,
                        tilting_module_check, universal_localization)
from quivertilt.formats import fixture_algebra
from quivertilt.linalg import Matrix
from oracles import reference_is_isomorphic

FIELDS = [None, GF(101), GF(2), GF(3)]
FIELD_IDS = ["Q", "GF101", "GF2", "GF3"]


def _mat(fld, rows):
    return Matrix(fld, len(rows), len(rows[0]), tuple(tuple(fld.coerce(x) for x in r) for r in rows))


def _kronecker(alg, a, b):
    n = len(a)
    return Representation(alg, {"1": n, "2": n}, {"a": _mat(alg.field, a), "b": _mat(alg.field, b)})


def _counting_branches(monkeypatch):
    """Record, in order, each request for a factor list ('indecomposable')
    and each match of two Krull-Schmidt groupings ('krull-schmidt')."""
    seen = []
    summands, match = modules.summand_factors, modules.match_decomposition

    def counting_summands(m):
        seen.append("indecomposable")
        return summands(m)

    def counting_match(dec, other):
        seen.append("krull-schmidt")
        return match(dec, other)

    monkeypatch.setattr(modules, "summand_factors", counting_summands)
    monkeypatch.setattr(modules, "match_decomposition", counting_match)
    return seen


@pytest.mark.parametrize("field", FIELDS, ids=FIELD_IDS)
def test_projective_is_not_the_sum_of_its_composition_factors(monkeypatch, field):
    # over a2 = (1 -> 2), P1 and S1 ⊕ S2 share dims (1, 1) and map to each
    # other both ways, but neither map is invertible; dim End(S1 ⊕ S2) = 2
    # differs from dim Hom = 1, which decides both ways
    alg = fixture_algebra("a2", field)
    p1, s12 = projective(alg, "1"), direct_sum([simple(alg, "1"), simple(alg, "2")])
    assert p1.dims == s12.dims
    assert hom_space(p1, s12).dim == hom_space(s12, p1).dim == 1
    assert hom_space(s12, s12).dim == 2
    seen = _counting_branches(monkeypatch)
    assert not is_isomorphic(p1, s12)
    assert not is_isomorphic(s12, p1)
    assert seen == []


@pytest.mark.parametrize("field", FIELDS, ids=FIELD_IDS)
def test_indecomposable_branch_decides_when_the_dimensions_agree(monkeypatch, field):
    # over cycle2, P1 and I1 share dims (1, 1) and are bricks with
    # dim Hom = 1 both ways, but no map between them is invertible
    alg = fixture_algebra("cycle2", field)
    p1, i1 = projective(alg, "1"), injective(alg, "1")
    assert p1.dims == i1.dims
    assert (hom_space(p1, i1).dim == hom_space(i1, p1).dim
            == hom_space(p1, p1).dim == hom_space(i1, i1).dim == 1)
    seen = _counting_branches(monkeypatch)
    assert not is_isomorphic(p1, i1)
    assert seen == ["indecomposable"]
    seen.clear()
    assert not is_isomorphic(i1, p1)
    assert seen == ["indecomposable"]


@pytest.mark.parametrize("field", FIELDS, ids=FIELD_IDS)
def test_self_extension_of_a_band_is_not_the_square_of_the_band(field):
    # the band K --(1, 1)--> K and its non-split self-extension (b a Jordan
    # block), against band ⊕ band: dims (2, 2), dim Hom = 2 both ways, but
    # dim End(band ⊕ band) = 4, which decides "no" in every characteristic
    alg = fixture_algebra("kron2", field)
    ext = _kronecker(alg, ((1, 0), (0, 1)), ((1, 1), (0, 1)))
    band = _kronecker(alg, ((1,),), ((1,),))
    square = direct_sum([band, band])
    assert hom_space(ext, square).dim == hom_space(square, ext).dim == 2
    assert hom_space(square, square).dim == 4
    assert not is_isomorphic(ext, square)
    assert not is_isomorphic(square, ext)
    if field is None or field.characteristic > ext.total_dim:
        assert len(modules.summand_factors(ext)) == 1
    else:
        # p <= dim: the trace form cannot certify End(ext) local
        with pytest.raises(InputError):
            modules.summand_factors(ext)


@pytest.mark.parametrize("field", FIELDS, ids=FIELD_IDS)
def test_krull_schmidt_branch_decides_sums_without_a_witness(monkeypatch, field):
    # with no witness offered for the sums themselves, isomorphic sums are
    # still recognised, by matching their groupings factor by factor; over
    # cycle2, P1 ⊕ P1 and P1 ⊕ I1 have dim Hom = dim End = 4 on both sides,
    # so only their groupings tell them apart
    alg = fixture_algebra("a2", field)
    p1, s1, s2 = projective(alg, "1"), simple(alg, "1"), simple(alg, "2")
    c2 = fixture_algebra("cycle2", field)
    c2_p1, c2_i1 = projective(c2, "1"), injective(c2, "1")
    cases = [(direct_sum([p1, s2]), direct_sum([s2, p1]), True),
             (direct_sum([s1, s1, s2]), direct_sum([s2, s1, s1]), True),
             (direct_sum([c2_p1, c2_p1]), direct_sum([c2_p1, c2_i1]), False)]
    sums = {id(m) for m, _, _ in cases}
    witness = modules._invertible_map
    monkeypatch.setattr(modules, "_invertible_map",
                        lambda hs: None if id(hs.source) in sums else witness(hs))
    seen = _counting_branches(monkeypatch)
    for m, n, expected in cases:
        seen.clear()
        assert is_isomorphic(m, n) == expected
        assert seen[-1] == "krull-schmidt"


def _localization(t):
    return universal_localization(tilting_module_check(t).sequence).ru_module


def _test_modules(alg, name):
    """The simples, projectives and injectives of alg, their pairwise sums,
    and R_U of the cycle2 and triple3 worked examples."""
    base = [make(alg, v) for make in (simple, projective, injective) for v in alg.vertices]
    mods = base + [direct_sum([x, y]) for x, y in itertools.combinations_with_replacement(base, 2)]
    if name == "cycle2":
        mods.append(_localization(direct_sum([projective(alg, "2"), simple(alg, "2")])))
    elif name == "triple3":
        tchar = direct_sum([projective(alg, "1"), projective(alg, "2"), simple(alg, "1")])
        f, _ = left_add_approximation(regular_module(alg), tchar)
        mods.append(_localization(direct_sum([f.target, cokernel(f)[0]])))
    return mods


@pytest.mark.parametrize("field", [None, GF(101)], ids=["Q", "GF101"])
def test_verdicts_match_the_random_search(field):
    verdicts = []
    for name in ("a2", "kron2", "cycle2", "triple3"):
        mods = _test_modules(fixture_algebra(name, field), name)
        for m, n in itertools.product(mods, repeat=2):
            if m.dims == n.dims:
                verdicts.append(is_isomorphic(m, n))
                assert verdicts[-1] == reference_is_isomorphic(m, n), (name, m.dims)
                assert hom_space(m, n).dim > 0  # so no verdict is an early exit
    assert (len(verdicts), verdicts.count(False)) == (425, 126)


@pytest.mark.xfail(raises=ConsistencyError, strict=True,
                   reason="End = K(i) is a field larger than K: no Fitting split exists "
                          "and the trace form cannot certify a local End/rad of dimension 2")
@pytest.mark.parametrize("field", [None, GF(7), GF(103), GF(101)],
                         ids=["Q", "GF7", "GF103", "GF101"])
def test_decompose_certifies_a_module_whose_end_is_a_field_extension(field):
    # K^2 ⇉ K^2 with a = I and b = rotation by a right angle: End = K[b] ≅
    # K[x]/(x^2 + 1), a field over Q, GF(7) and GF(103), so the module is
    # indecomposable; over GF(101), where -1 = 10^2, it splits into the
    # bands at b = 10 and b = -10
    m = _kronecker(fixture_algebra("kron2", field), ((1, 0), (0, 1)), ((0, -1), (1, 0)))
    parts = 2 if field is not None and field.characteristic == 101 else 1
    assert len(modules.summand_factors(m)) == parts
