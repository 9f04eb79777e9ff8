import itertools

import pytest

from quivertilt import GF, injective, projective, regular_module, simple
from quivertilt.complexes import (ChainMap, PerfectComplex, _shift, cohomology, derived_hom,
                                  direct_sum_complexes, hom_window,
                                  identity_chain_map, is_exceptional,
                                  mapping_cone, resolve_to_complex, shift,
                                  shift_chain_map, zero_chain_map, zero_complex)
from quivertilt.formats import fixture_algebra
from quivertilt.errors import ConsistencyError, DimensionMismatch, InputError
from quivertilt.homology import (_hom_differential, _split_gen_vector, ext_dim, gen_coords,
                                 hom_from_gens)
from quivertilt.linalg import Matrix, row_space
from quivertilt.modules import ModuleMap, Representation, direct_sum, is_isomorphic, proj_sum
from oracles import reference_triangle, triangle_from_map


def test_resolve_projective_is_stalk(cycle2):
    c = resolve_to_complex(projective(cycle2, "2"))
    assert sorted(c.terms) == [0]


def test_resolve_s2_two_terms(cycle2):
    c = resolve_to_complex(simple(cycle2, "2"))
    assert sorted(c.terms) == [-1, 0]


def test_resolve_i1_three_terms(cycle2):
    c = resolve_to_complex(injective(cycle2, "1"))
    assert sorted(c.terms) == [-2, -1, 0]


def test_cohomology_concentrated_in_zero(cycle2, triple3):
    for alg in (cycle2, triple3):
        for v in alg.vertices:
            m = injective(alg, v)
            c = resolve_to_complex(m)
            assert is_isomorphic(cohomology(c, 0), m)
            for n in range(c.lo, c.hi + 1):
                if n != 0:
                    assert cohomology(c, n).total_dim == 0


def test_shift_squares_to_identity_data(cycle2):
    c = resolve_to_complex(simple(cycle2, "2"))
    back = shift(shift(c, 3), -3)
    assert sorted(back.terms) == sorted(c.terms)
    for n in c.diffs:
        assert back.diffs[n].mats == c.diffs[n].mats


def test_shift_is_memoized_per_degree(cycle2):
    c = resolve_to_complex(simple(cycle2, "2"))
    for n in (1, -1, 2):
        s = shift(c, n)
        assert shift(c, n) is s
        fresh = _shift(c, n)
        assert fresh is not s and s.terms == fresh.terms
        assert {i: d.mats for i, d in s.diffs.items()} == \
            {i: d.mats for i, d in fresh.diffs.items()}
    assert shift(c, 0) is c and shift(c, 1) is not shift(c, -1)


def test_shifting_back_returns_the_complex_itself(cycle2):
    """y[n] holds y as its shift by -n: shifting back, also a chain map,
    builds no copy of y."""
    for n in (1, -1, 2, -2):
        y = resolve_to_complex(simple(cycle2, "2"))
        assert shift(shift(y, n), -n) is y
        assert shift_chain_map(identity_chain_map(shift(y, n)), -n).source is y


def test_cone_of_identity_is_contractible(cycle2):
    c = resolve_to_complex(simple(cycle2, "2"))
    cone, _, _ = mapping_cone(identity_chain_map(c))
    for n in range(-3, 4):
        assert derived_hom(cone, c, n).dim == 0
        assert derived_hom(c, cone, n).dim == 0
        assert derived_hom(cone, cone, n).dim == 0


def test_cone_of_map_from_zero(cycle2):
    c = resolve_to_complex(simple(cycle2, "2"))
    z = zero_complex(cycle2)
    cone, incl, _ = mapping_cone(zero_chain_map(z, c))
    assert sorted(cone.terms) == sorted(c.terms)
    for n in hom_window(c, cone):
        assert derived_hom(c, cone, n).dim == derived_hom(c, c, n).dim


def test_derived_hom_equals_ext(all_algebras):
    for alg in all_algebras.values():
        mods = [simple(alg, v) for v in alg.vertices[:2]]
        mods.append(injective(alg, alg.vertices[0]))
        resolved = [(m, resolve_to_complex(m)) for m in mods]
        for (m, rm), (n, rn) in itertools.product(resolved, repeat=2):
            for k in range(0, 4):
                assert derived_hom(rm, rn, k).dim == ext_dim(k, m, n)


def test_identity_class_present(cycle2):
    c = resolve_to_complex(injective(cycle2, "1"))
    space = derived_hom(c, c, 0)
    assert space.dim >= 1
    coords = space.class_coords(identity_chain_map(c))
    assert any(coords)


def test_perpendicular_example(cycle2):
    rs2 = resolve_to_complex(simple(cycle2, "2"))
    ri1 = resolve_to_complex(injective(cycle2, "1"))
    both = direct_sum_complexes([ri1, ri1])
    for n in hom_window(rs2, both):
        assert derived_hom(rs2, both, n).dim == 0


def test_support_window_is_sharp(cycle2):
    rs2 = resolve_to_complex(simple(cycle2, "2"))
    ri1 = resolve_to_complex(injective(cycle2, "1"))
    w = hom_window(rs2, ri1)
    assert list(w) == list(range(ri1.lo - rs2.hi, ri1.hi - rs2.lo + 1))
    # outside the window the space is trivially zero by construction
    assert derived_hom(rs2, ri1, min(w) - 1).dim == 0
    assert derived_hom(rs2, ri1, max(w) + 1).dim == 0


def test_homotopy_invariance(cycle2):
    """Adding a contractible two-term identity complex never changes derived
    Hom dimensions."""
    rs2 = resolve_to_complex(simple(cycle2, "2"))
    ri1 = resolve_to_complex(injective(cycle2, "1"))
    from quivertilt.complexes import PerfectComplex
    from quivertilt.modules import identity_map
    p = proj_sum(cycle2, ("1",))
    q = proj_sum(cycle2, ("1",))
    contractible = PerfectComplex(cycle2, {0: p, 1: q}, {0: identity_map(p)})
    for x, y in ((rs2, ri1), (ri1, rs2)):
        fat_x = direct_sum_complexes([x, contractible])
        fat_y = direct_sum_complexes([y, shift(contractible, 2)])
        for n in range(-3, 4):
            d = derived_hom(x, y, n).dim
            assert derived_hom(fat_x, y, n).dim == d
            assert derived_hom(x, fat_y, n).dim == d
            assert derived_hom(fat_x, fat_y, n).dim == d


def test_a_complex_term_must_be_a_nonzero_projective_sum(cycle2):
    """A term is a module built by proj_sum over the complex's algebra: an
    equal module built any other way, a simple module, a plain tuple of
    generator vertices, the empty sum and a projective sum over another
    algebra are each an InputError, not an AttributeError or a complex
    whose derived Hom reads a dimension."""
    p = proj_sum(cycle2, ("1",))
    PerfectComplex(cycle2, {0: p}, {})
    rebuilt = Representation(cycle2, p.dims, p.arrow_mats)
    assert rebuilt == p
    for term in (rebuilt, simple(cycle2, "1"), ("1",)):
        with pytest.raises(InputError, match="not a projective sum built by proj_sum"):
            PerfectComplex(cycle2, {0: term}, {})
    with pytest.raises(InputError, match="zero terms"):
        PerfectComplex(cycle2, {0: proj_sum(cycle2, ())}, {})
    with pytest.raises(InputError, match="another algebra"):
        PerfectComplex(cycle2, {0: proj_sum(fixture_algebra("triple3"), ("1",))}, {})


def test_exceptionality(all_algebras, cycle2, triple3):
    for alg in all_algebras.values():
        for v in alg.vertices:
            assert is_exceptional(resolve_to_complex(projective(alg, v)))
    new_tilt = direct_sum_complexes([resolve_to_complex(injective(cycle2, "2")),
                                     resolve_to_complex(injective(cycle2, "1"))])
    assert is_exceptional(new_tilt)
    # the localized module of the three-vertex example has self-extensions
    p2 = projective(triple3, "2")
    from quivertilt.modules import quotient, socle
    x = quotient(p2, socle(p2)[1])[0]
    ru_like = direct_sum([simple(triple3, "1"), x, x])
    assert not is_exceptional(resolve_to_complex(ru_like))


def test_triangle_reproduces_middle_term(cycle2):
    ri1 = resolve_to_complex(injective(cycle2, "1"))
    rs2 = resolve_to_complex(simple(cycle2, "2"))
    space = derived_hom(ri1, rs2, 1)
    assert space.dim == 1
    T, incl, proj = triangle_from_map(space.reps[0])
    assert is_isomorphic(cohomology(T, 0), injective(cycle2, "2"))
    assert is_exceptional(T)


def test_triangle_matches_reference_assembly():
    """triangle_from_map is the shifted mapping cone: on every degree-1 class
    between simples, projectives and injectives of a2, cycle2 and triple3,
    its terms, differentials, inclusion and projection equal the direct
    block assembly, and incl/proj end and start at the returned T."""
    classes = 0
    for name in ("a2", "cycle2", "triple3"):
        alg = fixture_algebra(name)
        cs = [resolve_to_complex(f(alg, v)) for f in (simple, projective, injective)
              for v in alg.vertices]
        for x, y in itertools.product(cs, cs):
            for alpha in derived_hom(x, y, 1).reps:
                T, incl, proj = triangle_from_map(alpha)
                T_ref, incl_ref, proj_ref = reference_triangle(alpha)
                assert {n: t.gens for n, t in T.terms.items()} == \
                    {n: t.gens for n, t in T_ref.terms.items()}
                assert {n: d.mats for n, d in T.diffs.items()} == \
                    {n: d.mats for n, d in T_ref.diffs.items()}
                for f, f_ref in ((incl, incl_ref), (proj, proj_ref)):
                    assert {n: g.mats for n, g in f.comps.items()} == \
                        {n: g.mats for n, g in f_ref.comps.items()}
                assert incl.target is T and proj.source is T
                assert proj.target is alpha.source
                classes += 1
    assert classes == 15


def _induced_matrix(space_from, space_to, post, post_shift):
    """Matrix of composition with `post` on homotopy classes."""
    rows = []
    for f in space_from.reps:
        moved = f.compose(shift_chain_map(post, post_shift))
        rows.append(space_to.class_coords(moved) if space_to.dim else ())
    fld = post.source.algebra.field
    return Matrix(fld, len(rows), space_to.dim, tuple(rows))


def test_triangle_long_exact_sequence_ranks(cycle2):
    """Full rank bookkeeping of Hom(t, -) along a triangle x -> y -> cone:
    at every node the incoming image dimension equals the outgoing kernel
    dimension."""
    x = resolve_to_complex(simple(cycle2, "2"))
    y = resolve_to_complex(injective(cycle2, "2"))
    # a nonzero map x -> y, if any; otherwise zero map still gives a triangle
    maps = derived_hom(x, y, 0)
    f = maps.reps[0] if maps.dim else zero_chain_map(x, y)
    cone, incl, proj = mapping_cone(f)
    for t in (resolve_to_complex(simple(cycle2, "1")),
              resolve_to_complex(injective(cycle2, "1")),
              resolve_to_complex(regular_module(cycle2))):
        window = list(range(-4, 5))
        spaces_x = {n: derived_hom(t, x, n) for n in window}
        spaces_y = {n: derived_hom(t, y, n) for n in window}
        spaces_c = {n: derived_hom(t, cone, n) for n in window}
        for n in window[:-1]:
            # Hom(t, x[n]) -> Hom(t, y[n]) -> Hom(t, cone[n]) -> Hom(t, x[n+1])
            a = _induced_matrix(spaces_x[n], spaces_y[n], f, n)
            b = _induced_matrix(spaces_y[n], spaces_c[n], incl, n)
            # connecting: cone -> x[1]
            c = _induced_matrix(spaces_c[n], spaces_x[n + 1], proj, n)
            # exactness at y[n]: rank a = dim ker b
            assert row_space(a).rows == spaces_y[n].dim - row_space(b).rows
            # exactness at cone[n]: rank b = dim ker c
            assert row_space(b).rows == spaces_c[n].dim - row_space(c).rows


def test_chain_map_validation_rejects_bad_components(cycle2):
    from quivertilt.errors import ConsistencyError, DimensionMismatch, InputError
    c = resolve_to_complex(simple(cycle2, "2"))
    s = shift(c, 1)
    with pytest.raises((ConsistencyError, DimensionMismatch, InputError)):
        ChainMap(c, s, {n: identity_chain_map(c).comps[n] for n in c.terms})
    # genuinely non-commuting components on matching shapes
    double = direct_sum_complexes([c, c])
    good = derived_hom(c, double, 0)
    assert good.dim >= 1
    rep = good.reps[0]
    bad_comps = dict(rep.comps)
    top = max(bad_comps)
    bad_comps[top] = bad_comps[top].scale(2)
    if all(bad_comps[n].is_zero() for n in bad_comps if n != top):
        pytest.skip("no second component to break commutation against")
    with pytest.raises(ConsistencyError):
        ChainMap(c, rep.target, bad_comps)



# -- checks on generator rows --------------------------------------------------


def _fixture_complexes():
    """Resolutions with at least two differentials of the fixture simples
    and injectives, over Q and GF(101)."""
    for name, fld in itertools.product(("a2", "kron2", "cycle2", "triple3"), (None, GF(101))):
        alg = fixture_algebra(name, fld)
        for v in alg.vertices:
            for m in (simple(alg, v), injective(alg, v)):
                c = resolve_to_complex(m)
                if len(c.diffs) >= 2:
                    yield c


def _perturbed(psum, f, k):
    """f with its k-th generator-image coordinate raised by one: still a
    module map out of the projective sum."""
    coords = list(gen_coords(psum, f))
    coords[k] += 1
    g = hom_from_gens(psum, f.target, _split_gen_vector(psum, f.target, coords))
    return ModuleMap(g.source, g.target, g.mats)  # checks naturality


def _full_dd_is_zero(diffs):
    return all(d.compose(diffs[n + 1]).is_zero() for n, d in diffs.items() if n + 1 in diffs)


def _full_commutes(f):
    """The full check: f^n d_y = d_x f^{n+1} as module maps, over every degree."""
    x, y = f.source, f.target
    for n in set(x.terms) | set(y.terms):
        lhs = f.comp(n).compose(y.diff(n))
        rhs = x.diff(n).compose(f.comp(n + 1))
        if any(lhs.mats[v] != rhs.mats[v] for v in x.algebra.vertices):
            return False
    return True


def test_hom_complex_differential_squares_to_zero():
    """δⁿ⁺¹·δⁿ = 0 in the Hom complex of every pair of resolved simple,
    projective and injective modules of the fixtures, over Q and GF(101),
    in every degree of the window and the one below it; the layouts of
    adjacent differentials agree."""
    nonzero = 0
    for name, fld in itertools.product(("a2", "kron2", "cycle2", "triple3"), (None, GF(101))):
        alg = fixture_algebra(name, fld)
        cs = [resolve_to_complex(build(alg, v)) for build in (simple, projective, injective)
              for v in alg.vertices]
        for x, y in itertools.product(cs, repeat=2):
            window = hom_window(x, y)
            deltas = [_hom_differential(x.terms, x.diffs, y.terms, y.diffs, n)
                      for n in range(window.start - 1, window.stop + 1)]
            for (_, d0), (layout, d1) in zip(deltas, deltas[1:]):
                assert d0.cols == sum(w for _, w in layout) == d1.rows
                assert d0.mul(d1).is_zero()
                nonzero += not (d0.is_zero() or d1.is_zero())
    assert nonzero > 50


def test_dd_certificate_rejects_what_the_full_check_rejects():
    """A differential with one generator image perturbed: the complex is
    refused exactly when the full d∘d is nonzero."""
    refused = 0
    for c in _fixture_complexes():
        for n, d in c.diffs.items():
            for k in range(len(gen_coords(c.terms[n], d))):
                diffs = dict(c.diffs)
                diffs[n] = _perturbed(c.terms[n], d, k)
                if _full_dd_is_zero(diffs):
                    PerfectComplex(c.algebra, c.terms, diffs)
                    continue
                refused += 1
                with pytest.raises(ConsistencyError, match="d∘d"):
                    PerfectComplex(c.algebra, c.terms, diffs)
    assert refused >= 20


def test_chain_map_certificate_rejects_what_the_full_check_rejects():
    """A chain map with one generator image of one component perturbed is
    refused exactly when the full commutation check fails."""
    refused = 0
    for c in _fixture_complexes():
        maps = [identity_chain_map(c)] + list(derived_hom(c, c, 0).reps)
        for f in maps:
            for n, g in f.comps.items():
                for k in range(len(gen_coords(c.terms[n], g))):
                    comps = dict(f.comps)
                    comps[n] = _perturbed(c.terms[n], g, k)
                    if _full_commutes(ChainMap._trusted(c, f.target, comps)):
                        ChainMap(c, f.target, comps)
                        continue
                    refused += 1
                    with pytest.raises(ConsistencyError, match="does not commute"):
                        ChainMap(c, f.target, comps)
    assert refused >= 20


def test_a_change_off_the_generator_rows_is_not_natural():
    """Generator rows determine a map out of a projective sum: changing any
    other row of a differential breaks naturality."""
    changed = 0
    for c in _fixture_complexes():
        for n, d in c.diffs.items():
            gen_rows = set(c.terms[n].gen_pos)
            for v, mat in d.mats.items():
                for r in range(mat.rows):
                    if (v, r) in gen_rows or not mat.cols:
                        continue
                    rows = [list(row) for row in mat.entries]
                    rows[r][0] += 1
                    mats = dict(d.mats)
                    mats[v] = Matrix.from_rows(mat.field, rows)
                    changed += 1
                    with pytest.raises(ConsistencyError, match="not natural"):
                        ModuleMap(d.source, d.target, mats)
    assert changed >= 60


def test_shape_check_compares_the_modules_not_their_dims(cycle2):
    """A differential or component whose source has the term's dims but
    other arrow matrices is refused."""
    c = resolve_to_complex(injective(cycle2, "1"))
    n, d = min(c.diffs.items())
    src = d.source
    other = Representation._trusted(
        cycle2, dict(src.dims), {a: m.scale(2) for a, m in src.arrow_mats.items()})
    assert other.arrow_mats != src.arrow_mats
    diffs = dict(c.diffs)
    diffs[n] = ModuleMap._trusted(other, d.target, d.mats)
    with pytest.raises(DimensionMismatch):
        PerfectComplex(cycle2, c.terms, diffs)
    comps = dict(identity_chain_map(c).comps)
    comps[n] = ModuleMap._trusted(other, other, comps[n].mats)
    with pytest.raises(DimensionMismatch):
        ChainMap(c, c, comps)


def test_derived_hom_dim_builds_no_chain_maps(all_algebras, monkeypatch):
    """derived_hom(x, y, n).dim alone calls hom_from_gens zero times; the
    representatives are built on first use."""
    import quivertilt.complexes as complexes_mod
    import quivertilt.homology as homology_mod
    cs = [resolve_to_complex(m) for alg in all_algebras.values() for v in alg.vertices
          for m in (simple(alg, v), injective(alg, v))]
    calls = []
    real = homology_mod.hom_from_gens

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(homology_mod, "hom_from_gens", counting)
    monkeypatch.setattr(complexes_mod, "hom_from_gens", counting)
    spaces = [derived_hom(x, y, n) for x in cs for y in cs
              if x.algebra is y.algebra for n in hom_window(x, y)]
    assert sum(s.dim for s in spaces) > 50 and calls == []
    space = next(s for s in spaces if s.dim)
    assert len(space.reps) == space.dim and calls
    assert space.reps is space.reps


def test_combo_of_zero_coefficients_is_the_zero_map_into_the_shift(cycle2):
    """Every derived Hom space knows its target shift(y, n), also the
    zero-dimensional ones derived_hom returns before solving anything."""
    x = resolve_to_complex(simple(cycle2, "2"))
    y = resolve_to_complex(simple(cycle2, "1"))
    for n in range(-3, 4):
        space = derived_hom(x, y, n)
        f = space.combo((0,) * space.dim)
        assert f.is_zero() and f.source is x, n
        assert f.target == shift(y, n), n


@pytest.mark.parametrize("coeffs", [[1], [1, 5, 7]])
def test_combo_rejects_a_wrong_number_of_coefficients(cycle2, coeffs):
    # End_D(P2) has dimension 2; zip would silently drop or ignore coefficients
    x = resolve_to_complex(projective(cycle2, "2"))
    space = derived_hom(x, x, 0)
    assert space.dim == 2
    with pytest.raises(InputError, match="coefficients"):
        space.combo(coeffs)


def test_brick_reflection_builds_the_degree_zero_pair_of_end_once(cycle2, monkeypatch):
    """reflect asks for End_D(T1), reflection_brick asks again and
    is_exceptional sweeps the other degrees.  Hom_D(T1, T1[n]) is memoized
    in T1's cache, so the δ pair of degree 0, δ⁰ then δ⁻¹, is built once."""
    import quivertilt.homology
    from quivertilt.recollement import reflect

    t1 = resolve_to_complex(simple(cycle2, "2"))
    real = quivertilt.homology._hom_differential
    degrees = []

    def counted(xt, xd, yt, yd, n):
        if xt is t1.terms and yd is t1.diffs:
            degrees.append(n)
        return real(xt, xd, yt, yd, n)

    monkeypatch.setattr(quivertilt.homology, "_hom_differential", counted)
    _, _, method = reflect(t1, resolve_to_complex(regular_module(cycle2)))
    assert method == "brick"
    assert list(zip(degrees, degrees[1:])).count((0, -1)) == 1
    assert derived_hom(t1, t1, 0) is derived_hom(t1, t1, 0)
    assert derived_hom(t1, shift(t1, 0), 0) is derived_hom(t1, t1, 0)
    assert derived_hom(t1, resolve_to_complex(simple(cycle2, "2")), 0) is not \
        derived_hom(t1, t1, 0)


def test_complexes_over_different_algebras_are_rejected(cycle2, a2):
    """derived_hom, direct_sum_complexes, check_A1_A2, reflection_brick and
    universal_triangle take hom_space's policy: complexes over two algebra
    objects raise InputError, also over the same quiver with another field."""
    from quivertilt.recollement import reflection_brick
    from quivertilt.tilting import check_A1_A2
    from quivertilt.complexes import universal_triangle
    s2 = resolve_to_complex(simple(cycle2, "2"))
    i1 = resolve_to_complex(injective(cycle2, "1"))
    others = [resolve_to_complex(simple(a2, "1")),
              resolve_to_complex(simple(fixture_algebra("cycle2", GF(101)), "2"))]
    for other in others:
        for x, y in ((s2, other), (other, s2)):
            with pytest.raises(InputError, match="different algebras"):
                derived_hom(x, y, 0)
            with pytest.raises(InputError, match="different algebras"):
                direct_sum_complexes([x, y])
            with pytest.raises(InputError, match="different algebras"):
                check_A1_A2(x, y)
            with pytest.raises(InputError, match="different algebras"):
                reflection_brick(x, y)
        with pytest.raises(InputError, match="different algebras"):
            direct_sum_complexes([zero_complex(other.algebra)], cycle2)
    space = derived_hom(i1, s2, 1)
    foreign = type(space)(others[0], s2, 1, space.dim, _data=space._data)
    with pytest.raises(InputError, match="different algebras"):
        universal_triangle([foreign], "left")


def test_absent_degrees_share_one_zero_module(cycle2):
    """term_rep of every absent degree, cohomology outside the terms and
    zero_module itself return the algebra's one zero module."""
    from quivertilt import zero_module
    c = resolve_to_complex(simple(cycle2, "2"))
    z = c.term_rep(5)
    assert z.total_dim == 0
    assert c.term_rep(7) is z is zero_module(cycle2) is cohomology(c, 3)
    assert c.diff(4).source is c.diff(4).target is z
    assert zero_module(fixture_algebra("cycle2")) is not z
