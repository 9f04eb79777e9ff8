import gc
import random
import weakref

import pytest

import quivertilt
from quivertilt import (GF, QQ, InputError, Representation, injective, projective,
                        regular_module, simple)
from quivertilt.complexes import (DerivedHomSpace, cohomology, derived_hom,
                                  direct_sum_complexes, is_exceptional,
                                  resolve_to_complex, shift, stack_to_common_source,
                                  stack_to_common_target, universal_triangle,
                                  zero_chain_map)
from quivertilt.errors import ConsistencyError
from quivertilt.formats import fixture_algebra
from quivertilt.modules import (decompose, direct_sum, hom_space,
                                is_isomorphic, quotient, socle)
from quivertilt.homology import DEFAULT_RESOLUTION_BOUND, proj_dim, universal_extension
from quivertilt.tilting import (TiltingCertificate, TiltingFailure, _certify,
                                bongartz_complement, check_A1_A2, construct_tilting,
                                tilting_module_check)
from conftest import counting, linear_algebra, recording_shifts, shifted_back, tilting_summary
from oracles import (cone_exceptionality, criterion_map_surjective, reference_is_left_universal,
                     reference_is_right_universal, trace_submodule, triangle_from_map)


# -- pair checks ------------------------------------------------------------


def test_pair_s2_i1(cycle2):
    rep = check_A1_A2(resolve_to_complex(simple(cycle2, "2")),
                      resolve_to_complex(injective(cycle2, "1")))
    assert rep.ok
    assert rep.pair.ext_dim == 1


def test_pair_s2_i1_squared(cycle2):
    i1 = injective(cycle2, "1")
    rep = check_A1_A2(resolve_to_complex(simple(cycle2, "2")),
                      resolve_to_complex(direct_sum([i1, i1])))
    assert rep.ok
    assert rep.pair.ext_dim == 2


def test_pair_projective_with_itself_fails_a1(cycle2):
    rp2 = resolve_to_complex(projective(cycle2, "2"))
    rep = check_A1_A2(rp2, rp2)
    assert not rep.ok
    assert any(v.condition == "A1" and v.degree == 0 and v.dim == 2
               for v in rep.violations)


def test_pair_kron_projectives_fails_a1(kron2):
    rep = check_A1_A2(resolve_to_complex(projective(kron2, "2")),
                      resolve_to_complex(projective(kron2, "1")))
    assert not rep.ok
    assert any(v.condition == "A1" and v.degree == 0 and v.dim == 2
               for v in rep.violations)


# -- cone exceptionality ------------------------------------------------------


def test_cone_over_basis_class(cycle2):
    rep = check_A1_A2(resolve_to_complex(simple(cycle2, "2")),
                      resolve_to_complex(injective(cycle2, "1")))
    alpha = rep.pair.ext_space.reps[0]
    T, direct, criterion = cone_exceptionality(rep.pair, alpha)
    assert direct and criterion
    assert criterion_map_surjective(rep.pair, alpha)  # again, through the shift memo
    assert is_isomorphic(cohomology(T, 0), injective(cycle2, "2"))


def test_cone_over_zero_map_not_exceptional(cycle2):
    rep = check_A1_A2(resolve_to_complex(simple(cycle2, "2")),
                      resolve_to_complex(injective(cycle2, "1")))
    z = zero_chain_map(rep.pair.t2, shift(rep.pair.t1, 1))
    T, direct, criterion = cone_exceptionality(rep.pair, z)
    assert not direct and not criterion
    assert not criterion_map_surjective(rep.pair, z)


def test_cone_trivial_when_no_extensions(a2):
    # t1 = resolve(S2-projective), t2 = resolve(P1): Hom(t2, t1[k]) lives in 0 only
    t1 = resolve_to_complex(projective(a2, "2"))
    t2 = resolve_to_complex(simple(a2, "1"))
    rep = check_A1_A2(t2, t1)  # t1 := resolve(S1), t2 := resolve(P2)
    if rep.ok and rep.pair.ext_dim == 0:
        z = zero_chain_map(rep.pair.t2, shift(rep.pair.t1, 1))
        T, direct, criterion = cone_exceptionality(rep.pair, z)
        assert direct and criterion


def _random_pair_pool(alg):
    """Candidate complexes for random pair sampling."""
    pool = []
    for v in alg.vertices:
        pool.append(resolve_to_complex(simple(alg, v)))
        pool.append(resolve_to_complex(projective(alg, v)))
        pool.append(resolve_to_complex(injective(alg, v)))
    extra = []
    for c in pool[:4]:
        extra.append(shift(c, 1))
    return pool + extra


def _agreement_sweep(algebras, seed, wanted):
    """Seeded sweep over pairs satisfying the two orthogonality conditions:
    on each, the direct cone-exceptionality verdict must equal the criterion
    surjectivity verdict (the equivalence is asserted inside the call)."""
    rng = random.Random(seed)
    tested = 0
    for alg in algebras:
        pool = _random_pair_pool(alg)
        for t1 in pool:
            for t2 in pool:
                if tested >= wanted:
                    return tested
                rep = check_A1_A2(t1, t2)
                if not rep.ok:
                    continue
                space = rep.pair.ext_space
                coeffs = [alg.field.coerce(rng.randint(-3, 3)) for _ in range(space.dim)]
                alpha = space.combo(coeffs) if space.dim else \
                    zero_chain_map(t2, shift(t1, 1))
                cone_exceptionality(rep.pair, alpha)
                tested += 1
    return tested


def test_criterion_agreement_sweep(a2, kron2, cycle2):
    tested = _agreement_sweep([a2, kron2, cycle2], seed=7, wanted=12)
    assert tested >= 12


# -- universal maps ------------------------------------------------------------


def test_universal_maps_multiplicity(cycle2, a2):
    t1 = resolve_to_complex(simple(cycle2, "2"))
    t2 = resolve_to_complex(injective(cycle2, "1"))
    space = derived_hom(t2, t1, 1)
    assert space.dim == 1
    c1, incl = universal_triangle([space], "left")
    c2 = universal_triangle([space], "right")
    # y -> L starts at T1[1][-1], whose terms are T1's
    assert incl.source.terms == t1.terms and incl.target is c1
    # C1 and C2 carry T1 and T2 once each, beside the one copy of the other
    for c in (c1, c2):
        assert sorted(v for t in c.terms.values() for v in t.gens) == \
            sorted(v for x in (t1, t2) for t in x.terms.values() for v in t.gens)
    t1a = resolve_to_complex(projective(a2, "2"))
    t2a = resolve_to_complex(simple(a2, "1"))
    assert derived_hom(t2a, t1a, 1).dim == 1
    universal_triangle([derived_hom(t2a, t1a, 1)], "left")


def test_universal_maps_zero_case(cycle2):
    p = resolve_to_complex(projective(cycle2, "1"))
    space = derived_hom(p, p, 1)
    assert space.dim == 0
    cone, incl = universal_triangle([space], "left")
    assert cone is p and incl.source is incl.target is p
    assert universal_triangle([space], "right") is p


def _with_reps(space, reps):
    """space with its basis replaced by reps: the mutations the kill check
    must catch.  dim stays the space's."""
    return DerivedHomSpace(space.x, space.y, space.n, space.dim,
                           _data={**space._data, "reps": tuple(reps)})


def _rep_variants(space):
    """(name, reps): the basis, the basis without its last class, with its
    last class replaced by its first (dim >= 2), and with its last class
    replaced by the sum of all (still a basis)."""
    reps = space.reps
    out = [("basis", reps), ("dropped", reps[:-1])]
    if len(reps) >= 2:
        out.append(("repeated", reps[:-1] + reps[:1]))
        total = reps[0]
        for f in reps[1:]:
            total = total.add(f)
        out.append(("summed", reps[:-1] + (total,)))
    return out


def _kills(space, side) -> bool:
    try:
        universal_triangle([space], side)
    except ConsistencyError:
        return False
    return True


def _fixture_pairs():
    """The fixture pairs (S2, I1), (S2, I1 ⊕ I1) over cycle2 and (P2, S1) over
    a2, each over Q, GF(101) and GF(5)."""
    out = []
    for field in (None, GF(101), GF(5)):
        c, a = fixture_algebra("cycle2", field), fixture_algebra("a2", field)
        i1 = injective(c, "1")
        for t1, t2 in ((simple(c, "2"), i1), (simple(c, "2"), direct_sum([i1, i1])),
                       (projective(a, "2"), simple(a, "1"))):
            rep = check_A1_A2(resolve_to_complex(t1), resolve_to_complex(t2))
            assert rep.ok
            out.append(rep.pair)
    return out


def test_kill_check_agrees_with_the_end_span_oracle(a2, kron2, cycle2):
    """On every pair check_A1_A2 accepts in the random pool over a2, kron2
    and cycle2, and on the fixture pairs over Q, GF(101) and GF(5),
    universal_triangle on Hom(T2, T1[1]) passes its kill check exactly when
    the stacked map is left- (right-) universal by the End-span oracle, for
    the basis and for each mutation of it.  An empty stack with a nonzero
    space is never universal."""
    pairs = _fixture_pairs()
    for alg in (a2, kron2, cycle2):
        pool = _random_pair_pool(alg)
        pairs += [rep.pair for t1 in pool for t2 in pool
                  for rep in [check_A1_A2(t1, t2)] if rep.ok]
    compared = failing = 0
    for pair in pairs:
        for _, reps in _rep_variants(pair.ext_space):
            space = _with_reps(pair.ext_space, reps)
            if not reps:
                assert _kills(space, "left") == _kills(space, "right") == (space.dim == 0)
                continue
            left = reference_is_left_universal(stack_to_common_target(list(reps)))
            right = reference_is_right_universal(stack_to_common_source(list(reps)))
            assert _kills(space, "left") == left
            assert _kills(space, "right") == right
            compared += 1
            failing += (not left) + (not right)
    assert compared >= 30 and failing >= 4


def test_a_dropped_or_repeated_class_is_not_universal():
    """Over the brick T1 = S2 of cycle2 with T2 = I1 ⊕ I1 (Hom(T2, T1[1]) of
    dim 2), the right triangle of a basis missing a class or repeating one
    raises ConsistencyError, and so does the left triangle at the brick
    T2 = I1 of every class removed, over Q, GF(101) and GF(5)."""
    for pair in _fixture_pairs():
        space = pair.ext_space
        if space.dim == 2:
            for name, reps in _rep_variants(space):
                if name in ("dropped", "repeated"):
                    with pytest.raises(ConsistencyError, match="degree 1"):
                        universal_triangle([_with_reps(space, reps)], "right")
        elif derived_hom(pair.t2, pair.t2, 0).dim == 1:
            with pytest.raises(ConsistencyError, match="degree 1"):
                universal_triangle([_with_reps(space, ())], "left")


def test_universal_triangle_needs_an_exceptional_object(triple3, cycle2):
    """x on the left and y on the right must be exceptional (InputError);
    the side must be named, the spaces given and share their ends."""
    from quivertilt.modules import quotient, socle
    p2 = projective(triple3, "2")
    x = quotient(p2, socle(p2)[1])[0]
    bad = resolve_to_complex(direct_sum([simple(triple3, "1"), x, x]))
    assert not is_exceptional(bad)
    good = resolve_to_complex(simple(triple3, "1"))
    assert is_exceptional(good)
    with pytest.raises(InputError, match="exceptional"):
        universal_triangle([derived_hom(bad, good, 0)], "left")
    with pytest.raises(InputError, match="exceptional"):
        universal_triangle([derived_hom(good, bad, 0)], "right")
    universal_triangle([derived_hom(good, bad, 0)], "left")
    universal_triangle([derived_hom(bad, good, 0)], "right")
    s2 = resolve_to_complex(simple(cycle2, "2"))
    i1 = resolve_to_complex(injective(cycle2, "1"))
    with pytest.raises(InputError, match="side"):
        universal_triangle([derived_hom(i1, s2, 1)], "middle")
    with pytest.raises(InputError, match="no spaces"):
        universal_triangle([], "left")
    with pytest.raises(InputError, match="different complexes"):
        universal_triangle([derived_hom(i1, s2, 1), derived_hom(s2, s2, 1)], "left")


def test_right_triangle_is_the_shifted_cone_of_the_stacked_map(monkeypatch):
    """The right triangle is triangle_from_map's T of the stacked map,
    term for term and matrix for matrix, and builds no chain map but that
    stacked map; the left one has the terms of triangle_from_map's T of
    the stacked map alpha: T2^m -> T1[1] and its differentials up to the
    sign of alpha's block."""
    import quivertilt.complexes as complexes
    post_init = complexes.ChainMap.__post_init__
    built = []

    def recording(self):
        built.append(self)
        post_init(self)

    for pair in _fixture_pairs():
        reps = list(pair.ext_space.reps)
        monkeypatch.setattr(complexes.ChainMap, "__post_init__", recording)
        built.clear()
        c2 = universal_triangle([pair.ext_space], "right")
        monkeypatch.undo()
        assert len(built) == 1 and built[0].source is pair.t2
        ref, _, _ = triangle_from_map(stack_to_common_source(reps))
        assert {n: t.gens for n, t in c2.terms.items()} == \
            {n: t.gens for n, t in ref.terms.items()}
        assert {n: d.mats for n, d in c2.diffs.items()} == \
            {n: d.mats for n, d in ref.diffs.items()}
        c1, _ = universal_triangle([pair.ext_space], "left")
        ref, _, _ = triangle_from_map(stack_to_common_target(reps))
        assert {n: t.gens for n, t in c1.terms.items()} == \
            {n: t.gens for n, t in ref.terms.items()}
        assert is_exceptional(c1) == is_exceptional(ref)
        for n in c1.terms:
            assert cohomology(c1, n).dim_vector() == cohomology(ref, n).dim_vector()


# -- construct_tilting -----------------------------------------------------------


def test_construct_tilting_cycle2(cycle2):
    rep = check_A1_A2(resolve_to_complex(simple(cycle2, "2")),
                      resolve_to_complex(injective(cycle2, "1")))
    built = construct_tilting(rep.pair)
    assert built.multiplicity == 1
    assert built.first_exceptional and built.second_exceptional
    h0 = cohomology(built.first, 0)
    dec = decompose(h0)
    i1, i2 = injective(cycle2, "1"), injective(cycle2, "2")
    assert any(is_isomorphic(f, i1) for f, _ in dec)
    assert any(is_isomorphic(f, i2) for f, _ in dec)
    for name in ("first", "second"):
        for v in cycle2.vertices:
            assert v in built.generation_evidence[name]


def test_construct_tilting_resolves_each_simple_once(cycle2, monkeypatch):
    """The generation evidence of both outputs reads one resolution of each
    simple: cycle2 builds and resolves its two simples once each."""
    import quivertilt.homology as homology
    import quivertilt.tilting as tilting
    rep = check_A1_A2(resolve_to_complex(simple(cycle2, "2")),
                      resolve_to_complex(injective(cycle2, "1")))
    simples = counting(monkeypatch, tilting, "simple")
    resolved = counting(monkeypatch, homology, "_resolve")
    built = construct_tilting(rep.pair)
    assert len(simples) == len(cycle2.vertices) == 2
    assert sum(1 for m, _ in resolved if m.total_dim == 1) == 2
    assert set(built.generation_evidence) == {"first", "second"}


def test_left_triangle_includes_the_pair_t1_itself(monkeypatch):
    """The classes of Hom(T2, T1[1]) map into T1[1], which holds T1 as its
    shift by -1: the left universal triangle's inclusion starts at T1, and
    construct_tilting shifts no complex back into a copy."""
    built = recording_shifts(monkeypatch)
    for pair in _fixture_pairs():
        _, incl = universal_triangle([pair.ext_space], "left")
        assert incl.source is pair.t1
        construct_tilting(pair)
    assert built and not shifted_back(built)


def test_construct_tilting_solves_the_pair_space_only_in_the_pair_check(monkeypatch):
    """Hom(T2, T1[1]) is solved once, by check_A1_A2; both of
    construct_tilting's triangles stack the pair's ext_space."""
    import quivertilt.complexes as complexes
    for pair in _fixture_pairs():
        t1, t2 = pair.t1, pair.t2
        solves = counting(monkeypatch, complexes, "_hom_cohomology")
        rep = check_A1_A2(t1, t2)
        between = [a for a in solves if a[0] is t2.terms and a[3] is t1.diffs]
        assert [a[4] for a in between].count(1) == 1
        solves.clear()
        construct_tilting(rep.pair)
        assert not any(a[0] is t2.terms and a[3] is t1.diffs for a in solves)
        monkeypatch.undo()


def test_construct_tilting_m_zero(cycle2):
    p1 = resolve_to_complex(projective(cycle2, "1"))
    p2 = resolve_to_complex(projective(cycle2, "2"))
    rep = check_A1_A2(p2, p1)
    if rep.ok and rep.pair.ext_dim == 0:
        built = construct_tilting(rep.pair)
        assert built.multiplicity == 0
        # both outputs are T1 + T2
        assert cohomology(built.first, 0).total_dim == \
            projective(cycle2, "1").total_dim + projective(cycle2, "2").total_dim


def test_construct_tilting_quasi_hereditary_a2(a2):
    """Heredity pattern: t1 the projective standard at the sink, t2 the
    characteristic tilting of the one-vertex quotient (= the simple at the
    source); the right-universal output recovers the regular module."""
    t1 = resolve_to_complex(projective(a2, "2"))
    t2 = resolve_to_complex(simple(a2, "1"))
    rep = check_A1_A2(t1, t2)
    assert rep.ok and rep.pair.ext_dim == 1
    built = construct_tilting(rep.pair)
    h0 = cohomology(built.second, 0)
    assert is_isomorphic(h0, regular_module(a2))
    for n in range(built.second.lo, built.second.hi + 1):
        if n != 0:
            assert cohomology(built.second, n).total_dim == 0
    # the other output is the Bongartz tilting module of the source simple
    h0f = cohomology(built.first, 0)
    assert is_isomorphic(h0f, direct_sum([projective(a2, "1"), simple(a2, "1")]))


def test_construct_tilting_triple3_regular_recovery(triple3):
    """The analogous heredity pattern on the three-vertex algebra (the
    literal characteristic-tilting input has second extensions against the
    projective standard, so the pair that demonstrates the construction is
    P1 + P2/P3-image, a standard-module companion with the right
    orthogonality; the right-universal output is the regular module)."""
    p1 = projective(triple3, "1")
    p2 = projective(triple3, "2")
    p3 = projective(triple3, "3")
    # Delta(2) = P2 / (trace of P3) has dimension vector (1,1,0)
    tr = trace_submodule(p3, p2)
    delta2, _ = quotient(p2, tr)
    assert delta2.dim_vector() == (1, 1, 0)
    t1 = resolve_to_complex(p3)
    t2 = resolve_to_complex(direct_sum([p1, delta2]))
    rep = check_A1_A2(t1, t2)
    assert rep.ok
    assert rep.pair.ext_dim == 1
    built = construct_tilting(rep.pair)
    h0 = cohomology(built.second, 0)
    assert is_isomorphic(h0, regular_module(triple3))
    assert built.second_exceptional


def test_literal_characteristic_tilting_pair_violates_a2(triple3):
    """The characteristic tilting module of the two-vertex quotient is
    S1 + P1, which has a second self-extension against P3; the pair check
    reports the violation instead of constructing."""
    t1 = resolve_to_complex(projective(triple3, "3"))
    t2 = resolve_to_complex(direct_sum([simple(triple3, "1"),
                                        projective(triple3, "1")]))
    rep = check_A1_A2(t1, t2)
    assert not rep.ok
    assert any(v.condition == "A2" and v.degree == 2 and v.dim == 1
               for v in rep.violations)


# -- tilting module certification ---------------------------------------------


def test_tilting_check_p2_s2(cycle2):
    p2, s2 = projective(cycle2, "2"), simple(cycle2, "2")
    cert = tilting_module_check(direct_sum([p2, s2]))
    assert isinstance(cert, TiltingCertificate)
    assert cert.pd == 1 and cert.ext1_dim == 0
    assert is_isomorphic(cert.sequence.mid, direct_sum([p2, p2]))
    assert is_isomorphic(cert.sequence.right, s2)
    assert cert.coker_ext_dim == 0


def test_tilting_check_regular(all_algebras):
    for alg in all_algebras.values():
        cert = tilting_module_check(regular_module(alg))
        assert isinstance(cert, TiltingCertificate)
        assert cert.sequence.right.total_dim == 0


def test_tilting_check_s2_alone_fails(cycle2):
    fail = tilting_module_check(simple(cycle2, "2"))
    assert isinstance(fail, TiltingFailure)
    assert any(code == "approx" for code, _ in fail.reasons)


def test_tilting_check_rejects_pd2(cycle2):
    fail = tilting_module_check(simple(cycle2, "1"))
    assert isinstance(fail, TiltingFailure)
    assert any(code == "pd" for code, _ in fail.reasons)


def test_tilting_check_rejects_self_extensions(triple3):
    p2 = projective(triple3, "2")
    x, _ = quotient(p2, socle(p2)[1])
    target = direct_sum([simple(triple3, "1"), x])
    result = tilting_module_check(target)
    if isinstance(result, TiltingFailure):
        assert result.reasons
    else:
        pytest.skip("module unexpectedly tilting")


# -- Bongartz complement ---------------------------------------------------------


def test_bongartz_a2(a2):
    n_mod, ses, cert = bongartz_complement(simple(a2, "1"))
    dec = decompose(n_mod)
    assert len(dec) == 1 and dec[0][1] == 2
    assert is_isomorphic(dec[0][0], projective(a2, "1"))
    assert isinstance(cert, TiltingCertificate)


def test_bongartz_projective_generator(cycle2):
    r = regular_module(cycle2)
    n_mod, ses, cert = bongartz_complement(r)
    assert ses.right.total_dim == 0
    assert isinstance(cert, TiltingCertificate)


def test_bongartz_cycle2_s2(cycle2):
    n_mod, ses, cert = bongartz_complement(simple(cycle2, "2"))
    p2 = projective(cycle2, "2")
    assert is_isomorphic(n_mod, direct_sum([p2, p2]))


def test_bongartz_rejects_bad_input(cycle2):
    with pytest.raises(InputError):
        bongartz_complement(simple(cycle2, "1"))  # pd 2


# -- memoized certification -------------------------------------------------------

MEMO_ALGEBRAS = [(True, GF(101)), (False, QQ)]  # (rad2, field) of A_4


def complement_and_simple(rad2, field):
    """(N, S_3) over A_4, N from 0 -> R -> N -> S_3^k -> 0, uncertified."""
    alg = linear_algebra(4, rad2, field)
    s = simple(alg, "3")
    return universal_extension(s, regular_module(alg))[0], s


def verdict(cert) -> tuple:
    """What a tilting verdict says, object identities and bases aside."""
    return (tilting_summary(cert), cert.pd, cert.ext1_dim, cert.coker_ext_dim,
            cert.sequence.mid.dim_vector(), cert.sequence.right.dim_vector())


@pytest.mark.parametrize("rad2, field", MEMO_ALGEBRAS)
def test_equal_sums_of_the_same_parts_are_certified_once(rad2, field, monkeypatch):
    n_mod, s = complement_and_simple(rad2, field)
    runs = counting(monkeypatch, quivertilt.tilting, "_left_approximation")
    first, second = direct_sum([n_mod, s]), direct_sum([n_mod, s])
    a, b = tilting_module_check(first), tilting_module_check(second)
    assert len(runs) == 1 and isinstance(a, TiltingCertificate)
    assert a.module is first and b.module is second
    assert b.sequence is a.sequence and b.factors is a.factors and b == a
    assert tilting_module_check(first) is a


@pytest.mark.parametrize("rad2, field", MEMO_ALGEBRAS)
def test_another_order_bound_or_part_object_is_certified_anew(rad2, field, monkeypatch):
    n_mod, s = complement_and_simple(rad2, field)
    """Each sum below shares its first part, and so the memo's cache, with
    a sum certified before it."""
    first = tilting_module_check(direct_sum([n_mod, s]))
    tilting_module_check(direct_sum([n_mod, s, n_mod]))
    runs = counting(monkeypatch, quivertilt.tilting, "_left_approximation")
    fresh_s = Representation(s.algebra, dict(s.dims), dict(s.arrow_mats))
    others = [tilting_module_check(direct_sum([s, n_mod])),
              tilting_module_check(direct_sum([n_mod, n_mod, s])),
              tilting_module_check(direct_sum([n_mod, s]), DEFAULT_RESOLUTION_BOUND - 1),
              tilting_module_check(direct_sum([n_mod, fresh_s]))]
    assert len(runs) == 4
    for other in others:
        assert verdict(other) == verdict(first)
        assert is_isomorphic(other.sequence.mid, first.sequence.mid)
        assert is_isomorphic(other.sequence.right, first.sequence.right)


def test_the_memo_lives_as_long_as_the_first_part(monkeypatch):
    """The verdict on N ⊕ S is memoized in N's cache: it dies with N, and
    the sum of a new N with the same S is certified again."""
    import quivertilt.tilting as tilting
    alg = linear_algebra(4, rad2=True, field=GF(101))
    s = simple(alg, "3")
    runs, real = [], tilting._certify
    # counts without holding the module, which would keep it alive
    monkeypatch.setattr(tilting, "_certify", lambda t, bound: runs.append(1) or real(t, bound))

    def certify():
        n_mod, _ = universal_extension(s, regular_module(alg))
        t = direct_sum([n_mod, s])
        cert = tilting_module_check(t)
        assert tilting_module_check(direct_sum([n_mod, s])).sequence is cert.sequence
        return weakref.ref(n_mod), weakref.ref(t), weakref.ref(cert)

    refs = certify()
    gc.collect()
    assert [r() for r in refs] == [None, None, None]
    assert len(runs) == 1
    certify()
    assert len(runs) == 2


def test_memoized_certificates_equal_unmemoized_checks(all_algebras):
    """On the fixtures and A_3..A_5: R, and each Bongartz sum N ⊕ S_v asked
    for again after bongartz_complement certified it."""
    algebras = list(all_algebras.values()) + [linear_algebra(n, rad2)
                                              for n in (3, 4, 5) for rad2 in (False, True)]
    for alg in algebras:
        cases = [regular_module(alg)]
        for v in alg.vertices:
            s = simple(alg, v)
            if proj_dim(s) <= 1:
                n_mod, _, _ = bongartz_complement(s)
                cases.append(direct_sum([n_mod, s]))
        for t in cases:
            memo = tilting_module_check(t)
            assert memo.module is t
            assert memo == _certify(t, DEFAULT_RESOLUTION_BOUND)


# -- small prime fields ------------------------------------------------------------


@pytest.mark.parametrize("p", [2, 3])
def test_small_primes_on_brick_summands(p):
    """Every indecomposable summand met here has dim End = 1, which certifies
    it indecomposable over any field.  cycle2 and triple3 still raise
    InputError over GF(2) and GF(3): their summands are not bricks and the
    trace-form radical needs p > dim."""
    from conftest import linear_algebra
    from quivertilt import GF
    from quivertilt.verify import run_example
    alg = linear_algebra(3, field=GF(p))
    r = regular_module(alg)
    dec = decompose(r)
    assert [mult for _, mult in dec] == [1, 1, 1]
    for v in alg.vertices:
        assert sum(is_isomorphic(fac, projective(alg, v)) for fac, _ in dec) == 1
    assert isinstance(tilting_module_check(r), TiltingCertificate)
    n_mod, _, cert = bongartz_complement(simple(alg, "1"))
    assert isinstance(cert, TiltingCertificate)
    assert n_mod.dim_vector() == (2, 2, 3)
    assert run_example("a2-bongartz", field=GF(p)).passed
