"""Acceptance suite: one test per criterion, each printing a pass/fail line.

All arithmetic is exact, so every tolerance is zero: dimensions and verdicts
are compared with plain equality.
"""

import itertools
import random

import pytest

from quivertilt import GF, QQ, injective, projective, regular_module, simple
from quivertilt.complexes import (cohomology, derived_hom, hom_window,
                                  identity_chain_map, mapping_cone,
                                  resolve_to_complex, shift, zero_chain_map)
from quivertilt.formats import fixture_algebra
from quivertilt.homology import ext_dim, left_add_approximation, min_resolution
from quivertilt.linalg import Matrix, rank, solve_right_kernel
from quivertilt.modules import cokernel, direct_sum, is_isomorphic, quotient
from quivertilt.recollement import (reflection_brick, reflection_iterative,
                                    stratifying_ideal_check)
from quivertilt.tilting import check_A1_A2
from quivertilt.verify import run_example
from oracles import (cone_exceptionality, oracle_corner_ideal_dim, oracle_corner_tensor_dim,
                     oracle_corner_tor1_dim, perp_complex_membership,
                     reference_corner_tor_dims, reference_stratifying_verdict,
                     trace_submodule)


def _report(criterion: str, passed: bool):
    print(f"ACCEPTANCE {criterion}: {'PASS' if passed else 'FAIL'}")
    assert passed


# -- criteria 1-3: worked examples end to end ---------------------------------


def test_criterion_1_cycle2_end_to_end():
    rep = run_example("cycle2")
    for c in rep.checks:
        assert c.passed, f"{c.name}: {c.detail}"
    _report("1 (cycle2 end-to-end)", rep.passed)


def test_criterion_2_triple3_end_to_end():
    rep = run_example("triple3")
    for c in rep.checks:
        assert c.passed, f"{c.name}: {c.detail}"
    # the self-extensions of the localized module live in degree two
    assert rep.data["ext_dims"][1] == 6
    _report("2 (triple3 end-to-end)", rep.passed)


@pytest.mark.xfail(strict=True,
                   reason="stated literally as dim Ext^1(R_U, R_U) >= 1, but the "
                          "localized module of this example has Ext^1 = 0 and its "
                          "self-extensions in degree 2 (dim 6); the source text "
                          "only claims non-trivial self-extensions, which the "
                          "suite asserts in test_criterion_2")
def test_criterion_2_literal_first_degree_self_extension():
    rep = run_example("triple3")
    assert rep.data["ext1_dim"] >= 1


def test_criterion_3_a2_bongartz():
    rep = run_example("a2-bongartz")
    for c in rep.checks:
        assert c.passed, f"{c.name}: {c.detail}"
    _report("3 (a2 Bongartz suite)", rep.passed)


# -- criterion 4: derived Hom against Ext, full grid ----------------------------


def test_criterion_4_oracle_equivalence():
    assertions = 0
    for name in ("a2", "kron2", "cycle2", "triple3"):
        alg = fixture_algebra(name)
        mods = []
        for v in alg.vertices:
            mods.append(simple(alg, v))
            mods.append(projective(alg, v))
            mods.append(injective(alg, v))
        resolved = [(m, resolve_to_complex(m), min_resolution(m)) for m in mods]
        for (m, rm, resm), (n, rn, _) in itertools.product(resolved, repeat=2):
            for k in range(0, 6):
                d1 = derived_hom(rm, rn, k).dim
                d2 = ext_dim(k, m, n, resolution=resm)
                assert d1 == d2, (name, m.dim_vector(), n.dim_vector(), k, d1, d2)
                assertions += 1
    assert assertions >= 150
    _report(f"4 (derived Hom = Ext, {assertions} exact comparisons)", True)


# -- criterion 5: cone exceptionality vs criterion map --------------------------


def _candidate_complexes(alg):
    out = []
    for v in alg.vertices:
        out.append(resolve_to_complex(simple(alg, v)))
        out.append(resolve_to_complex(projective(alg, v)))
        out.append(resolve_to_complex(injective(alg, v)))
    seen = []
    uniq = []
    for c in out:
        key = tuple(sorted((n, t.gens) for n, t in c.terms.items()))
        if key not in seen:
            seen.append(key)
            uniq.append(c)
    extra = [shift(c, 1) for c in uniq[:3]]
    return uniq + extra


def test_criterion_5_proposition_agreement():
    rng = random.Random(20240811)
    valid_pairs = []
    for name in ("a2", "kron2", "cycle2"):
        alg = fixture_algebra(name)
        pool = _candidate_complexes(alg)
        for t1, t2 in itertools.product(pool, repeat=2):
            rep = check_A1_A2(t1, t2)
            if rep.ok:
                valid_pairs.append((alg, rep.pair))
    assert valid_pairs, "no pairs satisfy the orthogonality conditions"
    tested = 0
    agreements = 0
    i = 0
    while tested < 50:
        alg, pair = valid_pairs[i % len(valid_pairs)]
        i += 1
        space = pair.ext_space
        if space.dim == 0:
            alpha = zero_chain_map(pair.t2, shift(pair.t1, 1))
        else:
            coeffs = [alg.field.coerce(rng.randint(-4, 4)) for _ in range(space.dim)]
            alpha = space.combo(coeffs)
        # cone_exceptionality itself aborts on disagreement; compare anyway
        _, direct, criterion = cone_exceptionality(pair, alpha)
        assert direct == criterion
        tested += 1
        agreements += 1
    assert tested >= 50 and agreements == tested
    _report(f"5 (cone/criterion agreement on {tested} seeded triples)", True)


# -- criterion 6: reflections -----------------------------------------------------


def test_criterion_6_reflection_suite():
    # brick vs iterative on cycle2 and a2
    for name, t1v in (("cycle2", "2"), ("a2", "1")):
        alg = fixture_algebra(name)
        t1 = resolve_to_complex(simple(alg, t1v))
        rr = resolve_to_complex(regular_module(alg))
        qb, _ = reflection_brick(t1, rr)
        qi, _, _ = reflection_iterative(t1, rr)
        lo, hi = min(qb.lo, qi.lo), max(qb.hi, qi.hi)
        for n in range(lo, hi + 1):
            assert is_isomorphic(cohomology(qb, n), cohomology(qi, n)), (name, n)

    # universal property against the orthogonal test family on cycle2
    cycle2 = fixture_algebra("cycle2")
    t1 = resolve_to_complex(simple(cycle2, "2"))
    rr = resolve_to_complex(regular_module(cycle2))
    q, _ = reflection_brick(t1, rr)
    i1 = injective(cycle2, "1")
    family = [resolve_to_complex(i1),
              resolve_to_complex(direct_sum([i1, i1])),
              shift(resolve_to_complex(i1), 1),
              shift(resolve_to_complex(i1), -1),
              shift(resolve_to_complex(i1), 2),
              shift(resolve_to_complex(i1), -2)]
    for y in family:
        degrees = set(hom_window(q, y)) | set(hom_window(rr, y))
        for n in degrees:
            assert derived_hom(q, y, n).dim == derived_hom(rr, y, n).dim

    # trace formula on cycle2 and triple3
    for name in ("cycle2", "triple3"):
        alg = fixture_algebra(name)
        r = regular_module(alg)
        if name == "cycle2":
            t = direct_sum([projective(alg, "2"), simple(alg, "2")])
        else:
            t = direct_sum([projective(alg, "1"), projective(alg, "2"),
                            simple(alg, "1")])
        f, _ = left_add_approximation(r, t)
        t1_mod, _ = cokernel(f)
        tr = trace_submodule(t1_mod, f.target)
        ru, _ = quotient(f.target, tr)
        t1c = resolve_to_complex(t1_mod)
        if t1c.is_zero_complex() or derived_hom(t1c, t1c, 0).dim == 1:
            qr, _ = reflection_brick(t1c, resolve_to_complex(r))
        else:
            qr, _, _ = reflection_iterative(t1c, resolve_to_complex(r))
        assert is_isomorphic(cohomology(qr, 0), ru), name
    _report("6 (reflection suite)", True)


# -- criterion 7: stratifying ideals -----------------------------------------------


def test_criterion_7_stratifying_suite():
    a2 = fixture_algebra("a2")
    assert stratifying_ideal_check(a2, ("2",)).is_stratifying
    assert stratifying_ideal_check(a2, ("1", "2")).is_stratifying
    kron2 = fixture_algebra("kron2")
    for vs in (("1",), ("2",), ("1", "2")):
        rep = stratifying_ideal_check(kron2, vs)
        assert rep.tensor_dim == oracle_corner_tensor_dim(kron2, vs)
        assert rep.ideal_dim == oracle_corner_ideal_dim(kron2, vs)
        tor, _ = reference_corner_tor_dims(kron2, vs, 4)
        assert tor[0] == oracle_corner_tor1_dim(kron2, vs)
        assert rep.quotient_tor_dims[1] == rep.tensor_dim - rep.ideal_dim
        assert rep.is_stratifying == reference_stratifying_verdict(kron2, vs, 4)
    _report("7 (stratifying-ideal suite)", True)


# -- criterion 8: invariant regression over Q and GF(101) ---------------------------


def _invariant_regression(field):
    tag = str(field)
    rng = random.Random(99)
    # rank-nullity on random matrices
    for _ in range(25):
        rows = rng.randrange(0, 5)
        cols = rng.randrange(0, 5)
        if field.kind == "prime-field":
            entries = [[rng.randrange(field.characteristic) for _ in range(cols)]
                       for _ in range(rows)]
        else:
            entries = [[rng.randint(-5, 5) for _ in range(cols)] for _ in range(rows)]
        m = Matrix.from_rows(field, entries, cols)
        assert rank(m) + solve_right_kernel(m).rows == m.rows

    alg = fixture_algebra("cycle2", None if field == QQ else field)
    s2 = simple(alg, "2")
    i1 = injective(alg, "1")
    rs2 = resolve_to_complex(s2)
    ri1 = resolve_to_complex(i1)

    # cone of identity is contractible
    cone, _, _ = mapping_cone(identity_chain_map(rs2))
    for n in range(-3, 4):
        assert derived_hom(cone, rs2, n).dim == 0
        assert derived_hom(rs2, cone, n).dim == 0

    # homotopy invariance of derived Hom
    from quivertilt.complexes import PerfectComplex, direct_sum_complexes
    from quivertilt.modules import identity_map, proj_sum
    p = proj_sum(alg, ("1",))
    q = proj_sum(alg, ("1",))
    contractible = PerfectComplex(alg, {0: p, 1: q}, {0: identity_map(p)})
    fat = direct_sum_complexes([rs2, contractible])
    for n in range(-3, 4):
        assert derived_hom(fat, ri1, n).dim == derived_hom(rs2, ri1, n).dim
        assert derived_hom(ri1, fat, n).dim == derived_hom(ri1, rs2, n).dim

    # two-way perpendicular agreement (asserted inside the call)
    assert perp_complex_membership(s2, ri1)
    assert perp_complex_membership(s2, shift(ri1, 2))
    assert not perp_complex_membership(s2, resolve_to_complex(projective(alg, "2")))
    return tag


def test_criterion_8_invariant_regression_both_fields():
    tags = [_invariant_regression(QQ), _invariant_regression(GF(101))]
    _report(f"8 (invariant regression over {tags[0]} and {tags[1]})", True)
