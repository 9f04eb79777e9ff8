"""Modules, maps and left modules the library derives from checked inputs
are built with ``_trusted`` and skip the checks of ``__post_init__``, and
``opposite_algebra`` skips the associativity check of a table that is the
transpose of a verified one.  Building every one of them through the
validating constructors instead must give the same verdicts: a trusted
site that produced an invalid module, map, left module or algebra would
raise here.  Every left module through lambda: R -> End(R_U) is among
them, so the full action law runs on each."""

import itertools
import sys

import quivertilt.algebra
from quivertilt import (GF, QQ, LeftModule, ModuleMap, Representation,
                        bongartz_complement, direct_sum, injective,
                        recollement_report, regular_module,
                        run_example, simple, stratifying_ideal_check,
                        tilting_module_check)
from quivertilt.formats import fixture_algebra
from quivertilt.homology import tor_dims_range
from conftest import calls_trusted, construction_inventory, linear_algebra, site_of, tilting_summary
from oracles import left_module_from_op_rep, left_regular_module


def _verdicts():
    out = []
    for name in ("cycle2", "triple3", "a2-bongartz"):
        for field in (None, GF(101)):
            rep = run_example(name, field=field)
            out.append((name, rep.passed, tuple((c.name, c.passed) for c in rep.checks)))
    for n, rad2 in ((3, False), (3, True), (4, True)):
        alg = linear_algebra(n, rad2, GF(101) if rad2 else QQ)
        dual = direct_sum([injective(alg, v) for v in alg.vertices])
        out.append(tilting_summary(tilting_module_check(regular_module(alg))))
        out.append(tilting_summary(tilting_module_check(dual)))
        for v in (str(n - 1), str(n)):
            s_v = simple(alg, v)
            n_mod, _, cert = bongartz_complement(s_v)
            rep = recollement_report(direct_sum([n_mod, s_v]))
            out.append((n_mod.dim_vector(), tilting_summary(cert),
                        rep.localization.reflection_method, rep.orthogonality_ok,
                        rep.t2_exceptional, rep.t2_matches_ru, rep.corollary_zero,
                        rep.localization.evidence.reason))
    for name in ("a2", "kron2", "cycle2", "triple3"):
        for field in (None, GF(3), GF(101)):
            alg = fixture_algebra(name, field)
            op = quivertilt.algebra.opposite_algebra(alg)
            lefts = [left_module_from_op_rep(alg, simple(op, v)) for v in alg.vertices]
            out.append(tuple(tor_dims_range(injective(alg, v), y, 2)
                             for v in alg.vertices for y in lefts))
        alg = fixture_algebra(name)
        left = left_regular_module(alg)
        out.append(tuple(tor_dims_range(simple(alg, v), left, 2) for v in alg.vertices))
        for k in range(1, len(alg.vertices)):
            for vs in itertools.combinations(alg.vertices, k):
                rep = stratifying_ideal_check(alg, vs)
                out.append((name, vs, rep.is_stratifying, rep.quotient_tor_dims,
                            rep.quotient_ext_dims, rep.resolution_complete))
    return out


def test_trusted_sites_pass_the_full_checks(monkeypatch):
    expected = _verdicts()
    built, reps, maps = [], set(), set()

    def validating_rep(cls, algebra, dims, arrow_mats):
        reps.add(site_of(sys._getframe(1).f_code))
        return Representation(algebra, dims, arrow_mats)

    def validating_map(cls, source, target, mats):
        maps.add(site_of(sys._getframe(1).f_code))
        return ModuleMap(source, target, mats)

    def validating_left(cls, algebra, dim, act):
        built.append(cls)
        return LeftModule(algebra, dim, act)

    real_opposite = quivertilt.algebra.opposite_algebra

    def verified_opposite(alg):
        built.append("opposite")
        op = real_opposite(alg)
        op._verify()
        return op

    monkeypatch.setattr(Representation, "_trusted", classmethod(validating_rep))
    monkeypatch.setattr(ModuleMap, "_trusted", classmethod(validating_map))
    monkeypatch.setattr(LeftModule, "_trusted", classmethod(validating_left))
    for name, mod in list(sys.modules.items()):
        if (name.startswith("quivertilt")
                and getattr(mod, "opposite_algebra", None) is real_opposite):
            monkeypatch.setattr(mod, "opposite_algebra", verified_opposite)
    assert _verdicts() == expected
    # floors on the share of the package functions calling
    # Representation._trusted( and ModuleMap._trusted( that built one (7 of
    # 7 and 14 of 17 when they were set), which do not move when the same
    # verdicts take less work or when functions merge
    for cls, reached, floor in ((Representation, reps, 1.0), (ModuleMap, maps, 0.75)):
        inventory = construction_inventory(calls_trusted(cls))
        assert len(reached & inventory) >= floor * len(inventory) > 0, cls
    assert built.count(LeftModule) >= 24 and built.count("opposite") >= 12
