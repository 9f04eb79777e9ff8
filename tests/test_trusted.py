"""Modules, maps and endomorphism rings the library derives from checked
inputs are built with ``_trusted`` and skip the checks of
``__post_init__``.  Building every one of them through the validating
constructors instead must give the same verdicts: a trusted site that
produced an invalid module, map or ring would raise here."""

from quivertilt import (GF, QQ, ModuleMap, Representation, SCRing,
                        bongartz_complement, direct_sum, injective,
                        recollement_report, regular_module, run_example,
                        simple, tilting_module_check)
from conftest import linear_algebra, tilting_summary


def _verdicts():
    out = []
    for name in ("cycle2", "triple3", "a2-bongartz"):
        for field in (None, GF(101)):
            rep = run_example(name, field=field)
            out.append((name, rep.passed, tuple((c.name, c.passed) for c in rep.checks)))
    for rad2 in (False, True):
        alg = linear_algebra(3, rad2, GF(101) if rad2 else QQ)
        dual = direct_sum([injective(alg, v) for v in alg.vertices])
        out.append(tilting_summary(tilting_module_check(regular_module(alg))))
        out.append(tilting_summary(tilting_module_check(dual)))
        for v in ("2", "3"):
            s_v = simple(alg, v)
            n_mod, _, cert = bongartz_complement(s_v)
            rep = recollement_report(direct_sum([n_mod, s_v]))
            out.append((n_mod.dim_vector(), tilting_summary(cert),
                        rep.localization.reflection_method, rep.orthogonality_ok,
                        rep.t2_exceptional, rep.t2_matches_ru, rep.corollary_zero))
    return out


def test_trusted_sites_pass_the_full_checks(monkeypatch):
    expected = _verdicts()
    built = []

    def validating_rep(cls, algebra, dims, arrow_mats):
        built.append(cls)
        return Representation(algebra, dims, arrow_mats)

    def validating_map(cls, source, target, mats):
        built.append(cls)
        return ModuleMap(source, target, mats)

    def validating_ring(cls, field, dim, labels, mult, unit):
        built.append(cls)
        return SCRing(field, dim, labels, mult, unit)

    monkeypatch.setattr(Representation, "_trusted", classmethod(validating_rep))
    monkeypatch.setattr(ModuleMap, "_trusted", classmethod(validating_map))
    monkeypatch.setattr(SCRing, "_trusted", classmethod(validating_ring))
    assert _verdicts() == expected
    assert built.count(Representation) > 1000 and built.count(ModuleMap) > 1000
    assert built.count(SCRing) >= 8
