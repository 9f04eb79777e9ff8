"""Every rational scalar the library stores is an int when it is integral
and a Fraction only when it is not.  Building every ``Matrix`` through a
constructor that rejects floats and integral Fractions must give the same
verdicts over Q: a stray ``/`` or an arithmetic path that skipped the
canonical form would raise here."""

import signal
import sys
from fractions import Fraction

from quivertilt import (QQ, Matrix, bongartz_complement, decompose,
                        direct_sum, hom_space, injective, projective, recollement_report,
                        regular_module, run_example, simple, tilting_module_check,
                        universal_localization)
from quivertilt.formats import parse_algebra_text
from conftest import calls_name, construction_inventory, linear_algebra, site_of, tilting_summary

# A commutative square with a non-unit coefficient: its modules carry 2 and
# 1/2, so non-integral Fractions reach Hom spaces and decomposition.
SQUARE = """field Q
vertex 1 2 3 4
arrow a: 1 -> 2
arrow b: 2 -> 4
arrow c: 1 -> 3
arrow d: 3 -> 4
relation 2*a*b - c*d
"""


def _verdicts():
    out = []
    for name in ("cycle2", "triple3", "a2-bongartz"):
        rep = run_example(name)
        out.append((name, rep.passed, tuple((c.name, c.passed) for c in rep.checks)))
    for n in (3, 4):
        alg = linear_algebra(n)
        for v in alg.vertices:
            s_v = simple(alg, v)
            n_mod, _, _ = bongartz_complement(s_v)
            loc = universal_localization(tilting_module_check(direct_sum([n_mod, s_v])).sequence)
            out.append((loc.ru_module.dim_vector(), loc.evidence.reason,
                        loc.hom_epi.is_homological_epi))
    square = parse_algebra_text(SQUARE)
    for alg in (linear_algebra(3), linear_algebra(4), square):
        vs = alg.vertices
        dual = direct_sum([injective(alg, v) for v in vs])
        out.append(tilting_summary(tilting_module_check(regular_module(alg))))
        out.append(tilting_summary(tilting_module_check(dual)))
        for v in vs[1:]:
            n_mod, _, cert = bongartz_complement(simple(alg, v))
            out.append((n_mod.dim_vector(), tilting_summary(cert)))
        for m in (regular_module(alg), dual):
            out.append([(f.dim_vector(), k) for f, k in decompose(m)])
        out.append([hom_space(injective(alg, v), projective(alg, w)).dim
                    for v in vs for w in vs])
    return out


def non_canonical(m):
    """Entries of m that are floats or integral Fractions."""
    return [x for r in m.entries for x in r
            if isinstance(x, float) or (isinstance(x, Fraction) and x.denominator == 1)]


def test_non_canonical_detector_sees_floats_and_integral_fractions():
    m = Matrix(QQ, 1, 4, ((Fraction(2), 0.5, Fraction(1, 2), 3),))
    assert non_canonical(m) == [Fraction(2), 0.5]


def test_every_matrix_entry_is_a_canonical_rational(monkeypatch):
    expected = _verdicts()
    built, sites = {"with_fractions": 0}, set()
    post_init = Matrix.__post_init__

    def checking_post_init(self):
        bad = non_canonical(self)
        if bad:
            raise TypeError(f"non-canonical scalars {bad!r} in a matrix over {self.field}")
        sites.add(site_of(sys._getframe(2).f_code))  # the caller of Matrix.__init__
        built["with_fractions"] += any(isinstance(x, Fraction) for r in self.entries for x in r)
        post_init(self)

    monkeypatch.setattr(Matrix, "__post_init__", checking_post_init)
    assert _verdicts() == expected
    # a floor on the share of the package functions calling Matrix( that
    # built one (32 of 46 when it was set), which does not move when the
    # same verdicts take less work or when functions merge
    inventory = construction_inventory(calls_name("Matrix"))
    assert len(sites & inventory) >= 0.65 * len(inventory) > 0
    assert built["with_fractions"] > 0


def test_square_reflects_at_one_copy_of_a_repeated_summand():
    """The Bongartz complements of S_2 and S_3 over SQUARE have T1 = S_v²,
    whose End has dimension 4; R is reflected at one copy of S_v, a brick.
    The reports for v = 2, 3, 4 must all finish within 2 s (the iterative
    route at S_v² had not finished after 40 s)."""

    def expire(signum, frame):
        raise TimeoutError("SQUARE recollement reports took over 2 s")

    alg = parse_algebra_text(SQUARE)
    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, 2.0)
    try:
        for v in alg.vertices[1:]:
            s_v = simple(alg, v)
            n_mod, _, _ = bongartz_complement(s_v)
            rep = recollement_report(direct_sum([n_mod, s_v]))
            assert [(f.dim_vector(), k) for f, k in decompose(rep.t1)] == (
                [(s_v.dim_vector(), 2)] if v in ("2", "3") else [])
            loc = rep.localization
            assert loc.reflection_method == "brick" and loc.reflection_matches
            assert rep.orthogonality_ok and rep.t2_matches_ru
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
