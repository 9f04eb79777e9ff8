"""End-to-end reproductions of the three worked examples, as named checks.

Each verification builds its algebra from the shipped fixture file, runs
the full pipeline, and returns a report of (name, passed, detail) entries.
These are the same checks the acceptance suite asserts one by one.
"""

from dataclasses import dataclass

from .algebra import injective, projective, regular_module, simple
from .complexes import cohomology, resolve_to_complex
from .formats import fixture_algebra
from .homology import ext, global_dimension, left_add_approximation, realize_extension
from .linalg import FieldSpec
from .modules import (cokernel, decompose, direct_sum, is_isomorphic, match_decomposition,
                      quotient, socle)
from .recollement import perp_membership, universal_localization
from .tilting import (TiltingCertificate, bongartz_complement, check_A1_A2,
                      construct_tilting, tilting_module_check)


@dataclass(frozen=True)
class Check:
    name: str
    passed: bool
    detail: str


@dataclass(frozen=True)
class ExampleReport:
    example: str
    checks: tuple
    data: dict

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)


def verify_cycle2(field: FieldSpec | None = None) -> ExampleReport:
    alg = fixture_algebra("cycle2", field)
    checks = []
    data = {}

    def check(name, passed, detail=""):
        checks.append(Check(name, bool(passed), str(detail)))

    check("dim A = 5", alg.dim == 5, f"dim = {alg.dim}")
    P2 = projective(alg, "2")
    I1 = injective(alg, "1")
    I2 = injective(alg, "2")
    S2 = simple(alg, "2")
    T = direct_sum([P2, S2])
    cert = tilting_module_check(T)
    is_cert = isinstance(cert, TiltingCertificate)
    check("tilting_module_check(P2 + S2) passes", is_cert,
          getattr(cert, "reasons", ""))
    if is_cert:
        seq_ok = (is_isomorphic(cert.sequence.mid, direct_sum([P2, P2]))
                  and is_isomorphic(cert.sequence.right, S2))
        check("sequence is 0 -> R -> P2^2 -> S2 -> 0", seq_ok,
              f"T0 dims {cert.sequence.mid.dim_vector()}, "
              f"T1 dims {cert.sequence.right.dim_vector()}")
    ok, _ = perp_membership([S2], I1)
    check("I1 in perp({S2})", ok)
    ok, wit = perp_membership([S2], P2)
    check("P2 not in perp({S2})", not ok, f"witness {wit}")
    if is_cert:
        loc = universal_localization(cert.sequence)
        data["ru_dims"] = loc.ru_module.dim_vector()
        check("R_U decomposes as I1^2",
              match_decomposition(loc.ru_decomposition, [(I1, 2)]),
              f"R_U dims {loc.ru_module.dim_vector()}")
        ev = loc.evidence
        check("End(R_U) is a 2x2 matrix ring over the base field "
              "(checked split pair R_U ≅ X², Σ to_x[i] from_x[i] = 1, dim 4)",
              ev.reason is None and len(ev.to_x) == 2 and ev.dim == 4,
              f"dim {ev.dim}, {len(ev.to_x)} copies of X, reason {ev.reason}")
        check("homological epimorphism: Ext^i(R_U, R_U) = 0 for i = 1..6",
              loc.hom_epi.is_homological_epi and len(loc.hom_epi.ext_dims) == 6,
              f"ext dims {loc.hom_epi.ext_dims}, tor dims {loc.hom_epi.tor_dims}")
        data["hom_epi"] = loc.hom_epi.is_homological_epi
    space = ext(1, I1, S2)
    check("dim Ext^1(I1, S2) = 1", space.dim == 1, f"dim = {space.dim}")
    if space.dim == 1:
        ses = realize_extension(space.classes[0])
        mid_ok = is_isomorphic(ses.mid, I2) and is_isomorphic(ses.mid, P2)
        check("extension middle term is I2 (and I2 = P2)", mid_ok,
              f"middle dims {ses.mid.dim_vector()}")
    pair_rep = check_A1_A2(resolve_to_complex(S2), resolve_to_complex(I1))
    check("(resolve S2, resolve I1) is an exceptional pair", pair_rep.ok,
          pair_rep.violations)
    if pair_rep.ok:
        built = construct_tilting(pair_rep.pair)
        h0 = cohomology(built.first, 0)
        dec = decompose(h0)
        check("construct_tilting: H^0 summands are I2 and I1",
              match_decomposition(dec, [(I2, 1), (I1, 1)]),
              f"{[(f.dim_vector(), m) for f, m in dec]}")
        check("construct_tilting outputs are exceptional",
              built.first_exceptional and built.second_exceptional)
    return ExampleReport("cycle2", tuple(checks), data)


def verify_triple3(field: FieldSpec | None = None) -> ExampleReport:
    alg = fixture_algebra("triple3", field)
    checks = []
    data = {}

    def check(name, passed, detail=""):
        checks.append(Check(name, bool(passed), str(detail)))

    gd = global_dimension(alg)
    check("global dimension = 4", gd == 4, f"gldim = {gd}")
    P1 = projective(alg, "1")
    P2 = projective(alg, "2")
    S1 = simple(alg, "1")
    r = regular_module(alg)
    tchar = direct_sum([P1, P2, S1])
    f, _ = left_add_approximation(r, tchar)
    t0 = f.target
    t1, _ = cokernel(f)
    check("approximation gives T0 = P1 + P2^2",
          match_decomposition(decompose(t0), [(P1, 1), (P2, 2)]),
          f"T0 dims {t0.dim_vector()}")
    check("T1 has dimension vector (1,1,0)", t1.dim_vector() == (1, 1, 0),
          f"T1 dims {t1.dim_vector()}")
    tilt = direct_sum([t0, t1])
    cert = tilting_module_check(tilt)
    is_cert = isinstance(cert, TiltingCertificate)
    check("T0 + T1 is a tilting module", is_cert, getattr(cert, "reasons", ""))
    if not is_cert:
        return ExampleReport("triple3", tuple(checks), data)
    loc = universal_localization(cert.sequence)
    p2s2 = quotient(P2, socle(P2)[1])[0]
    check("R_U decomposes as S1 + (P2/S2)^2",
          match_decomposition(loc.ru_decomposition, [(S1, 1), (p2s2, 2)]),
          f"R_U dims {loc.ru_module.dim_vector()}")
    ext_dims = loc.hom_epi.ext_dims
    data["ext1_dim"] = ext_dims[0] if ext_dims else 0
    data["ext_dims"] = ext_dims
    check("R_U has self-extensions in some positive degree",
          any(d > 0 for d in ext_dims), f"ext dims {ext_dims}")
    check("homological epimorphism: NO", not loc.hom_epi.is_homological_epi,
          f"ext dims {ext_dims}, tor dims {loc.hom_epi.tor_dims}")
    return ExampleReport("triple3", tuple(checks), data)


def verify_a2_bongartz(field: FieldSpec | None = None) -> ExampleReport:
    alg = fixture_algebra("a2", field)
    checks = []
    data = {}

    def check(name, passed, detail=""):
        checks.append(Check(name, bool(passed), str(detail)))

    S1 = simple(alg, "1")
    P1 = projective(alg, "1")
    n_mod, ses, cert = bongartz_complement(S1)
    check("complement decomposes as P1^2",
          match_decomposition(decompose(n_mod), [(P1, 2)]),
          f"N dims {n_mod.dim_vector()}")
    cert2 = tilting_module_check(direct_sum([S1, P1]))
    check("tilting_module_check(S1 + P1) passes",
          isinstance(cert2, TiltingCertificate), getattr(cert2, "reasons", ""))
    return ExampleReport("a2-bongartz", tuple(checks), data)


VERIFIERS = {
    "cycle2": verify_cycle2,
    "triple3": verify_triple3,
    "a2-bongartz": verify_a2_bongartz,
}


def run_example(name: str, field: FieldSpec | None = None) -> ExampleReport:
    if name not in VERIFIERS:
        from .errors import InputError
        raise InputError(f"unknown example {name!r}; choose from {sorted(VERIFIERS)}")
    return VERIFIERS[name](field)
