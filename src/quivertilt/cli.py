"""Command-line front end.

Verbs operate on .alg and .mod files; every verdict is printed as human
text and, with --json PATH, also written as a JSON document whose fields
carry the witness data needed to re-verify the verdict with library calls.

Exit codes: 0 success / all checks pass, 1 a check produced a failing
verdict, 2 malformed input, 3 a bound was exceeded.
"""

import argparse
import json
import sys
from fractions import Fraction
from pathlib import Path

from .algebra import injective, projective, simple
from .complexes import cohomology, resolve_to_complex
from .errors import BoundExceeded, InputError, QuivertiltError
from .formats import load_algebra, load_module, parse_field
from .homology import ext_dim, global_dimension, min_resolution
from .modules import decompose, direct_sum, hom_space
from .recollement import (recollement_report, reflect, reflect_regular,
                          stratifying_ideal_check, universal_localization)
from .tilting import (TiltingCertificate, bongartz_complement, check_A1_A2,
                      construct_tilting, tilting_module_check)
from .verify import run_example


class _SubParser(argparse.ArgumentParser):
    """Subcommand parser that inherits the shared option block."""

    common = None

    def __init__(self, **kwargs):
        parents = list(kwargs.pop("parents", ()))
        if _SubParser.common is not None:
            parents.append(_SubParser.common)
        super().__init__(parents=parents, **kwargs)


def _jsonable(x):
    if isinstance(x, Fraction):
        return str(x)
    if isinstance(x, (list, tuple)):
        return [_jsonable(v) for v in x]
    if isinstance(x, dict):
        return {str(k): _jsonable(v) for k, v in x.items()}
    return x


def _emit(args, report: dict, lines):
    for ln in lines:
        print(ln)
    if args.json:
        try:
            Path(args.json).write_text(
                json.dumps(_jsonable(report), indent=2, sort_keys=True) + "\n")
        except OSError as exc:
            raise InputError(f"cannot write --json report {args.json}: {exc.strerror}") from None


def _field(args):
    return parse_field(args.field) if args.field else None


def _load_alg(args):
    return load_algebra(args.algebra, _field(args))


def _load_mods(alg, paths):
    return [load_module(p, alg) for p in paths]


def _load_sum(alg, paths):
    """Direct sum of the listed module files (the module itself for one)."""
    mods = _load_mods(alg, paths)
    return direct_sum(mods) if len(mods) > 1 else mods[0]


def cmd_info(args):
    alg = _load_alg(args)
    lines = [f"algebra {args.algebra}: dim {alg.dim} over {alg.field}",
             f"vertices: {' '.join(alg.vertices)}",
             "basis: " + ", ".join(_path_str(alg, i) for i in range(alg.dim))]
    table = {}
    for v in alg.vertices:
        p = projective(alg, v)
        i = injective(alg, v)
        s = simple(alg, v)
        table[v] = {"projective": p.dim_vector(), "injective": i.dim_vector(),
                    "simple": s.dim_vector()}
        lines.append(f"vertex {v}: P dims {p.dim_vector()}, I dims {i.dim_vector()}, "
                     f"S dims {s.dim_vector()}")
    report = {"command": "info", "dim": alg.dim, "vertices": list(alg.vertices),
              "basis": [_path_str(alg, i) for i in range(alg.dim)], "modules": table}
    _emit(args, report, lines)
    return 0


def _path_str(alg, i):
    src, word = alg.basis[i]
    return f"e_{src}" if not word else "*".join(word)


def cmd_hom(args):
    alg = _load_alg(args)
    m, n = _load_mods(alg, [args.m, args.n])
    d = hom_space(m, n).dim
    _emit(args, {"command": "hom", "dim": d}, [f"dim Hom = {d}"])
    return 0


def cmd_ext(args):
    alg = _load_alg(args)
    m, n = _load_mods(alg, [args.m, args.n])
    d = ext_dim(args.k, m, n, args.max_resolution)
    _emit(args, {"command": "ext", "k": args.k, "dim": d}, [f"dim Ext^{args.k} = {d}"])
    return 0


def cmd_resolve(args):
    alg = _load_alg(args)
    m = load_module(args.m, alg)
    res = min_resolution(m, args.max_resolution)
    lines = [f"minimal resolution of {args.m}: length {res.length}"]
    terms = []
    for k, t in enumerate(res.terms):
        gens = ",".join(f"P_{v}" for v in t.gens) or "0"
        terms.append(list(t.gens))
        lines.append(f"  P_{k} = {gens}")
    _emit(args, {"command": "resolve", "length": res.length, "terms": terms}, lines)
    return 0


def cmd_gldim(args):
    alg = _load_alg(args)
    d = global_dimension(alg, args.max_resolution)
    if d is None:
        _emit(args, {"command": "gldim", "gldim": None},
              [f"global dimension exceeds bound {args.max_resolution}"])
        return 3
    _emit(args, {"command": "gldim", "gldim": d}, [f"global dimension = {d}"])
    return 0


def cmd_tilting_check(args):
    alg = _load_alg(args)
    t = _load_sum(alg, args.modules)
    cert = tilting_module_check(t, args.max_resolution)
    if isinstance(cert, TiltingCertificate):
        lines = [f"tilting: YES (pd {cert.pd}, Ext^1(T,T) = {cert.ext1_dim})",
                 f"sequence 0 -> R -> T0 -> T1 -> 0 with T0 dims "
                 f"{cert.sequence.mid.dim_vector()}, T1 dims {cert.sequence.right.dim_vector()}"]
        report = {"command": "tilting-check", "tilting": True, "pd": cert.pd,
                  "t0_dims": cert.sequence.mid.dim_vector(),
                  "t1_dims": cert.sequence.right.dim_vector(),
                  "t0_summand_tags": list(cert.t0_tags)}
        _emit(args, report, lines)
        return 0
    lines = ["tilting: NO"] + [f"  {code}: {detail}" for code, detail in cert.reasons]
    _emit(args, {"command": "tilting-check", "tilting": False,
                 "reasons": [list(r) for r in cert.reasons]}, lines)
    return 1


def cmd_bongartz(args):
    alg = _load_alg(args)
    m = load_module(args.m, alg)
    n_mod, ses, cert = bongartz_complement(m, args.max_resolution)
    dec = decompose(n_mod)
    lines = [f"Bongartz complement dims {n_mod.dim_vector()}",
             "decomposition: " + ", ".join(f"{f.dim_vector()} x{mult}" for f, mult in dec),
             "N + M certified tilting"]
    _emit(args, {"command": "bongartz", "n_dims": n_mod.dim_vector(),
                 "decomposition": [[f.dim_vector(), mult] for f, mult in dec],
                 "tilting": True}, lines)
    return 0


def cmd_construct_tilting(args):
    alg = _load_alg(args)
    t1m, t2m = _load_mods(alg, [args.t1, args.t2])
    t1 = resolve_to_complex(t1m, args.max_resolution)
    t2 = resolve_to_complex(t2m, args.max_resolution)
    rep = check_A1_A2(t1, t2)
    if not rep.ok:
        lines = ["pair invalid:"] + [f"  {v.condition} at degree {v.degree}: dim {v.dim}"
                                     for v in rep.violations]
        _emit(args, {"command": "construct-tilting", "pair_ok": False,
                     "violations": [[v.condition, v.degree, v.dim] for v in rep.violations]},
              lines)
        return 1
    built = construct_tilting(rep.pair)
    h0_first = cohomology(built.first, 0)
    h0_second = cohomology(built.second, 0)
    lines = [f"multiplicity m = {built.multiplicity}",
             f"C1 + T2: H^0 dims {h0_first.dim_vector()}, exceptional: {built.first_exceptional}",
             f"T1 + C2: H^0 dims {h0_second.dim_vector()}, exceptional: {built.second_exceptional}"]
    report = {"command": "construct-tilting", "pair_ok": True,
              "multiplicity": built.multiplicity,
              "first_h0_dims": h0_first.dim_vector(),
              "second_h0_dims": h0_second.dim_vector(),
              "first_exceptional": built.first_exceptional,
              "second_exceptional": built.second_exceptional,
              "generation_evidence": built.generation_evidence}
    _emit(args, report, lines)
    return 0 if built.first_exceptional and built.second_exceptional else 1


def cmd_reflect(args):
    alg = _load_alg(args)
    t1 = load_module(args.t1, alg)
    if args.m:
        mc = resolve_to_complex(load_module(args.m, alg), args.max_resolution)
        t1c = resolve_to_complex(t1, args.max_resolution)
        q, _, method = reflect(t1c, mc, args.max_steps)
    else:
        q, _, method = reflect_regular(t1, args.max_steps, args.max_resolution)
    hs = {n: cohomology(q, n).dim_vector() for n in
          (range(q.lo, q.hi + 1) if not q.is_zero_complex() else [])}
    lines = [f"reflection ({method}): degrees [{q.lo}, {q.hi}]" if not q.is_zero_complex()
             else f"reflection ({method}): zero complex"]
    for n, dims in sorted(hs.items()):
        if any(dims):
            lines.append(f"  H^{n} dims {dims}")
    _emit(args, {"command": "reflect", "method": method,
                 "cohomology": {str(n): d for n, d in hs.items()}}, lines)
    return 0


def _localization_from_modules(alg, paths, args):
    t = _load_sum(alg, paths)
    cert = tilting_module_check(t, args.max_resolution)
    if not isinstance(cert, TiltingCertificate):
        raise InputError(f"input is not a tilting module: {cert.reasons}")
    return t, cert, universal_localization(cert.sequence, args.max_steps, args.max_resolution)


def cmd_localize(args):
    alg = _load_alg(args)
    t, cert, loc = _localization_from_modules(alg, args.modules, args)
    dec = [[f.dim_vector(), mult] for f, mult in loc.ru_decomposition]
    ev = loc.evidence
    lines = [f"R_U dims {loc.ru_module.dim_vector()}, ring dim {ev.dim}",
             "decomposition: " + ", ".join(f"{d} x{m}" for d, m in dec),
             f"reflection method {loc.reflection_method}, matches trace quotient: "
             f"{loc.reflection_matches}",
             f"homological epimorphism: {'YES' if loc.hom_epi.is_homological_epi else 'NO'}",
             f"End(R_U) = M_{len(ev.to_x)}(K), split pair R_U ≅ X^{len(ev.to_x)} checked"
             if ev.reason is None else f"End(R_U) not certified a matrix ring over K: {ev.reason}"]
    report = {"command": "localize", "ru_dims": loc.ru_module.dim_vector(),
              "ring_dim": ev.dim, "decomposition": dec,
              "reflection_method": loc.reflection_method,
              "reflection_matches": loc.reflection_matches,
              "hom_epi": loc.hom_epi.is_homological_epi,
              "ext_dims": list(loc.hom_epi.ext_dims),
              "tor_dims": list(loc.hom_epi.tor_dims),
              "ring_evidence": {"dim": ev.dim,
                                "matrix_size": None if ev.reason else len(ev.to_x),
                                "reason": ev.reason}}
    _emit(args, report, lines)
    return 0


def cmd_homepi(args):
    alg = _load_alg(args)
    t, cert, loc = _localization_from_modules(alg, args.modules, args)
    verdict = loc.hom_epi.is_homological_epi
    lines = [f"homological epimorphism: {'YES' if verdict else 'NO'}",
             f"Ext^i(R_U, R_U), i=1..{len(loc.hom_epi.ext_dims)}: {list(loc.hom_epi.ext_dims)}",
             f"Tor_i(R_U, R_U), i=1..{len(loc.hom_epi.tor_dims)}: {list(loc.hom_epi.tor_dims)}"]
    _emit(args, {"command": "homepi", "hom_epi": verdict,
                 "ext_dims": list(loc.hom_epi.ext_dims),
                 "tor_dims": list(loc.hom_epi.tor_dims)}, lines)
    return 0 if verdict else 1


def cmd_stratify(args):
    alg = _load_alg(args)
    rep = stratifying_ideal_check(alg, tuple(args.vertices))
    lines = [f"stratifying: {'YES' if rep.is_stratifying else 'NO'}",
             f"corner dim {rep.corner_dim}, tensor dim {rep.tensor_dim}, "
             f"ideal dim {rep.ideal_dim}, multiplication bijective: "
             f"{rep.multiplication_bijective}",
             f"Tor^A_n(A/AeA, A/AeA), n=1..{len(rep.quotient_tor_dims)}: "
             f"{list(rep.quotient_tor_dims)}",
             f"Ext^n_A(A/AeA, top), n=1..{len(rep.quotient_ext_dims)}: "
             f"{list(rep.quotient_ext_dims)} (resolution complete: {rep.resolution_complete})"]
    _emit(args, {"command": "stratify", "stratifying": rep.is_stratifying,
                 "corner_dim": rep.corner_dim, "tensor_dim": rep.tensor_dim,
                 "ideal_dim": rep.ideal_dim,
                 "multiplication_bijective": rep.multiplication_bijective,
                 "quotient_tor_dims": list(rep.quotient_tor_dims),
                 "quotient_ext_dims": list(rep.quotient_ext_dims),
                 "resolution_complete": rep.resolution_complete}, lines)
    return 0 if rep.is_stratifying else 1


def cmd_recollement(args):
    alg = _load_alg(args)
    t = _load_sum(alg, args.modules)
    rep = recollement_report(t, args.max_steps, args.max_resolution)
    lines = [f"T1 (X-side generator) dims {rep.t1.dim_vector()}",
             f"orthogonality Hom(T1[n], T2) = 0: {rep.orthogonality_ok}",
             f"T2 exceptional: {rep.t2_exceptional}"
             + (f", H^0(T2) = R_U: {rep.t2_matches_ru}" if rep.t2_exceptional else ""),
             f"homological epimorphism: "
             f"{'YES' if rep.localization.hom_epi.is_homological_epi else 'NO'}",
             f"Hom(T1, T0) = 0 (quotient-style tilting): {rep.corollary_zero}"]
    if rep.corollary_zero:
        lines.append(f"  T equivalent to R_U + R_U/R (add T = add T'): "
                     f"{rep.equivalent_to_ru_tilting}")
    report = {"command": "recollement",
              "t1_dims": rep.t1.dim_vector(),
              "orthogonality_ok": rep.orthogonality_ok,
              "t2_exceptional": rep.t2_exceptional,
              "t2_matches_ru": rep.t2_matches_ru,
              "hom_epi": rep.localization.hom_epi.is_homological_epi,
              "corollary_zero": rep.corollary_zero,
              "equivalent_to_ru_tilting": rep.equivalent_to_ru_tilting,
              "ru_dims": rep.localization.ru_module.dim_vector()}
    _emit(args, report, lines)
    return 0


def cmd_verify_example(args):
    rep = run_example(args.name, _field(args))
    lines = [f"{args.name}: {'PASS' if rep.passed else 'FAIL'}"]
    for c in rep.checks:
        mark = "ok" if c.passed else "FAIL"
        lines.append(f"  [{mark}] {c.name}" + (f" ({c.detail})" if c.detail and not c.passed else ""))
    report = {"command": "verify-example", "example": args.name,
              "passed": rep.passed,
              "checks": [{"name": c.name, "passed": c.passed, "detail": c.detail}
                         for c in rep.checks],
              "data": rep.data}
    _emit(args, report, lines)
    return 0 if rep.passed else 1


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="quivertilt",
        description="Exact workbench for finite-dimensional path algebras: "
                    "Ext/Tor, tilting modules, universal localization, "
                    "recollement certificates.")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--field", help="override the field of the algebra file (Q or GF(p))")
    common.add_argument("--max-resolution", type=int, default=32,
                        help="projective resolution length bound")
    common.add_argument("--max-steps", type=int, default=16,
                        help="iteration budget for reflections")
    common.add_argument("--json", metavar="PATH", help="also write a JSON report here")
    sub = p.add_subparsers(dest="verb", required=True, parser_class=_SubParser)
    _SubParser.common = common

    sp = sub.add_parser("info", help="algebra summary: dimension, basis, P/I/S table")
    sp.add_argument("algebra")
    sp.set_defaults(func=cmd_info)

    sp = sub.add_parser("hom", help="dim Hom(M, N)")
    sp.add_argument("algebra"); sp.add_argument("m"); sp.add_argument("n")
    sp.set_defaults(func=cmd_hom)

    sp = sub.add_parser("ext", help="dim Ext^k(M, N)")
    sp.add_argument("-k", type=int, default=1)
    sp.add_argument("algebra"); sp.add_argument("m"); sp.add_argument("n")
    sp.set_defaults(func=cmd_ext)

    sp = sub.add_parser("resolve", help="minimal projective resolution of M")
    sp.add_argument("algebra"); sp.add_argument("m")
    sp.set_defaults(func=cmd_resolve)

    sp = sub.add_parser("gldim", help="global dimension of the algebra")
    sp.add_argument("algebra")
    sp.set_defaults(func=cmd_gldim)

    sp = sub.add_parser("tilting-check", help="certify the direct sum of the "
                        "listed modules as a tilting module")
    sp.add_argument("algebra"); sp.add_argument("modules", nargs="+")
    sp.set_defaults(func=cmd_tilting_check)

    sp = sub.add_parser("bongartz", help="Bongartz complement of M")
    sp.add_argument("algebra"); sp.add_argument("m")
    sp.set_defaults(func=cmd_bongartz)

    sp = sub.add_parser("construct-tilting", help="two-triangle tilting "
                        "construction from resolve(T1), resolve(T2)")
    sp.add_argument("algebra"); sp.add_argument("t1"); sp.add_argument("t2")
    sp.set_defaults(func=cmd_construct_tilting)

    sp = sub.add_parser("reflect", help="reflection of M (default: the regular "
                        "module) away from resolve(T1)")
    sp.add_argument("algebra"); sp.add_argument("t1")
    sp.add_argument("m", nargs="?", default=None)
    sp.set_defaults(func=cmd_reflect)

    sp = sub.add_parser("localize", help="universal localization at the tilting "
                        "module given as a direct sum of module files")
    sp.add_argument("algebra"); sp.add_argument("modules", nargs="+")
    sp.set_defaults(func=cmd_localize)

    sp = sub.add_parser("homepi", help="homological-epimorphism check for the "
                        "localization at a tilting module")
    sp.add_argument("algebra"); sp.add_argument("modules", nargs="+")
    sp.set_defaults(func=cmd_homepi)

    sp = sub.add_parser("stratify", help="is the ideal generated by the chosen "
                        "vertex idempotents stratifying?")
    sp.add_argument("algebra")
    sp.add_argument("--vertices", nargs="+", required=True)
    sp.set_defaults(func=cmd_stratify)

    sp = sub.add_parser("recollement", help="full recollement report for a "
                        "tilting module")
    sp.add_argument("algebra"); sp.add_argument("modules", nargs="+")
    sp.set_defaults(func=cmd_recollement)

    sp = sub.add_parser("verify-example", help="end-to-end reproduction of a "
                        "worked example")
    sp.add_argument("name", choices=["cycle2", "triple3", "a2-bongartz"])
    sp.set_defaults(func=cmd_verify_example)

    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except InputError as e:
        print(f"input error: {e}", file=sys.stderr)
        return 2
    except BoundExceeded as e:
        print(f"bound exceeded: {e}", file=sys.stderr)
        return 3
    except QuivertiltError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
