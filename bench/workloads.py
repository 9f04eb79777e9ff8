"""Workloads of the quivertilt benchmark: fixed task lists, the inputs each
seed generates, and the verdict each task must return.

One task is one call into the public API and yields one verdict.  A verdict
is summarised as a small tuple and compared with the task's expected
summary; a mismatch or an exception is a failed verdict.

The A_n families reach the package only as generated ``.alg`` text.  The
seed relabels vertices and arrows, permutes the declaration lines and
shuffles the task order (see ``an_text`` for the one order it keeps); the algebras stay isomorphic to the linear quiver
1 -> 2 -> ... -> n, so the expected verdicts do not depend on the seed.
Vertex positions below (1..n along the quiver) are mapped to the seed's
labels when a task is built.

Deliberately not measured, because a later fix would turn a fast failure
into a slower success and read as a regression: reflections that take the
iterative route (hereditary A_3 over Q with T = D(A) runs past minutes at
the default step cap), and the fields GF(2) and GF(3), where the examples
raise InputError.
"""

import random
from dataclasses import dataclass
from typing import Callable

# Worked example -> the fixture algebra it runs on.
EXAMPLE_FIXTURES = {"cycle2": "cycle2", "triple3": "triple3", "a2-bongartz": "a2"}
EXAMPLES = tuple(EXAMPLE_FIXTURES)
# The prime field of the examples' second run and of the rad2 family.
PRIME_FIELD = "GF(101)"

# Sizes n of the A_n families.
SIZES = {
    "an-hereditary-q": (3, 4, 5),
    "an-rad2-gf101": (3, 4, 5, 6),
}
WORKLOADS = ("examples",) + tuple(SIZES)


@dataclass(frozen=True)
class Task:
    id: str
    field: str                 # field the verdict is computed over: "Q" or "GF(p)"
    run: Callable[[], tuple]   # one public-API call; returns the verdict summary
    expect: tuple


@dataclass(frozen=True)
class AnInput:
    n: int
    text: str
    labels: tuple              # labels[i - 1] is the label of vertex position i


def an_text(n: int, rad2: bool, field: str, rng: random.Random) -> AnInput:
    """``.alg`` text of A_n (arrows i -> i+1; with ``rad2`` every path of
    length two is a relation), relabelled and reordered by ``rng``.

    The ``vertex`` line keeps the quiver's order: it fixes the package's
    basis order, and permuting it moved single verdict times by up to 25 %
    from seed to seed over Q, more than the benchmark's bounds."""
    labels = tuple(f"v{k}" for k in rng.sample(range(10 * n), n))
    arrows = [f"e{k}" for k in rng.sample(range(10 * n), n - 1)]
    lines = [f"field {field}", "vertex " + " ".join(labels)]
    lines += [f"arrow {arrows[i]}: {labels[i]} -> {labels[i + 1]}" for i in range(n - 1)]
    if rad2:
        lines += [f"relation {arrows[i]}*{arrows[i + 1]}" for i in range(n - 2)]
    rng.shuffle(lines)
    return AnInput(n, "\n".join(lines) + "\n", labels)


def make_inputs(workload: str, seed: int, sizes=None):
    """The seed's ``.alg`` texts of an A_n family, one per size n.  The
    examples use the shipped fixtures unchanged; their inputs are the
    example names.  ``sizes`` narrows either list."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    if workload == "examples":
        return tuple(sizes or EXAMPLES)
    rng = random.Random(f"{workload}/{seed}")
    rad2 = workload == "an-rad2-gf101"
    field = PRIME_FIELD if rad2 else "Q"
    return [an_text(n, rad2, field, rng) for n in (sizes or SIZES[workload])]


# -- verdict summaries ---------------------------------------------------------


def tilting_verdict(qt, result) -> tuple:
    if isinstance(result, qt.TiltingCertificate):
        return ("certified", len(result.factors))
    if isinstance(result, qt.TiltingFailure):
        return ("failure", tuple(code for code, _ in result.reasons))
    return ("unexpected", type(result).__name__)


def dims_at(module, labels) -> tuple:
    return tuple(module.dims[label] for label in labels)


# -- tasks ---------------------------------------------------------------------


# triple3: Ext^1(R_U, R_U) = 0 and dim Ext^2 = 6, so R_U is not a
# homological epimorphism although Ext^1 vanishes.
EXAMPLE_EXPECT = {"cycle2": (True, True), "triple3": (True, 0, 6), "a2-bongartz": (True,)}


def example_verdict(name: str, report) -> tuple:
    if name == "cycle2":
        return (report.passed, report.data.get("hom_epi"))
    if name == "triple3":
        return (report.passed,) + tuple(report.data.get("ext_dims", ())[:2])
    return (report.passed,)


def example_tasks(qt, names):
    tasks = []
    for name in names:
        for field in (None, qt.formats.parse_field(PRIME_FIELD)):
            def run(name=name, field=field):
                report = (qt.run_example(name) if field is None
                          else qt.run_example(name, field=field))
                return example_verdict(name, report)
            field_name = str(field or qt.QQ)
            tasks.append(Task(f"{name}/{field_name}", field_name, run, EXAMPLE_EXPECT[name]))
    return tasks


def regular_dims(n: int, rad2: bool) -> list:
    """dim of the regular module at each position: P_i spans the paths
    starting at i, which reach i..n (hereditary) or i, i+1 (rad2)."""
    return [min(i, 2) if rad2 else i for i in range(1, n + 1)]


def complement_dims(n: int, rad2: bool, v: int) -> tuple:
    """Bongartz complement N of S_v from 0 -> R -> N -> S_v^k -> 0 with
    k = dim Ext^1(S_v, R): 1 for v < n, 0 for the projective S_n."""
    dims = regular_dims(n, rad2)
    if v < n:
        dims[v - 1] += 1
    return tuple(dims)


def bongartz_verdict(qt, inp: AnInput, s_v):
    n_mod, _, cert = qt.bongartz_complement(s_v)
    return n_mod, tilting_verdict(qt, cert) + (dims_at(n_mod, inp.labels),)


def bongartz_expect(inp: AnInput, rad2: bool, v: int) -> tuple:
    return ("certified", inp.n, complement_dims(inp.n, rad2, v))


def tilting_task(qt, inp: AnInput, name: str, field: str, module, expect: tuple) -> Task:
    return Task(f"A{inp.n}/tilting/{name}", field,
                lambda: tilting_verdict(qt, qt.tilting_module_check(module)), expect)


def hereditary_tasks(qt, inp: AnInput):
    alg = qt.formats.parse_algebra_text(inp.text)
    lab = inp.labels
    dual = qt.direct_sum([qt.injective(alg, v) for v in alg.vertices])
    s12 = qt.direct_sum([qt.simple(alg, lab[0]), qt.simple(alg, lab[1])])
    tasks = [
        tilting_task(qt, inp, "R", "Q", qt.regular_module(alg), ("certified", inp.n)),
        tilting_task(qt, inp, "DA", "Q", dual, ("certified", inp.n)),
        tilting_task(qt, inp, "S1+S2", "Q", s12, ("failure", ("ext",))),
    ]
    for v in range(1, inp.n + 1):
        s_v = qt.simple(alg, lab[v - 1])
        tasks.append(Task(f"A{inp.n}/bongartz/S{v}", "Q",
                          lambda s_v=s_v: bongartz_verdict(qt, inp, s_v)[1],
                          bongartz_expect(inp, False, v)))
    return tasks


def rad2_tasks(qt, inp: AnInput):
    alg = qt.formats.parse_algebra_text(inp.text)
    dual = qt.direct_sum([qt.injective(alg, v) for v in alg.vertices])
    tasks = [tilting_task(qt, inp, "DA", PRIME_FIELD, dual, ("failure", ("pd",)))]
    for v in (inp.n - 1, inp.n):
        s_v = qt.simple(alg, inp.labels[v - 1])

        def report(s_v=s_v):
            n_mod, complement = bongartz_verdict(qt, inp, s_v)
            rep = qt.recollement_report(qt.direct_sum([n_mod, s_v]))
            return complement + (rep.localization.reflection_method, rep.orthogonality_ok)

        tasks.append(Task(f"A{inp.n}/recollement/S{v}", PRIME_FIELD, report,
                          bongartz_expect(inp, True, v) + ("brick", True)))
    return tasks


def setup(qt, workload: str, inputs, seed: int) -> list:
    """Parse the texts, build the algebras and the input modules, and return
    the tasks in the seed's order.  This is the set-up a user pays before
    asking for verdicts; ``run_example`` builds its own inputs, so for the
    examples it is the parse of each fixture under both fields."""
    if workload == "examples":
        for name in inputs:
            for field in (None, qt.formats.parse_field(PRIME_FIELD)):
                qt.regular_module(qt.formats.fixture_algebra(EXAMPLE_FIXTURES[name], field))
        tasks = example_tasks(qt, inputs)
    elif workload == "an-hereditary-q":
        tasks = [t for inp in inputs for t in hereditary_tasks(qt, inp)]
    else:
        tasks = [t for inp in inputs for t in rad2_tasks(qt, inp)]
    random.Random(f"{workload}/{seed}/order").shuffle(tasks)
    return tasks
