"""Per-layer tracing of quivertilt from outside the package.

While installed, a Tracer replaces every public function of each layer
module, and the public methods and ``__post_init__`` of the classes a layer
defines, with a timing wrapper.  Package modules import names directly
(``from .linalg import rank``), so each function is replaced in every
package namespace that bound it, not only where it is defined.  ``remove``
puts every original back.

Each wrapped call is a span.  Aggregates are kept as the spans close:
calls and self time per function, entries into each layer from another
layer (a layer's ``calls``), the outermost call of each operation in
``OPS`` (its inclusive time), and the time covered by top-level spans of
each verdict.  linalg self time is split by the field of the verdict it
was spent in.  Spans of the operations are also kept in memory as records
(name, start, end, parent, verdict) and written out by ``write_spans``.
Operations are matched by name patterns, so the metrics survive functions
being renamed, merged or moved between modules as long as the pattern
still matches; a metric whose pattern matches nothing reads 0 and is named
in ``notes``.
"""

import inspect
import json
import re
import sys
import time

LAYERS = ("linalg", "algebra", "modules", "homology", "complexes", "rings",
          "tilting", "recollement", "formats")
LINALG = LAYERS.index("linalg")
UNWRAPPED_CLASSES = {"FieldSpec"}

# Hot operations that do not nest: calls and self time are summed over the
# functions whose "<layer>.<qualified name>" matches the pattern.
COUNTED = {
    "linalg.matmul": r"linalg\.Matrix\.mul",
    "linalg.matrix": r"linalg\.Matrix\.__post_init__",
    "modules.validate": r"modules\.\w+\.__post_init__",
}
# Operations timed by their outermost call (a call of the operation made
# outside any other call of it): calls and inclusive time.
OPS = {
    "linalg.elim": r"linalg\.(rref|rank|row_space|solve_\w+|quotient_basis"
                   r"|sum_subspaces|intersect_subspaces)",
    "modules.hom_space": r"modules\.hom_space",
    "modules.decompose": r"modules\.(decompose|indecomposable_summands)",
    "modules.is_isomorphic": r"modules\.is_isomorphic",
    "homology.resolution": r"homology\.\w*resolution",
    "homology.approx": r"homology\.\w*approximation",
    "homology.ext": r"homology\.ext(_dim)?",
    "homology.tor": r"(homology|rings)\.(\w+_)?tor(_\w+)?",
    "homology.univ_ext": r"homology\.universal_extension",
    "complexes.derived_hom": r"complexes\.derived_hom(_dim)?",
    "complexes.cone": r"complexes\.mapping_cone",
    "tilting.check": r"tilting\.tilting_module_check",
    "tilting.bongartz": r"tilting\.bongartz_complement",
    "recollement.reflect": r"recollement\.(reflect_regular|reflection_\w+)",
    "recollement.localization": r"recollement\.universal_localization",
    "recollement.hom_epi": r"recollement\.homological_epi_check",
    "recollement.ring_evidence": r"recollement\.ring_evidence",
    "formats": r"formats\..+",
}
# Operations whose calls are checked for arguments repeated within a verdict.
REPEAT_OPS = ("modules.hom_space", "modules.decompose", "homology.resolution")
# Called so often that a record per call would cost more memory than the
# run itself; aggregated only.
UNRECORDED_OPS = ("linalg.elim",)

# Per-layer metrics printed by a traced run, in order, with their units.
PER_LAYER = (
    ("linalg.self_s", "s"), ("linalg.q.self_s", "s"), ("linalg.gf.self_s", "s"),
    ("linalg.elim.calls", "count"), ("linalg.elim.cells", "count"),
    ("linalg.matmul.calls", "count"), ("linalg.matrix.new", "count"),
    ("modules.self_s", "s"), ("modules.validate.calls", "count"),
    ("modules.validate.self_s", "s"),
    ("modules.hom_space.calls", "count"), ("modules.hom_space.incl_s", "s"),
    ("modules.decompose.calls", "count"), ("modules.decompose.incl_s", "s"),
    ("modules.is_isomorphic.calls", "count"), ("modules.is_isomorphic.incl_s", "s"),
    ("modules.hom_space.repeat_frac", "ratio"), ("modules.decompose.repeat_frac", "ratio"),
    ("homology.resolution.repeat_frac", "ratio"),
    ("homology.self_s", "s"), ("homology.resolution.calls", "count"),
    ("homology.resolution.incl_s", "s"), ("homology.resolution.max_len", "count"),
    ("homology.approx.incl_s", "s"), ("homology.approx.hom_per_call", "ratio"),
    ("homology.ext.calls", "count"), ("homology.ext.incl_s", "s"),
    ("homology.tor.incl_s", "s"), ("homology.univ_ext.incl_s", "s"),
    ("complexes.self_s", "s"), ("complexes.derived_hom.calls", "count"),
    ("complexes.derived_hom.incl_s", "s"), ("complexes.cone.calls", "count"),
    ("rings.self_s", "s"), ("rings.calls", "count"),
    ("tilting.check.calls", "count"), ("tilting.check.incl_s", "s"),
    ("tilting.bongartz.incl_s", "s"),
    ("recollement.self_s", "s"), ("recollement.reflect.calls", "count"),
    ("recollement.reflect.incl_s", "s"),
    ("recollement.reflect.brick", "count"), ("recollement.reflect.iterative", "count"),
    ("recollement.localization.incl_s", "s"), ("recollement.hom_epi.incl_s", "s"),
    ("recollement.ring_evidence.incl_s", "s"),
    ("algebra.self_s", "s"), ("algebra.calls", "count"), ("formats.incl_s", "s"),
    ("trace.coverage", "ratio"), ("trace.overhead_frac", "ratio"),
    ("verdict.fail_frac", "ratio"),
)


def _cells(args) -> int:
    return sum(a.rows * a.cols for a in args
               if isinstance(getattr(a, "rows", None), int)
               and isinstance(getattr(a, "cols", None), int))


def _value_key(x):
    """Hashable value of an argument: modules by their dimensions and arrow
    matrices, plain values as themselves, anything else by identity."""
    if hasattr(x, "dims") and hasattr(x, "arrow_mats"):
        return ("module", id(x.algebra), tuple(x.dims.items()),
                tuple((a, m.entries) for a, m in sorted(x.arrow_mats.items())))
    if x is None or isinstance(x, (bool, int, float, str)):
        return x
    return ("object", type(x).__name__, id(x))


def _route(result, name: str):
    """Reflection route of a reflect call: the method string a call returns
    last in its tuple, else the route its function name states."""
    if isinstance(result, tuple) and result and isinstance(result[-1], str):
        return result[-1]
    for route in ("brick", "iterative"):
        if route in name:
            return route
    return None


class Tracer:
    """Install with ``install()``, mark verdicts with ``begin``/``end``, and
    always ``remove()`` (use it as a context manager)."""

    def __init__(self, package):
        self.package = package
        self.names = []            # span name id -> "<layer>.<qualname>"
        self._layer = []           # name id -> layer index
        self._ops = []             # name id -> tuple of op indices
        self._op_names = list(OPS)
        self._op_index = {op: i for i, op in enumerate(self._op_names)}
        self._patches = []         # (owner, attribute, original), in patch order
        self._stack = []           # open frames: [child seconds, layer index]
        self.calls = []            # per name id
        self.self_s = []           # per name id
        self.layer_entries = [0] * len(LAYERS)
        self._op_depth = [0] * len(OPS)
        self.op_calls = [0] * len(OPS)
        self.op_incl_s = [0.0] * len(OPS)
        self.op_repeats = [0] * len(OPS)
        self.elim_cells = 0
        self.resolution_max_len = 0
        self.routes = {}
        self.approx_hom_calls = 0
        self.linalg_self_by_field = {}
        self.spans = []            # (name, start, end, verdict) of recorded ops
        self.verdicts = []         # (verdict id, start, end, covered seconds)
        self._verdict = None
        self._verdict_field = None
        self._verdict_start = 0.0
        self._linalg_at_start = 0.0
        self._covered = [0.0]      # seconds of top-level spans in this verdict
        self._seen = {}

    # -- installation ----------------------------------------------------------

    def _discover(self):
        """(owner, attribute, original, name) for each callable to wrap."""
        found = []
        for layer in LAYERS:
            mod = sys.modules.get(f"{self.package.__name__}.{layer}")
            if mod is None:
                continue
            for attr, obj in vars(mod).items():
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    found.append((mod, attr, obj, f"{layer}.{attr}"))
                elif inspect.isclass(obj) and attr not in UNWRAPPED_CLASSES:
                    for mname, member in vars(obj).items():
                        if mname.startswith("_") and mname != "__post_init__":
                            continue
                        if isinstance(member, (staticmethod, classmethod)) or inspect.isfunction(member):
                            found.append((obj, mname, member, f"{layer}.{attr}.{mname}"))
        return found

    def install(self):
        pkg_modules = [m for n, m in sys.modules.items()
                       if m is not None and (n == self.package.__name__
                                             or n.startswith(self.package.__name__ + "."))]
        for owner, attr, original, name in self._discover():
            nid = self._register(name)
            if isinstance(original, (staticmethod, classmethod)):
                replacement = type(original)(self._wrap(original.__func__, nid))
                self._patch(owner, attr, original, replacement)
                continue
            wrapper = self._wrap(original, nid)
            if inspect.isclass(owner):
                self._patch(owner, attr, original, wrapper)
                continue
            for mod in pkg_modules:
                for bound, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, bound, original, wrapper)
        return self

    def _patch(self, owner, attr, original, replacement):
        self._patches.append((owner, attr, original))
        setattr(owner, attr, replacement)

    def remove(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.remove()
        return False

    def _register(self, name: str) -> int:
        nid = len(self.names)
        self.names.append(name)
        self._layer.append(LAYERS.index(name.split(".", 1)[0]))
        ops = tuple(i for i, op in enumerate(self._op_names) if re.fullmatch(OPS[op], name))
        self._ops.append(ops)
        self.calls.append(0)
        self.self_s.append(0.0)
        return nid

    def _wrap(self, fn, nid):
        # The bookkeeping is inlined because it runs millions of times per
        # pass.  A frame is [seconds spent in child spans, layer index].
        stack = self._stack
        clock = time.perf_counter
        layer = self._layer[nid]
        ops = self._ops[nid]
        calls, self_s, entries = self.calls, self.self_s, self.layer_entries
        op_depth, outermost, covered = self._op_depth, self._outermost, self._covered

        def traced(*args, **kwargs):
            frame = [0.0, layer]
            stack.append(frame)
            for op in ops:
                op_depth[op] += 1
            result = None
            start = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = clock()
                stack.pop()
                dur = end - start
                if stack:
                    parent = stack[-1]
                    parent[0] += dur
                    if parent[1] != layer:
                        entries[layer] += 1
                else:
                    covered[0] += dur
                    entries[layer] += 1
                calls[nid] += 1
                self_s[nid] += dur - frame[0]
                for op in ops:
                    op_depth[op] -= 1
                    if not op_depth[op]:
                        outermost(op, nid, start, end, args, kwargs, result)

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", "traced")
        traced.__qualname__ = getattr(fn, "__qualname__", traced.__name__)
        traced.__doc__ = fn.__doc__
        return traced

    # -- span bookkeeping --------------------------------------------------------

    def _outermost(self, op, nid, start, end, args, kwargs, result):
        """Account one outermost call of operation ``op``."""
        self.op_calls[op] += 1
        self.op_incl_s[op] += end - start
        name = self._op_names[op]
        if name in REPEAT_OPS:
            key = (tuple(_value_key(a) for a in args),
                   tuple((k, _value_key(v)) for k, v in sorted(kwargs.items())))
            seen = self._seen.setdefault(op, set())
            if key in seen:
                self.op_repeats[op] += 1
            else:
                seen.add(key)
        if name not in UNRECORDED_OPS:
            self.spans.append((name, start, end, self._verdict))
        if name == "linalg.elim":
            self.elim_cells += _cells(args)
        elif name == "homology.resolution":
            length = getattr(result, "length", None)
            if isinstance(length, int):
                self.resolution_max_len = max(self.resolution_max_len, length)
        elif name == "recollement.reflect":
            route = _route(result, self.names[nid])
            if route is not None:
                self.routes[route] = self.routes.get(route, 0) + 1
        elif name == "modules.hom_space" and self._op_depth[self._op_index["homology.approx"]]:
            self.approx_hom_calls += 1

    # -- verdicts ----------------------------------------------------------------

    def begin(self, verdict_id, field: str):
        """Start a verdict computed over ``field``; linalg self time is
        split by the field of the verdict it was spent in."""
        self._verdict, self._verdict_field = verdict_id, field
        self._covered[0] = 0.0
        self._seen = {}
        self._linalg_at_start = self._layer_self(LINALG)
        self._verdict_start = time.perf_counter()

    def end(self):
        end = time.perf_counter()
        self.verdicts.append((self._verdict, self._verdict_start, end, self._covered[0]))
        spent = self._layer_self(LINALG) - self._linalg_at_start
        by_field = self.linalg_self_by_field
        by_field[self._verdict_field] = by_field.get(self._verdict_field, 0.0) + spent
        self._verdict = self._verdict_field = None

    def _layer_self(self, layer: int) -> float:
        return sum(s for nid, s in enumerate(self.self_s) if self._layer[nid] == layer)

    # -- results -----------------------------------------------------------------

    def notes(self):
        """Operations whose pattern matched no wrapped function."""
        patterns = {**COUNTED, **OPS}
        return [f"no function matches operation {op!r}; its metrics read 0"
                for op, pattern in patterns.items()
                if not any(re.fullmatch(pattern, name) for name in self.names)]

    def metrics(self) -> dict:
        """Every per-layer metric except the two that need the untraced run
        (``trace.overhead_frac``) or the verdict checks (``verdict.fail_frac``)."""
        out = {}
        for i, layer in enumerate(LAYERS):
            out[f"{layer}.self_s"] = self._layer_self(i)
            out[f"{layer}.calls"] = self.layer_entries[i]
        by_field = self.linalg_self_by_field
        out["linalg.q.self_s"] = by_field.get("Q", 0.0)
        out["linalg.gf.self_s"] = sum(s for f, s in by_field.items() if f.startswith("GF"))
        for i, op in enumerate(self._op_names):
            out[f"{op}.calls"] = self.op_calls[i]
            out[f"{op}.incl_s"] = self.op_incl_s[i]
            if op in REPEAT_OPS:
                out[f"{op}.repeat_frac"] = (self.op_repeats[i] / self.op_calls[i]
                                            if self.op_calls[i] else 0.0)
        for op, pattern in COUNTED.items():
            nids = [nid for nid, name in enumerate(self.names) if re.fullmatch(pattern, name)]
            out[f"{op}.calls"] = sum(self.calls[nid] for nid in nids)
            out[f"{op}.self_s"] = sum(self.self_s[nid] for nid in nids)
        out["linalg.matrix.new"] = out.pop("linalg.matrix.calls")
        out["linalg.elim.cells"] = self.elim_cells
        out["homology.resolution.max_len"] = self.resolution_max_len
        approx_calls = self.op_calls[self._op_index["homology.approx"]]
        out["homology.approx.hom_per_call"] = (self.approx_hom_calls / approx_calls
                                               if approx_calls else 0.0)
        out["recollement.reflect.brick"] = self.routes.get("brick", 0)
        out["recollement.reflect.iterative"] = self.routes.get("iterative", 0)
        total = sum(end - start for _, start, end, _ in self.verdicts)
        covered = sum(c for _, _, _, c in self.verdicts)
        out["trace.coverage"] = covered / total if total else 0.0
        return out

    def write_spans(self, path):
        """Write verdict and operation spans as JSON lines, each with the
        index of its parent span (the innermost span enclosing it)."""
        records = [(f"verdict:{v}", s, e, v) for v, s, e, _ in self.verdicts]
        records += self.spans
        records.sort(key=lambda r: (r[1], -r[2]))
        open_spans = []
        with open(path, "w") as fh:
            for idx, (name, start, end, verdict) in enumerate(records):
                while open_spans and records[open_spans[-1]][2] < end:
                    open_spans.pop()
                parent = open_spans[-1] if open_spans else None
                fh.write(json.dumps({"id": idx, "name": name, "start": start, "end": end,
                                     "parent": parent, "verdict": verdict}) + "\n")
                open_spans.append(idx)
