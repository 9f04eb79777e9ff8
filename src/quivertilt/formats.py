"""Line-oriented text formats for algebras (.alg) and modules (.mod).

Algebra files:

    # comment
    field Q            (or: field GF(101))
    vertex 1 2
    arrow a: 1 -> 2
    relation a*b
    relation b*a - g*d
    relation 2*a*b + 1/3*g*d

Paths in relations are read left-to-right: a*b is "traverse a, then b".
A leading numeric token in a term is its coefficient.

Module files:

    algebra cycle2.alg     (path relative to the .mod file)
    dim 1=2 2=1
    map a = [[1,0],[0,1]]

Matrices are shaped dims(source) x dims(target) and act on row vectors by
right multiplication; omitted maps are zero.  When the caller supplies the
algebra, the file named on the algebra line must have the same quiver
(vertices, arrows and their endpoints); its field and relations are not
read.
"""

import re
from fractions import Fraction
from pathlib import Path

from .algebra import Algebra, Quiver, RelationPoly, build_algebra
from .errors import InputError
from .linalg import GF, QQ, FieldSpec, Matrix
from .modules import Representation

_NUM_RE = re.compile(r"^[+-]?\d+(/\d+)?$")


def _logical_lines(text: str):
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if line:
            yield line


def parse_field(token: str) -> FieldSpec:
    token = token.strip()
    if token in ("Q", "QQ", "rationals"):
        return QQ
    m = re.fullmatch(r"GF\((\d+)\)", token)
    if m:
        return GF(int(m.group(1)))
    raise InputError(f"unknown field {token!r} (use Q or GF(p))")


def _parse_number(token: str) -> Fraction:
    """A rational literal such as -3 or 2/5."""
    try:
        return Fraction(token)
    except (ValueError, ZeroDivisionError):
        raise InputError(f"malformed number {token!r}") from None


def _parse_dim(chunk: str):
    """One ``vertex=n`` entry of a dim line, n a non-negative integer."""
    v, _, n = chunk.partition("=")
    if not re.fullmatch(r"[0-9]+", n):
        raise InputError(f"malformed dimension {chunk!r} (expected vertex=n with n >= 0)")
    return v, int(n)


def _parse_relation(rest: str) -> RelationPoly:
    # split into signed terms
    pieces = re.split(r"\s*([+-])\s*", rest.strip())
    if pieces and pieces[0] == "":
        pieces = pieces[1:]
    terms = []
    sign = 1
    expect_term = True
    for piece in pieces:
        if piece in ("+", "-"):
            if expect_term:
                if piece == "-":
                    sign = -sign
                continue
            sign = 1 if piece == "+" else -1
            expect_term = True
            continue
        tokens = [t.strip() for t in piece.split("*")]
        if not piece:
            raise InputError(f"empty term in relation {rest!r}")
        if "" in tokens:
            raise InputError(f"empty factor in relation {rest!r}")
        coeff = Fraction(sign)
        if _NUM_RE.match(tokens[0]):
            coeff *= _parse_number(tokens[0])
            tokens = tokens[1:]
        if not tokens:
            raise InputError(f"coefficient without a path in relation {rest!r}")
        terms.append((coeff, tuple(tokens)))
        expect_term = False
        sign = 1
    if not terms:
        raise InputError(f"empty relation {rest!r}")
    return RelationPoly(tuple(terms))


def parse_algebra_text(text: str, field_override: FieldSpec | None = None,
                       max_path_len: int = 64) -> Algebra:
    field, quiver, relations = _parse_algebra_lines(text)
    if field is None and field_override is None:
        raise InputError("algebra file declares no field")
    if field_override is not None:
        field = field_override
    return build_algebra(quiver, relations, field, max_path_len)


def _parse_algebra_lines(text: str):
    """(declared field or None, quiver, relations) of an algebra file."""
    field = None
    vertices = []
    arrows = []
    relations = []
    for line in _logical_lines(text):
        head, _, rest = line.partition(" ")
        head = head.lower()
        if head == "field":
            field = parse_field(rest)
        elif head == "vertex":
            vertices.extend(rest.split())
        elif head == "arrow":
            m = re.fullmatch(r"(\S+)\s*:\s*(\S+)\s*->\s*(\S+)", rest.strip())
            if not m:
                raise InputError(f"malformed arrow line: {line!r}")
            arrows.append((m.group(1), m.group(2), m.group(3)))
        elif head == "relation":
            relations.append(_parse_relation(rest))
        else:
            raise InputError(f"unknown directive {head!r}")
    return field, Quiver(tuple(vertices), tuple(arrows)), relations


def _read_text(path: Path, kind: str) -> str:
    """The UTF-8 text of an input file; InputError names the path, and
    for a byte that is not UTF-8 the line it is on."""
    try:
        return path.read_text(encoding="utf-8")
    except FileNotFoundError:
        raise InputError(f"no such {kind} file: {path}") from None
    except OSError as exc:
        raise InputError(f"cannot read {kind} file {path}: {exc.strerror}") from None
    except UnicodeDecodeError as exc:
        line = exc.object[:exc.start].count(b"\n") + 1
        raise InputError(f"{kind} file {path}, line {line}: not UTF-8 text") from None


def load_algebra(path, field_override: FieldSpec | None = None,
                 max_path_len: int = 64) -> Algebra:
    return parse_algebra_text(_read_text(Path(path), "algebra"), field_override, max_path_len)


def _parse_matrix_literal(text: str, field: FieldSpec, rows: int, cols: int) -> Matrix:
    s = re.sub(r"\s+", "", text)
    if s in ("[]", "[[]]"):
        return Matrix.zeros(field, rows, cols)
    if not (s.startswith("[[") and s.endswith("]]")):
        raise InputError(f"malformed matrix literal {text!r}")
    inner = s[2:-2]
    row_strs = inner.split("],[")
    entries = []
    for rs in row_strs:
        tokens = rs.split(",") if rs else []  # "[[],[]]" has rows with no entries
        if "" in tokens:
            raise InputError(f"empty entry in matrix literal {text!r}")
        entries.append([field.coerce(_parse_number(tok)) for tok in tokens])
    if len(entries) != rows or any(len(r) != cols for r in entries):
        raise InputError(
            f"matrix literal is {len(entries)}x{len(entries[0]) if entries else 0}, "
            f"expected {rows}x{cols}")
    return Matrix.from_rows(field, entries, cols)


def parse_module_text(text: str, algebra: Algebra | None = None,
                      base_dir: Path | None = None,
                      field_override: FieldSpec | None = None) -> Representation:
    alg = algebra
    dims = None
    map_lines = {}
    for line in _logical_lines(text):
        head, _, rest = line.partition(" ")
        head = head.lower()
        if head == "algebra":
            if not rest.strip():
                raise InputError("the algebra line names no file")
            p = Path(rest.strip())
            if base_dir is not None and not p.is_absolute():
                p = base_dir / p
            if alg is None:
                alg = load_algebra(p, field_override)
            else:
                # a supplied algebra must have the quiver the file was written for
                _, named, _ = _parse_algebra_lines(_read_text(p, "algebra"))
                if (set(named.vertices) != set(alg.quiver.vertices)
                        or named.arrow_map() != alg.quiver.arrow_map()):
                    raise InputError(f"module file is written for {p}, whose quiver "
                                     "differs from that of the supplied algebra")
        elif head == "dim":
            if dims is not None:
                raise InputError("module file has a second dim line")
            dims = {}
            for chunk in rest.split():
                v, d = _parse_dim(chunk)
                if v in dims:
                    raise InputError(f"dim line gives vertex {v!r} twice")
                dims[v] = d
        elif head == "map":
            name, _, literal = rest.partition("=")
            name = name.strip()
            if name in map_lines:
                raise InputError(f"arrow {name!r} has a second map line")
            map_lines[name] = literal.strip()
        else:
            raise InputError(f"unknown directive {head!r}")
    if alg is None:
        raise InputError("module file names no algebra and none was supplied")
    if dims is None:
        raise InputError("module file has no dim line")
    full_dims = {v: dims.get(v, 0) for v in alg.vertices}
    unknown = set(dims) - set(alg.vertices)
    if unknown:
        raise InputError(f"dim line names unknown vertices {sorted(unknown)}")
    mats = {}
    for name, s, t in alg.quiver.arrows:
        mats[name] = Matrix.zeros(alg.field, full_dims[s], full_dims[t])
    for name, literal in map_lines.items():
        s, t = alg.arrow_endpoints(name)
        mats[name] = _parse_matrix_literal(literal, alg.field, full_dims[s], full_dims[t])
    return Representation(alg, full_dims, mats)


def load_module(path, algebra: Algebra | None = None,
                field_override: FieldSpec | None = None) -> Representation:
    p = Path(path)
    return parse_module_text(_read_text(p, "module"), algebra, p.parent, field_override)


FIXTURE_DIR = Path(__file__).parent / "fixtures"


def fixture_algebra(name: str, field_override: FieldSpec | None = None) -> Algebra:
    p = FIXTURE_DIR / f"{name}.alg"
    if not p.exists():
        raise InputError(f"unknown fixture algebra {name!r}")
    return load_algebra(p, field_override)
