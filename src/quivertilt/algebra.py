"""Finite-dimensional path algebras KQ/I.

A quiver plus admissible relations is turned into a concrete algebra: a
basis of residue paths (including the vertex idempotents), structure
constants for all basis products, and the standard modules P_v, I_v, S_v.

Path composition is written LEFT-TO-RIGHT throughout: ``p * q`` means
"traverse p, then q", so a relation ``a*b`` kills the walk along arrow a
followed by arrow b.  Fixture files record this convention; it is the one
under which the worked two-vertex cycle algebra has its projective at
vertex 2 uniserial of length three with simple socle at vertex 2.

``build_algebra`` reads the construction off the relations.  A monomial
ideal (every relation a single path, up to a nonzero scalar) is built by
path combinatorics: the basis is the paths that contain no relation word,
and a product is a concatenation or zero.  Any other ideal goes through
rounds of two-sided elimination in its monomial quotient: only the paths
that avoid every zero-relation word take part.

An ``Algebra`` is built and certified once.  Its lookup tables (endpoints
of each basis path, the vertex, idempotent, arrow and arrow-path indexes,
the suffix and prefix of each path, the paths from and to each vertex) are
fields, filled when it is constructed, so ``opposite_algebra`` and a
hand-made table get them too.  The certificate (``Algebra._verify``) reads
the table's grading by endpoints once and checks associativity only on
the arrow triples the grading leaves nonzero.
"""

import itertools
from dataclasses import dataclass, field as _dc_field

from .errors import BoundExceeded, ConsistencyError, InputError
from .linalg import FieldSpec, Matrix

# A path is (source_vertex, tuple_of_arrow_names).  Trivial paths have an
# empty arrow tuple.


@dataclass(frozen=True)
class Quiver:
    vertices: tuple
    arrows: tuple  # of (name, source, target)

    def __post_init__(self):
        if len(set(self.vertices)) != len(self.vertices):
            raise InputError("duplicate vertex names")
        names = [a[0] for a in self.arrows]
        if len(set(names)) != len(names):
            raise InputError("duplicate arrow names")
        if set(names) & set(self.vertices):
            raise InputError("arrow names must differ from vertex names")
        vs = set(self.vertices)
        for name, s, t in self.arrows:
            if s not in vs or t not in vs:
                raise InputError(f"arrow {name}: endpoint not a declared vertex")

    def arrow_map(self) -> dict:
        return {a[0]: (a[1], a[2]) for a in self.arrows}


@dataclass(frozen=True)
class RelationPoly:
    """Linear combination of parallel paths of length >= 2, composable
    left-to-right."""

    terms: tuple  # of (coefficient, tuple_of_arrow_names)

    def validate(self, quiver: Quiver):
        if not self.terms:
            raise InputError("empty relation")
        amap = quiver.arrow_map()
        ends = set()
        for coeff, word in self.terms:
            if len(word) < 2:
                raise InputError(f"relation term {word} has length < 2 (not admissible)")
            prev_t = None
            for a in word:
                if a not in amap:
                    raise InputError(f"unknown arrow {a!r} in relation")
                s, t = amap[a]
                if prev_t is not None and prev_t != s:
                    raise InputError(f"non-composable word {word}")
                prev_t = t
            ends.add((amap[word[0]][0], amap[word[-1]][1]))
        if len(ends) != 1:
            raise InputError("relation terms are not parallel")


def _path_key(arrow_index: dict, src_index: dict, path):
    src, word = path
    return (len(word), tuple(arrow_index[a] for a in word), src_index[src])


class _KeyCache(dict):
    """path -> sort key, each key computed once, on its first lookup."""

    def __init__(self, keyfn):
        super().__init__()
        self.keyfn = keyfn

    def __missing__(self, path):
        k = self[path] = self.keyfn(path)
        return k


class _Eliminator:
    """Echelonized span of two-sided ideal instances in path coordinates.

    Vectors are dicts path -> coefficient.  The order is length-graded
    (longer paths are leading), then lexicographic on arrow indices; each
    path's sort key is computed once.  Rules are normalized to leading
    coefficient one and indexed by leading path, and ``fresh`` hands out
    the leading paths of the rules inserted since its previous call.
    ``normal_form`` memoizes the reduction of one path, so it is read only
    once the last rule is in.
    """

    def __init__(self, fld: FieldSpec, keyfn):
        self.fld = fld
        self.key = _KeyCache(keyfn).__getitem__
        self.rules = {}
        self._new = []
        self._normal = {}

    def reduce(self, vec: dict) -> dict:
        fld = self.fld
        out = {}
        work = dict(vec)
        while work:
            p = max(work, key=self.key)
            c = work.pop(p)
            if not c:
                continue
            rule = self.rules.get(p)
            if rule is None:
                out[p] = c
                continue
            for q, d in rule.items():
                if q == p:
                    continue
                nc = fld.sub(work.get(q, fld.zero()), fld.mul(c, d))
                if nc:
                    work[q] = nc
                elif q in work:
                    del work[q]
        return out

    def normal_form(self, path) -> dict:
        """The reduction of one path, memoized per path."""
        try:
            return self._normal[path]
        except KeyError:
            red = self._normal[path] = self.reduce({path: self.fld.one()})
            return red

    def insert(self, vec: dict) -> bool:
        """Reduce and, if nonzero, add as a new rule.  Returns True if added."""
        red = self.reduce(vec)
        if not red:
            return False
        lead = max(red, key=self.key)
        inv = self.fld.inv(red[lead])
        self.rules[lead] = {p: self.fld.mul(inv, c) for p, c in red.items()}
        self._new.append(lead)
        return True

    def fresh(self) -> list:
        """Leading paths of the rules inserted since the previous call, in
        insertion order."""
        new, self._new = self._new, []
        return new


PATH_COUNT_CAP = 200_000


def _rel_vector(rel: RelationPoly, amap: dict, fld: FieldSpec) -> dict:
    """The relation as a vector in path coordinates: coefficients coerced,
    equal paths summed, zeros dropped (a vanishing relation is {})."""
    vec = {}
    for coeff, word in rel.terms:
        p = (amap[word[0]][0], tuple(word))
        vec[p] = fld.add(vec.get(p, fld.zero()), fld.coerce(coeff))
    return {p: c for p, c in vec.items() if c}


def _survive_error(max_path_len: int) -> BoundExceeded:
    return BoundExceeded(
        f"nonzero residue paths survive at length {max_path_len}; "
        "algebra not finite-dimensional within bound")


def _cap_error() -> BoundExceeded:
    return BoundExceeded(
        f"path enumeration exceeded {PATH_COUNT_CAP} paths; "
        "algebra not finite-dimensional within bound")


def build_algebra(quiver: Quiver, relations, fld: FieldSpec, max_path_len: int = 64) -> "Algebra":
    """Quotient of the path algebra by the two-sided ideal the relations
    generate.

    The construction is read off the relations.  Each becomes a vector in
    path coordinates (``_rel_vector``); a relation that vanishes over fld
    is no relation.  A vector with one term is a zero relation, and its
    path a relation word.  The zero relations are their own Gröbner basis,
    so KQ/I is the monomial quotient KQ/(words) divided by the remaining
    relations.  When there are none, ``_build_monomial`` builds the
    algebra by path combinatorics; otherwise ``_build_by_elimination``
    runs its rounds inside the monomial quotient, on the paths that avoid
    every word.  Where elimination rounds over every path build the
    algebra, both give their basis, in their order, and their table (see
    the two builders), and both end with ``Algebra._verify``.

    Raises BoundExceeded when nonzero residue paths survive at max_path_len
    (the ideal is then not visibly admissible within the bound) or when
    more than PATH_COUNT_CAP paths are enumerated, and InputError for a
    negative max_path_len.
    """
    if max_path_len < 0:
        raise InputError(f"path length bound max_path_len must be >= 0, got {max_path_len}")
    relations = tuple(relations)
    for r in relations:
        r.validate(quiver)
    amap = quiver.arrow_map()
    vectors = [vec for vec in (_rel_vector(r, amap, fld) for r in relations) if vec]
    words = {word for vec in vectors if len(vec) == 1 for _, word in vec}
    mixed = [vec for vec in vectors if len(vec) > 1]
    if not mixed:
        return _build_monomial(quiver, relations, fld, words, max_path_len)
    return _build_by_elimination(quiver, relations, fld, words, mixed, max_path_len)


def _arrows_out(quiver) -> dict:
    """(name, target) of the arrows out of each vertex, in quiver order."""
    out = {v: [] for v in quiver.vertices}
    for name, s, t in quiver.arrows:
        out[s].append((name, t))
    return out


def _grow(layer, out, words, lengths, length) -> list:
    """The paths of length ``length`` that contain no word, from ``layer``,
    those of length - 1, as (source, word, target) triples: each path
    extended by the arrows out of its end, in quiver order, and kept
    unless some word is a suffix of the extension, since its prefix
    already avoids every word."""
    longer = []
    for src, word, end in layer:
        for name, t in out[end]:
            w = word + (name,)
            if not any(w[-k:] in words for k in lengths if k <= length):
                longer.append((src, w, t))
    return longer


def _contains_word(w, words, lengths) -> bool:
    return any(w[i:i + k] in words for k in lengths for i in range(len(w) - k + 1))


def _build_monomial(quiver, relations, fld, words, max_path_len):
    """KQ/I for I generated by the paths ``words`` (arrow words of length
    >= 2): the relation words are their own Gröbner basis, so the residue
    basis is the set of paths that contain no word, and a product of two
    basis paths is their concatenation when that avoids every word, else 0
    (E. L. Green, Noncommutative Gröbner bases, and projective resolutions,
    1999).

    The basis is built layer by layer by ``_grow``.  This is the
    elimination's basis in the elimination's order: there, a monomial
    ideal reduces exactly the paths that contain a word, and the survivors
    of an enumeration of every path keep its relative order, since it
    extends every path of a layer in the same way.  The first empty layer
    of length >= 2 ends the basis; a path that survives at max_path_len
    raises BoundExceeded, as more than PATH_COUNT_CAP basis paths do.
    """
    lengths = {len(w) for w in words}
    out = _arrows_out(quiver)
    layer = [(v, (), v) for v in quiver.vertices]  # (source, word, target)
    paths = list(layer)
    for length in range(1, max_path_len + 1):
        layer = _grow(layer, out, words, lengths, length)
        if not layer and length >= 2:
            break
        paths += layer
        if len(paths) > PATH_COUNT_CAP:
            raise _cap_error()
    else:
        raise _survive_error(max_path_len)

    index = {(src, word): i for i, (src, word, _) in enumerate(paths)}
    starting = {v: [] for v in quiver.vertices}
    for j, (src, word, _) in enumerate(paths):
        starting[src].append((j, word))
    dim, one = len(paths), fld.one()
    mult = dict.fromkeys(itertools.product(range(dim), repeat=2), ())
    for i, (src, word, end) in enumerate(paths):
        for j, word_j in starting[end]:
            k = index.get((src, word + word_j))
            if k is not None:
                mult[(i, j)] = ((k, one),)
    alg = Algebra(quiver, relations, fld, tuple(index), mult, max_path_len)
    alg._verify()
    return alg


def _build_by_elimination(quiver, relations, fld, words, vectors, max_path_len):
    """KQ/I for the zero relations ``words`` and the relation vectors
    ``vectors`` of two or more terms, built in the monomial quotient
    KQ/(words): only the paths that contain no word are enumerated (by
    ``_grow``, by increasing length), each vector loses its terms that
    contain a word, and so does each rule multiplied by an arrow, since a
    word can then only appear at the end the arrow joins.

    Rounds close the span of relation instances under one-arrow extension
    on both sides.  The first length whose paths are all reducible is the
    death length; the multiplication table reduces paths up to length
    2(death length - 1), so rounds go on while a rule a round adds has a
    leading path of at most that length.  The residue basis is the
    irreducible paths shorter than the death length, in enumeration order:
    the word-avoiding paths keep the relative order of an enumeration of
    every path, so where rounds over every path build the algebra, the
    basis and table are theirs.  Those rounds stopped after 2 * death
    length - 4 and refused some admissible ideals, such as
    K<x, y>/(xy, yx, x^3 - y^2), that these rounds build."""
    amap = quiver.arrow_map()
    arrow_index = {a[0]: i for i, a in enumerate(quiver.arrows)}
    src_index = {v: i for i, v in enumerate(quiver.vertices)}
    lengths = {len(w) for w in words}
    out = _arrows_out(quiver)

    # layers[l] = the word-avoiding paths of length l, (source, word, target)
    layers = [[(v, (), v) for v in quiver.vertices]]
    total_paths = len(quiver.vertices)

    def layer(length):
        nonlocal total_paths
        while len(layers) <= length:
            layers.append(_grow(layers[-1], out, words, lengths, len(layers)))
            total_paths += len(layers[-1])
            if total_paths > PATH_COUNT_CAP:
                raise _cap_error()
        return layers[length]

    def multiples(rule: dict):
        """The rule times each arrow that attaches to it, in quiver order,
        on the left before the right, without the terms that gain a word."""
        src, word = next(iter(rule))  # the terms of a rule are parallel paths
        end = amap[word[-1]][1] if word else src
        for name, s, t in quiver.arrows:
            if t == src:
                left = {}
                for (_, p), c in rule.items():
                    w = (name,) + p
                    if not any(w[:k] in words for k in lengths):
                        left[(s, w)] = c
                yield left
            if s == end:
                right = {}
                for (_, p), c in rule.items():
                    w = p + (name,)
                    if not any(w[-k:] in words for k in lengths):
                        right[(src, w)] = c
                yield right

    elim = _Eliminator(fld, lambda p: _path_key(arrow_index, src_index, p))
    for vec in vectors:
        elim.insert({p: c for p, c in vec.items() if not _contains_word(p[1], words, lengths)})
    frontier = elim.fresh()
    death_len = None
    for rnd in range(1, 2 * max_path_len + 1):
        for lead in frontier:
            for cand in multiples(elim.rules[lead]):
                if cand:
                    elim.insert(cand)
        frontier = elim.fresh()
        if death_len is None:
            for length in range(2, min(rnd + 2, max_path_len) + 1):
                if all((src, word) in elim.rules for src, word, _ in layer(length)):
                    death_len = length
                    break
            else:
                if rnd + 2 > max_path_len:
                    raise _survive_error(max_path_len)
                continue
        if all(len(word) > 2 * (death_len - 1) for _, word in frontier):
            break

    if death_len is None:
        raise _survive_error(max_path_len)

    # residue basis: irreducible paths of length < death_len
    basis = [(src, word) for length in range(death_len) for src, word, _ in layer(length)
             if (src, word) not in elim.rules]
    # safety: no irreducible path may survive between death_len and the
    # window the multiplication table needs
    for length in range(death_len, min(2 * (death_len - 1), max_path_len) + 1):
        if any((src, word) not in elim.rules for src, word, _ in layer(length)):
            raise BoundExceeded(
                "residue basis did not stabilize at the detected layer; "
                "relations are too wild for layer elimination")
    return _from_elimination(quiver, relations, fld, basis, elim, words, max_path_len)


def _from_elimination(quiver, relations, fld, basis, elim, words, max_path_len):
    """The algebra on the residue basis, each product b_i * b_j read off
    the concatenated path: a basis path by its index, a path that contains
    a word (where the two join, as neither contains one) as 0, and any
    other path from its normal form."""
    amap = quiver.arrow_map()
    lengths = {len(w) for w in words}
    index = {p: i for i, p in enumerate(basis)}
    dim, one = len(basis), fld.one()
    starting = {v: [] for v in quiver.vertices}
    for j, (src, word) in enumerate(basis):
        starting[src].append((j, word))

    mult = dict.fromkeys(itertools.product(range(dim), repeat=2), ())
    for i, (src, word) in enumerate(basis):
        end = amap[word[-1]][1] if word else src
        for j, word_j in starting[end]:
            path = (src, word + word_j)
            k = index.get(path)
            if k is not None:
                mult[(i, j)] = ((k, one),)
                continue
            if _contains_word(path[1], words, lengths):
                continue
            red = elim.normal_form(path)
            if any(r not in index for r in red):
                raise BoundExceeded(
                    "product reduction escaped the residue basis; "
                    "increase max_path_len")
            mult[(i, j)] = tuple(sorted((index[r], c) for r, c in red.items()))
    alg = Algebra(quiver, relations, fld, tuple(basis), mult, max_path_len)
    alg._verify()
    return alg


def _memo(obj, key, compute, keep=None):
    """The value memoized in obj's cache under key: the stored one unless
    ``keep`` rejects it, else ``compute()``, stored and returned.  A compute
    that raises stores nothing.  A key is a string or a tuple whose first
    element is a string, its namespace.  The one place that reads or
    writes a ``_caches`` dict."""
    caches = obj._caches
    try:  # one lookup on a hit: a tuple key is hashed again on every lookup
        value = caches[key]
    except KeyError:
        pass
    else:
        if keep is None or keep(value):
            return value
    value = caches[key] = compute()
    return value


@dataclass(frozen=True)
class Algebra:
    """A finite-dimensional path algebra with relations.

    basis[i] is a residue path (source, word).  mult[(i, j)] is the sparse
    row of basis[i] * basis[j]: a tuple of (k, c) pairs with c != 0, in
    increasing k, standing for sum_k c * basis[k]; a zero product is ().
    Every pair (i, j) has an entry.

    The lookup tables are fields, built once from the basis and the quiver
    in __post_init__ and read by the accessors:

    - ``_src``, ``_tgt``: the endpoints of each basis path (``_tgt`` is
      None when the last arrow is not in the quiver);
    - ``_vidx``, ``_idem``, ``_amap``, ``_aidx``: the position of each
      vertex, the basis index of each e_v, the endpoints of each arrow and
      the basis index of each arrow;
    - ``_suffix``: for path i = a * p', the basis index of p', else None;
    - ``_prefix``: for path i = p' * a, the basis index of p' when p' is a
      basis path before i, else None (``modules.hom_from_gens`` reads the
      rows of a map along it in basis order);
    - ``_from``, ``_to``: the basis paths from and to each vertex, in basis
      order.

    Building them raises nothing on a malformed basis; _verify rejects it.
    The table is certified by _verify, not on all dim^3 basis triples.
    """

    quiver: Quiver
    relations: tuple
    field: FieldSpec
    basis: tuple
    mult: dict  # (i, j) -> sparse row of basis[i] * basis[j]
    max_path_len: int = 64
    _caches: dict = _dc_field(default_factory=dict, compare=False, repr=False)
    _src: tuple = _dc_field(init=False, compare=False, repr=False)
    _tgt: tuple = _dc_field(init=False, compare=False, repr=False)
    _vidx: dict = _dc_field(init=False, compare=False, repr=False)
    _idem: dict = _dc_field(init=False, compare=False, repr=False)
    _amap: dict = _dc_field(init=False, compare=False, repr=False)
    _aidx: dict = _dc_field(init=False, compare=False, repr=False)
    _suffix: tuple = _dc_field(init=False, compare=False, repr=False)
    _prefix: tuple = _dc_field(init=False, compare=False, repr=False)
    _from: dict = _dc_field(init=False, compare=False, repr=False)
    _to: dict = _dc_field(init=False, compare=False, repr=False)

    def __post_init__(self):
        vertices, basis = self.quiver.vertices, self.basis
        amap = self.quiver.arrow_map()
        index = {p: i for i, p in enumerate(basis)}
        src = tuple(s for s, _ in basis)
        tgt = tuple(amap.get(word[-1], (None, None))[1] if word else s for s, word in basis)
        paths_from = {v: [] for v in vertices}
        paths_to = {v: [] for v in vertices}
        suffix, prefix = [], []
        for i, (s, word) in enumerate(basis):
            if s in paths_from:
                paths_from[s].append(i)
            if tgt[i] in paths_to:
                paths_to[tgt[i]].append(i)
            first = amap.get(word[0]) if word else None
            suffix.append(None if first is None else index.get((first[1], word[1:])))
            p = index.get((s, word[:-1])) if word else None
            prefix.append(p if p is not None and p < i else None)
        for name, value in (
                ("_src", src), ("_tgt", tgt),
                ("_vidx", {v: i for i, v in enumerate(vertices)}),
                ("_idem", {s: i for i, (s, word) in enumerate(basis) if not word}),
                ("_amap", amap),
                ("_aidx", {word[0]: i for i, (_, word) in enumerate(basis) if len(word) == 1}),
                ("_suffix", tuple(suffix)), ("_prefix", tuple(prefix)),
                ("_from", {v: tuple(ps) for v, ps in paths_from.items()}),
                ("_to", {v: tuple(ps) for v, ps in paths_to.items()})):
            object.__setattr__(self, name, value)

    # -- verified invariants ---------------------------------------------------

    def _verify(self):
        """Certify that the table is a unital associative algebra in which
        the relations vanish.

        - Every basis path starts at a vertex and its word is made of
          arrows of the quiver, and the vertex idempotents are orthogonal
          idempotents summing to the unit: e_{s(p)} * p = p = p * e_{t(p)},
          and every other e_v kills p on either side.
        - The basis is suffix-closed in the table: every path p of length
          >= 1 is a * p' with a its first arrow and p' a basis path.
        - The table is graded by endpoints: every nonzero product
          b_i * b_j has t(b_i) = s(b_j), and its support (its coefficients
          summed per basis index, as _row_times sums them) lies in the
          paths from s(b_i) to t(b_j).  One pass over the nonzero entries.
        - (a * b_j) * b_k = a * (b_j * b_k) for every arrow a and all j, k
          with s(b_j) = t(a) and s(b_k) = t(b_j).

        Then associativity holds on every generator triple (g, b_j, b_k),
        g a vertex idempotent or an arrow.  Given the idempotent laws, the
        triples (e_v, b_j, b_k) hold for every v exactly when the support
        of b_j * b_k lies in the paths from s(b_j), which the grading says.
        For an arrow a with s(b_j) != t(a) or s(b_k) != t(b_j), both sides
        are 0 by the grading.  Associativity on all triples follows by
        induction on the length of the first factor: for b_i = a * b_i',
        (b_i b_j) b_k = a ((b_i' b_j) b_k) = a (b_i' (b_j b_k)) = b_i (b_j b_k).
        Conversely, associativity and the idempotent laws imply the grading:
        b_i b_j = (b_i e_{t(b_i)}) b_j = b_i (e_{t(b_i)} b_j), and
        e_v (b_i b_j) = (e_v b_i) b_j, (b_i b_j) e_w = b_i (b_j e_w).  So on
        a basis of paths of the quiver this accepts exactly the tables that
        the check of every generator triple accepts.
        """
        fld, mult, basis = self.field, self.mult, self.basis
        one, zero = fld.one(), fld.zero()
        src, tgt, idem, paths_from = self._src, self._tgt, self._idem, self._from
        if any(s not in paths_from or any(a not in self._amap for a in word)
               for s, word in basis):
            raise ConsistencyError("a residue basis path is not a path of the quiver")
        if len(idem) != len(paths_from):
            raise ConsistencyError(
                "vertex idempotents are not orthogonal idempotents summing to 1")
        itself = [((i, one),) for i in range(self.dim)]
        for i in range(self.dim):
            s, t = src[i], tgt[i]
            for v, e in idem.items():
                if (mult[(e, i)] != (itself[i] if v == s else ())
                        or mult[(i, e)] != (itself[i] if v == t else ())):
                    raise ConsistencyError(
                        "vertex idempotents are not orthogonal idempotents summing to 1")
        index = {p: i for i, p in enumerate(basis)}
        arrows = []
        for i, (s, word) in enumerate(basis):
            if not word:
                continue
            a = index.get((s, word[:1]))
            rest = self._suffix[i]
            if a is None or rest is None or mult[(a, rest)] != itself[i]:
                raise ConsistencyError("residue basis is not suffix-closed")
            if len(word) == 1:
                arrows.append(i)
        # the grading, on the nonzero entries only; the support is summed
        # only when a listed index is off the grading
        for (i, j), row in itertools.compress(mult.items(), mult.values()):
            s, t = src[i], tgt[j]
            if tgt[i] == src[j] and all(src[k] == s and tgt[k] == t for k, _ in row):
                continue
            summed = {}
            for k, c in row:
                summed[k] = fld.add(summed.get(k, zero), c)
            support = [k for k, c in summed.items() if c]
            if support and (tgt[i] != src[j]
                            or any(src[k] != s or tgt[k] != t for k in support)):
                raise ConsistencyError("structure constants are not graded by path endpoints")
        # associativity on the arrow triples the grading leaves nonzero
        for a in arrows:
            for j in paths_from[tgt[a]]:
                aj = mult[(a, j)]
                for k in paths_from[tgt[j]]:
                    if (self._row_times(aj, k, right=True)
                            != self._row_times(mult[(j, k)], a, right=False)):
                        raise ConsistencyError("structure constants are not associative")
        # relations evaluate to zero
        for rel in self.relations:
            acc = {}
            for coeff, word in rel.terms:
                c = fld.coerce(coeff)
                for k, x in self.path_in_basis(word):
                    acc[k] = fld.add(acc.get(k, fld.zero()), fld.mul(c, x))
            if any(acc.values()):
                raise ConsistencyError("relation does not vanish in the quotient")

    def _row_times(self, row, k, right: bool) -> tuple:
        """row * basis[k] if right else basis[k] * row, as a sparse row.

        A one-term row c * b_m whose product entry with b_k is 0, or one
        term d * b_t with c * d = d != 0, is that entry itself: the sum
        below would rebuild it.  On a monomial table, where c = d = 1,
        every row of the certificate's arrow triples is such a row.  Any
        other entry (a zero coefficient, a repeated index, a scaled term)
        is summed."""
        fld = self.field
        if len(row) == 1:
            m, c = row[0]
            entry = self.mult[(m, k) if right else (k, m)]
            if not entry:
                return ()
            if len(entry) == 1:
                d = entry[0][1]
                if d and fld.mul(c, d) == d:
                    return entry
        acc = {}
        for m, c in row:
            for t, d in self.mult[(m, k) if right else (k, m)]:
                acc[t] = fld.add(acc.get(t, fld.zero()), fld.mul(c, d))
        return tuple(sorted((t, c) for t, c in acc.items() if c))

    # -- basic queries --------------------------------------------------------

    @property
    def dim(self) -> int:
        return len(self.basis)

    @property
    def vertices(self):
        return self.quiver.vertices

    def vertex_index(self, v) -> int:
        try:
            return self._vidx[v]
        except KeyError:
            raise InputError(f"unknown vertex {v!r}") from None

    def vertex_idempotent(self, v) -> int:
        """Basis index of e_v."""
        try:
            return self._idem[v]
        except KeyError:
            raise InputError(f"unknown vertex {v!r}") from None

    def arrow_endpoints(self, name):
        try:
            return self._amap[name]
        except KeyError:
            raise InputError(f"unknown arrow {name!r}") from None

    def path_source(self, i: int):
        return self._src[i]

    def path_target(self, i: int):
        return self._tgt[i]

    def path_in_basis(self, word) -> tuple:
        """Sparse row of the residue class of an arrow word (length >= 1)."""
        src = self.arrow_endpoints(word[0])[0]
        row = ((self.vertex_idempotent(src), self.field.one()),)
        for a in word:
            row = self._row_times(row, self.basis_index_of_arrow(a), right=True)
        return row

    def suffix_index(self, i: int):
        """Basis index of p' for basis path i = a * p' of length >= 1 (None
        when p' is not a basis path, which _verify rejects)."""
        return self._suffix[i]

    def basis_index_of_arrow(self, name) -> int:
        try:
            return self._aidx[name]
        except KeyError:
            # relation terms have length >= 2, so every arrow is a basis path
            raise InputError(f"arrow {name!r} is not a residue basis element") from None

    def unit(self) -> tuple:
        """Sparse row of the unit, the sum of the vertex idempotents."""
        one = self.field.one()
        return tuple(sorted((self.vertex_idempotent(v), one) for v in self.vertices))

    def dense_row(self, row) -> tuple:
        """The coefficient tuple of a sparse row, for a Matrix row."""
        out = [self.field.zero()] * self.dim
        for k, c in row:
            out[k] = c
        return tuple(out)

    # -- derived data: paths grouped by endpoints ------------------------------

    def paths_from(self, v) -> tuple:
        """Basis indices of paths starting at v, in basis order."""
        try:
            return self._from[v]
        except KeyError:
            raise InputError(f"unknown vertex {v!r}") from None

    def paths_to(self, v) -> tuple:
        try:
            return self._to[v]
        except KeyError:
            raise InputError(f"unknown vertex {v!r}") from None

    def __repr__(self):
        return (f"Algebra(dim={self.dim}, vertices={list(self.vertices)}, "
                f"arrows={[a[0] for a in self.quiver.arrows]}, field={self.field})")


# -- the standard modules -----------------------------------------------------


def projective(alg: Algebra, v) -> "Representation":
    """P_v = e_v * A: the basis paths starting at v, grouped by where they
    end, arrows acting by right multiplication (``modules.proj_sum``)."""
    from .modules import proj_sum
    return proj_sum(alg, (v,))


def injective(alg: Algebra, v) -> "Representation":
    """I_v = D(A * e_v): the dual basis of the paths ending at v, grouped by
    where they start (one pass over ``paths_to(v)``, each group in basis
    order).  An arrow a: s -> t acts as the transpose of left
    multiplication p -> a * p from the paths starting at t to those
    starting at s."""
    from .modules import Representation
    fld = alg.field
    zero = fld.zero()
    by_source = {w: [] for w in alg.vertices}
    for i in alg.paths_to(v):
        by_source[alg._src[i]].append(i)
    mats = {}
    for name, s, t in alg.quiver.arrows:
        a = alg.basis_index_of_arrow(name)
        products = [dict(alg.mult[(a, p)]) for p in by_source[t]]
        mats[name] = Matrix(fld, len(by_source[s]), len(by_source[t]),
                            tuple(tuple(ap.get(k, zero) for ap in products)
                                  for k in by_source[s]))
    # the dual of a left module of the verified algebra: valid by construction
    return Representation._trusted(alg, {w: len(by_source[w]) for w in alg.vertices}, mats)


def simple(alg: Algebra, v) -> "Representation":
    from .modules import Representation
    alg.vertex_index(v)
    dims = {w: (1 if w == v else 0) for w in alg.vertices}
    mats = {}
    for name, s, t in alg.quiver.arrows:
        mats[name] = Matrix.zeros(alg.field, dims[s], dims[t])
    return Representation._trusted(alg, dims, mats)


def zero_module(alg: Algebra) -> "Representation":
    """The zero module, memoized in the algebra's cache as the regular
    module is: every caller gets the same object."""
    from .modules import Representation
    return _memo(alg, "zero", lambda: Representation._trusted(
        alg, {w: 0 for w in alg.vertices},
        {name: Matrix.zeros(alg.field, 0, 0) for name, _, _ in alg.quiver.arrows}))


def regular_module(alg: Algebra) -> "Representation":
    """The algebra as a right module over itself: the ``direct_sum`` of the
    P_v in vertex order, on the basis of ``proj_sum_layout(alg, alg.vertices)``.
    Memoized in the algebra's cache: every caller gets the same parts P_v."""
    from .modules import direct_sum
    return _memo(alg, "regular", lambda: direct_sum([projective(alg, v) for v in alg.vertices]))


def opposite_algebra(alg: Algebra) -> Algebra:
    """Arrows reversed, relation words reversed; basis paths are the
    reverses of the original basis paths and the multiplication table is the
    transpose of the original one."""
    q = alg.quiver
    amap = q.arrow_map()
    op_q = Quiver(q.vertices, tuple((name, t, s) for name, s, t in q.arrows))
    op_rels = tuple(RelationPoly(tuple((c, tuple(reversed(word))) for c, word in r.terms))
                    for r in alg.relations)

    def rev_path(p):
        src, word = p
        if not word:
            return p
        end = amap[word[-1]][1]
        return (end, tuple(reversed(word)))

    basis = tuple(rev_path(p) for p in alg.basis)
    mult = {(j, i): row for (i, j), row in alg.mult.items()}
    # the transpose of a verified table is associative and unital, its
    # vertex idempotents stay orthogonal and the reversed relations vanish
    return Algebra(op_q, op_rels, alg.field, basis, mult, alg.max_path_len)
