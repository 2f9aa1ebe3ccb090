"""Finitely presented monoids: rewriting chains, a bounded word problem,
the cycle-free presentation check, and an exact normal-form engine for the
built-in "ladder" family.

Generator words are tuples of generator names; the rewriting search encodes
them as strings of one character per letter and decodes its results.  Three
families ship built in:

  sandwich-power(n): <x, y | x^n = y * x^n * y>
  sandwich-xyx:      <x, y | x*y*x = y * x*y*x * y>
  ladder:            <w, x, y, z | x*y^k*z = y * x*y^(k+1)*z * w  for k >= 0>

The ladder family admits a confluent contraction y x y^m z w -> x y^(m-1) z
whose normal forms are unique, so its word problem is decided exactly; the
family's relation list is materialized up to a rung cutoff for generic
rewriting-based searches.
"""

from __future__ import annotations

import re
from enum import Enum
from functools import lru_cache
from itertools import islice
from math import gcd, lcm
from random import Random
from typing import NamedTuple

from .errors import AlphabetMismatch, EmptyRelationSide, ParseError

GenWord = tuple[str, ...]

DEFAULT_SEARCH_BUDGET = 20_000
DEFAULT_LADDER_RUNGS = 12


# -- word literals -----------------------------------------------------------
#
# Letters are symbol names joined by "*"; "e" denotes the empty word.

EMPTY_LITERAL = "e"


def parse_word_text(text: str) -> tuple[str, ...]:
    text = text.strip()
    if text == EMPTY_LITERAL:
        return ()
    if not text:
        raise ValueError("empty word literal; use 'e' for the empty word")
    parts = tuple(p.strip() for p in text.split("*"))
    if any(not p for p in parts):
        raise ValueError(f"malformed word literal {text!r}")
    return parts


def _letter_fault(name: str) -> str | None:
    """Why a word literal cannot spell name as one letter, or None."""
    if name == EMPTY_LITERAL:
        return "reserved for the empty word"
    if not name or "*" in name or name != name.strip():
        return "not a letter of a word literal (empty, holding '*' or padded by spaces)"


def format_word_text(symbols) -> str:
    # no letter is empty (_letter_fault), so only the empty word joins to ""
    return "*".join(symbols) or EMPTY_LITERAL


class Presentation:
    """Generators and relations, equal and hashed by value (see conserved_functionals).

    Construction encodes each relation's sides once, left then right, which
    validates them, and keeps the encoded rewrite rules: each relation
    forwards, then backwards."""

    def __init__(self, generators, relations, family: str = "", family_param: int = 0):
        self.generators: tuple[str, ...] = generators
        self.relations: tuple[tuple[GenWord, GenWord], ...] = relations
        self.family = family
        self.family_param = family_param
        if len(set(generators)) != len(generators):
            raise ParseError("duplicate generator")
        for g in generators:
            fault = _letter_fault(g)
            if fault is not None:
                raise ParseError(f"{g!r} is {fault}")
        self._code = {g: chr(i) for i, g in enumerate(generators)}
        sides = [(self.encode(lhs), self.encode(rhs)) for lhs, rhs in relations]
        self.rules = tuple(rule for a, b in sides for rule in ((a, b), (b, a)))

    def _key(self) -> tuple:
        return self.generators, self.relations, self.family, self.family_param

    def __eq__(self, other):
        return self._key() == other._key() if type(other) is Presentation else NotImplemented

    def __hash__(self) -> int:
        return hash(self._key())

    def encode(self, word) -> str:
        """The word as a string holding chr(i) for its i-th generator."""
        try:
            return "".join(map(self._code.__getitem__, word))
        except KeyError as exc:
            raise AlphabetMismatch(f"undeclared generator {exc.args[0]!r}") from None

    def decode(self, s: str) -> GenWord:
        return tuple(map(self.generators.__getitem__, map(ord, s)))


def parse_presentation(text: str) -> Presentation:
    """Parse `gens: x y; rel: x*x = y*x*x*y; rel: ...` (words are *-joined
    symbols, `e` is the empty word)."""
    generators: tuple[str, ...] | None = None
    relations: list[tuple[GenWord, GenWord]] = []
    clauses = [c.strip() for c in text.split(";")]
    for k, clause in enumerate(clauses):
        where = f"clause {k + 1}"
        if not clause:
            continue
        if clause.startswith("gens:"):
            if generators is not None:
                raise ParseError("second gens clause", where)
            generators = tuple(clause[len("gens:") :].split())
            if not generators:
                raise ParseError("gens clause declares nothing", where)
        elif clause.startswith("rel:"):
            if generators is None:
                raise ParseError("rel before gens", where)
            body = clause[len("rel:") :]
            sides = body.split("=")
            if len(sides) != 2:
                raise ParseError("relation needs exactly one '='", where)
            try:
                lhs = parse_word_text(sides[0])
                rhs = parse_word_text(sides[1])
            except ValueError as exc:
                raise ParseError(str(exc), where) from None
            relations.append((lhs, rhs))
        else:
            raise ParseError(f"expected 'gens:' or 'rel:', got {clause!r}", where)
    if generators is None:
        raise ParseError("no gens clause")
    return Presentation(generators, tuple(relations))


# -- built-in families --------------------------------------------------------


def sandwich_power(n: int) -> Presentation:
    """<x, y | x^n = y * x^n * y>."""
    if n < 1:
        raise ValueError("n must be >= 1")
    core = ("x",) * n
    return Presentation(
        ("x", "y"),
        ((core, ("y",) + core + ("y",)),),
        family="sandwich-power",
        family_param=n,
    )


def sandwich_xyx() -> Presentation:
    """<x, y | x*y*x = y * x*y*x * y>."""
    core = ("x", "y", "x")
    return Presentation(
        ("x", "y"), ((core, ("y",) + core + ("y",)),), family="sandwich-xyx"
    )


def ladder_presentation(rungs: int = DEFAULT_LADDER_RUNGS) -> Presentation:
    """The four-generator family with one relation per rung k <= rungs."""
    if rungs < 0:
        raise ValueError("rungs must be >= 0")
    rels = []
    for k in range(rungs + 1):
        lhs = ("x",) + ("y",) * k + ("z",)
        rhs = ("y", "x") + ("y",) * (k + 1) + ("z", "w")
        rels.append((lhs, rhs))
    return Presentation(
        ("w", "x", "y", "z"), tuple(rels), family="ladder", family_param=rungs
    )


FAMILY_BUILDERS = {
    "sandwich-power": sandwich_power,
    "sandwich-xyx": sandwich_xyx,
    "ladder": ladder_presentation,
}


def _generators_proven_atoms(P: Presentation) -> bool:
    return P.family in ("ladder", "sandwich-xyx") or (
        P.family == "sandwich-power" and P.family_param >= 2
    )


# -- left/right graphs and the cycle-free check -------------------------------


class AdianCheck(NamedTuple):
    left_graph: tuple[tuple[str, str], ...]
    right_graph: tuple[tuple[str, str], ...]
    is_adian: bool


def _is_forest(vertices, edges) -> bool:
    parent = {v: v for v in vertices}

    def find(v):
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    for a, b in edges:
        if a == b:
            return False
        ra, rb = find(a), find(b)
        if ra == rb:
            return False
        parent[ra] = rb
    return True


def adian_check(P: Presentation) -> AdianCheck:
    """Left/right multigraphs on the generators (one edge per relation, taken
    from the outermost letters); the presentation qualifies iff both graphs
    are cycle-free, loops and parallel edges included."""
    for lhs, rhs in P.relations:
        if not lhs or not rhs:
            raise EmptyRelationSide("relations with an empty side have no graphs")
    left = tuple((lhs[0], rhs[0]) for lhs, rhs in P.relations)
    right = tuple((lhs[-1], rhs[-1]) for lhs, rhs in P.relations)
    ok = _is_forest(P.generators, left) and _is_forest(P.generators, right)
    return AdianCheck(left, right, ok)


# -- conserved letter-count functionals ----------------------------------------


def letter_counts(P: Presentation, word: GenWord) -> tuple[int, ...]:
    return tuple(word.count(g) for g in P.generators)


def _count_differences(P: Presentation) -> list[list[int]]:
    """Each relation's letter counts, left side less right side."""
    return [
        [a - b for a, b in zip(letter_counts(P, lhs), letter_counts(P, rhs))]
        for lhs, rhs in P.relations
    ]


@lru_cache(maxsize=64)
def conserved_functionals(P: Presentation) -> tuple[tuple[int, ...], ...]:
    """Integer basis of the linear letter-count functionals that every
    defining relation preserves.  Cached by value: each request builds its
    own, equal, family presentation."""
    width = len(P.generators)
    rows = _count_differences(P)
    # Gauss-Jordan over the integers; each cleared row is divided by the gcd of its entries.
    pivots: list[int] = []
    r = 0
    for c in range(width):
        pr = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        pv = rows[r][c]
        for i, row in enumerate(rows):
            f = row[c]
            if i != r and f:
                row = [pv * a - f * b for a, b in zip(row, rows[r])]
                g = gcd(*row) or 1
                rows[i] = [v // g for v in row]
        pivots.append(c)
        r += 1
    # Per free column, its rational null vector times the lcm of the pivots, made primitive.
    heads = [rows[k][c] for k, c in enumerate(pivots)]
    scale = lcm(*heads)
    basis = []
    pivot_set = set(pivots)
    for fc in (c for c in range(width) if c not in pivot_set):
        vec = [0] * width
        vec[fc] = scale
        for k, pc in enumerate(pivots):
            vec[pc] = -rows[k][fc] * (scale // heads[k])
        g = gcd(*vec)  # >= 1: vec[fc] is scale
        if next(v for v in vec if v) < 0:
            g = -g
        basis.append(tuple(v // g for v in vec))
    return tuple(basis)


@lru_cache(maxsize=64)
def _difference_lattice(P: Presentation) -> tuple[tuple[int, tuple[int, ...]], ...]:
    """Echelon basis of the lattice spanned by the relations' letter-count
    differences, as (pivot column, row) pairs with a positive pivot, in
    increasing pivot order.  Only unimodular row operations (Euclid on each
    pivot column) are used, so the rows span that lattice over the integers.
    Cached by value, as conserved_functionals is."""
    rows = _count_differences(P)
    basis = []
    for c in range(len(P.generators)):
        live = [row for row in rows if row[c]]
        rows = [row for row in rows if not row[c]]
        while len(live) > 1:
            head = min(live, key=lambda row: abs(row[c]))
            live = [
                row if row is head else [a - row[c] // head[c] * b for a, b in zip(row, head)]
                for row in live
            ]
            rows += [row for row in live if not row[c]]
            live = [row for row in live if row[c]]
        if live:
            sign = 1 if live[0][c] > 0 else -1
            basis.append((c, tuple(sign * a for a in live[0])))
    return tuple(basis)


def _in_difference_lattice(P: Presentation, delta) -> bool:
    """Whether the letter-count vector delta is an integer combination of the
    relations' letter-count differences: reduced by the echelon rows in
    pivot order, it leaves no remainder."""
    for c, row in _difference_lattice(P):
        q = delta[c] // row[c]
        delta = [a - q * b for a, b in zip(delta, row)]
    return not any(delta)


# -- bounded word problem -------------------------------------------------------


class CongruenceStatus(Enum):
    EQUIVALENT = "equivalent"
    REFUTED = "refuted"
    UNKNOWN = "unknown"


class CongruenceResult(NamedTuple):
    status: CongruenceStatus
    chain: tuple[GenWord, ...] | None = None
    functional: tuple[int, ...] | None = None


def _grow(frontier, rules, seen, other=()):
    """Expand the words of frontier in order, rule by rule, then position by
    position, overlaps included.  Map each new word to its parent in seen and
    return the new words in order found, up to the first one that other holds."""
    fresh = []
    for s in frontier:
        for a, b in rules:
            la = len(a)
            i = s.find(a)
            while i >= 0:
                nxt = s[:i] + b + s[i + la :]
                if nxt not in seen:
                    seen[nxt] = s
                    fresh.append(nxt)
                    if nxt in other:
                        return fresh
                i = s.find(a, i + 1)
    return fresh


def _path(parents, w) -> list[str]:
    """w and its parents back to the root of the search."""
    path = []
    while w is not None:
        path.append(w)
        w = parents[w]
    return path


def congruent_bounded(
    P: Presentation, u, v, budget: int = DEFAULT_SEARCH_BUDGET
) -> CongruenceResult:
    """Bidirectional breadth-first search over single-relation rewrites, with
    a definite NO from any conserved letter-count functional separating u and
    v; otherwise unknown once the expansion budget runs out.  On success the
    rewriting chain from u to v is returned.

    Each rewrite moves the letter counts by one relation difference, so a
    pair whose count difference lies outside the lattice those differences
    span has no chain: it is answered unknown at once, as the search would
    answer it at every budget.  It is not refuted, because a report has no
    key yet for the modulus that such a refutation needs."""
    if budget < 0:
        raise ValueError("budget must be >= 0")
    u, v = tuple(u), tuple(v)
    su, sv = P.encode(u), P.encode(v)
    cu, cv = letter_counts(P, u), letter_counts(P, v)
    for f in conserved_functionals(P):
        if sum(a * b for a, b in zip(f, cu)) != sum(a * b for a, b in zip(f, cv)):
            return CongruenceResult(CongruenceStatus.REFUTED, functional=f)
    if u == v:
        return CongruenceResult(CongruenceStatus.EQUIVALENT, chain=(u,))
    if not _in_difference_lattice(P, [a - b for a, b in zip(cu, cv)]):
        return CongruenceResult(CongruenceStatus.UNKNOWN)

    parents: list[dict[str, str | None]] = [{su: None}, {sv: None}]
    frontiers = [[su], [sv]]
    room = budget
    while frontiers[0] and frontiers[1]:
        side = 0 if len(frontiers[0]) <= len(frontiers[1]) else 1
        layer, other = frontiers[side], parents[1 - side]
        fresh = _grow(layer[:room], P.rules, parents[side], other)
        if fresh and fresh[-1] in other:
            # the last word is in both parent maps: walk back to both roots
            path = _path(parents[0], fresh[-1])[::-1] + _path(parents[1], fresh[-1])[1:]
            return CongruenceResult(CongruenceStatus.EQUIVALENT, tuple(map(P.decode, path)))
        if len(layer) > room:
            break
        room -= len(layer)
        frontiers[side] = fresh
    return CongruenceResult(CongruenceStatus.UNKNOWN)


# -- the ladder engine -----------------------------------------------------------
#
# The engine works on words joined into one string; normal_form and psi check
# the alphabet once, on entry.

LADDER_ALPHABET = ("w", "x", "y", "z")

_FACTOR = re.compile(r"xy*z")
_CONTRACT = re.compile(r"yxy+zw")


def _ladder_str(word) -> str:
    word = tuple(word)
    for g in word:
        if g not in LADDER_ALPHABET:
            raise AlphabetMismatch(f"letter {g!r} outside alphabet w,x,y,z")
    return "".join(word)


def psi(word) -> int:
    """Count the disjoint x y^s z factors (left-to-right matching is exact:
    distinct factor occurrences can never overlap)."""
    return len(_FACTOR.findall(_ladder_str(word)))


def _contract(s: str, i: int, j: int) -> str:
    """Replace the occurrence y x y^m z w at s[i:j] by x y^(m-1) z."""
    return s[:i] + "x" + "y" * (j - i - 5) + "z" + s[j:]


def _normal_form(s: str) -> str:
    m = _CONTRACT.search(s)
    while m is not None:
        start = m.start()
        s = _contract(s, start, m.end())
        # The text written at start begins with x, and the pattern has its
        # only x at offset 1, so a new occurrence starts at start - 1 or
        # later; the prefix before it still has none.
        m = _CONTRACT.search(s, max(start - 1, 0))
    return s


def normal_form(word) -> GenWord:
    """Contract y x y^m z w -> x y^(m-1) z at the leftmost position until no
    occurrence remains; the result is the unique normal form of the word's
    congruence class and the map is idempotent."""
    return tuple(_normal_form(_ladder_str(word)))


# The draws below take the bits of Random.getrandbits exactly as CPython's
# Random.choice and Random.randint do, so they give the same words and leave
# the generator in the same state at a fraction of the cost;
# tests/test_presentations.py pins this on the running interpreter.
#
# Both draw from range(n) as _randbelow does.  For k <= 32, getrandbits(k) is
# the top k bits of one 32-bit Mersenne Twister output, so choice over the
# four letters takes getrandbits(3) per output and keeps it while it is below
# 4: the output's top bit is 0, and its next two bits index LADDER_ALPHABET.
# For k > 32, getrandbits fills the integer with successive outputs from its
# low end, so byte 4i + 3 of getrandbits(32 * m).to_bytes(4 * m, "little") is
# the top byte of output i: below 128 it is the letter LADDER_ALPHABET[byte
# >> 5], from 128 on a rejected draw.  A batch of as many outputs as letters
# are still missing never takes one that the letter-by-letter loop would not.


def _randbelow(getrandbits, n: int) -> int:
    """A uniform draw from range(n), n >= 1: n.bit_length() bits, redrawn
    while they are n or more.  Random._randbelow does the same but looks up
    self.getrandbits on every call, which makes a draw about 1.7x slower."""
    k = n.bit_length()
    r = getrandbits(k)
    while r >= n:
        r = getrandbits(k)
    return r


_TOP_BYTE_LETTER = bytes(ord(LADDER_ALPHABET[b >> 5]) for b in range(128)) + bytes(128)
_REJECTED_TOP_BYTES = bytes(range(128, 256))
# Longer words draw in batches; shorter ones are faster one output at a time.
_BATCH_LETTERS = 32


def _random_ladder_word(getrandbits, max_len: int) -> str:
    # the length is _randbelow(getrandbits, max_len + 1), without the call
    k = (max_len + 1).bit_length()
    n = getrandbits(k)
    while n > max_len:
        n = getrandbits(k)
    if n > _BATCH_LETTERS:
        parts = []
        while n:
            top = getrandbits(32 * n).to_bytes(4 * n, "little")[3::4]
            part = top.translate(_TOP_BYTE_LETTER, _REJECTED_TOP_BYTES)
            parts.append(part)
            n -= len(part)
        return b"".join(parts).decode("ascii")
    word = ""
    while n:
        r = getrandbits(3)
        if r < 4:
            word += LADDER_ALPHABET[r]
            n -= 1
    return word


def _random_congruent(getrandbits, s: str, steps: int) -> str:
    """steps random expansions x y^k z -> y x y^(k+1) z w or contractions,
    each drawn uniformly over every occurrence, factors first.

    Every contraction occurrence y x y^m z w holds the factor x y^m z, so a
    word in which one search finds no factor has no move, and is returned
    without a draw.  A step always leaves a factor (the x y^(k+1) z of an
    expansion, the x y^(m-1) z a contraction writes), so no later step can
    find none."""
    if _FACTOR.search(s) is None:
        return s
    for _ in range(steps):
        factors = len(_FACTOR.findall(s))
        k = _randbelow(getrandbits, factors + len(_CONTRACT.findall(s)))
        if k < factors:
            i, j = next(islice(_FACTOR.finditer(s), k, None)).span()
            s = s[:i] + "yx" + "y" * (j - i - 1) + "zw" + s[j:]
        else:
            i, j = next(islice(_CONTRACT.finditer(s), k - factors, None)).span()
            s = _contract(s, i, j)
    return s


def _random_order_normal_form(getrandbits, s: str) -> str:
    """Contract an occurrence drawn uniformly until none is left."""
    m = _CONTRACT.search(s)
    while m is not None:
        first = m.start()
        # Occurrences cannot overlap: each has one x, at offset 1.
        ms = [m, *_CONTRACT.finditer(s, m.end())]
        m = ms[_randbelow(getrandbits, len(ms))]
        s = _contract(s, m.start(), m.end())
        # Only the contracted text and the letter before it changed, so no
        # occurrence starts before the old leftmost one, less one.
        m = _CONTRACT.search(s, max(first - 1, 0))
    return s


class LadderVerification(NamedTuple):
    samples: int
    cancellation_hits: int
    cancellation_failures: int
    acyclicity_hits: int
    acyclicity_failures: int
    confluence_failures: int
    psi_pairs_checked: int
    psi_failures: int

    @property
    def ok(self) -> bool:
        return (
            self.cancellation_failures
            == self.acyclicity_failures
            == self.confluence_failures
            == self.psi_failures
            == 0
        )


def verify_ladder_properties(
    samples: int, max_len: int, seed: int = 0
) -> LadderVerification:
    """Randomized smoke test of the ladder engine.

    Cancellation: whenever nf(z*u) == nf(z*v) (or on the right), nf(u) must
    equal nf(v).  Acyclicity: nf(u*z*v) == nf(z) forces u = v = empty.
    Confluence: contracting in random order must land on the same normal
    form.  Congruent pairs are manufactured by random rewriting so the
    premises actually fire.  Psi invariance: max(samples // 10, 1) further
    congruent pairs, drawn from a fresh Random(seed), must have equal psi.

    A sample normalizes no word whose answer its draws already decide: v == u
    holds both cancellation sides, empty a and b make u*z*v the word z, a
    probe no rewrite changed reuses nf(z*u); the psi pass skips v == u.
    """
    if samples < 0:
        raise ValueError("samples must be >= 0")
    if max_len < 0:
        raise ValueError("max_len must be >= 0")
    rng = Random(seed)
    bits = rng.getrandbits
    nf = _normal_form
    word = _random_ladder_word
    congruent = _random_congruent
    canc_hits = canc_fail = 0
    acyc_hits = acyc_fail = 0
    conf_fail = 0
    for _ in range(samples):
        z = word(bits, max_len)
        u = word(bits, max_len)
        if rng.random() < 0.5:
            # each step count is _randbelow(bits, 3): two bits, redrawn at 3
            steps = bits(2)
            while steps == 3:
                steps = bits(2)
            v = congruent(bits, u, 1 + steps)
        else:
            v = word(bits, max_len)

        zu = z + u
        if u == v:
            canc_hits += 2
            nzu = None
        else:
            nzu = nf(zu)
            sides = (nzu == nf(z + v)) + (nf(u + z) == nf(v + z))
            if sides:
                canc_hits += sides
                if nf(u) != nf(v):
                    canc_fail += sides

        a = u if rng.random() < 0.5 else ""
        b = v if rng.random() < 0.5 else ""
        if not (a or b):
            acyc_hits += 1
        elif nf(a + z + b) == nf(z):
            acyc_hits += 1
            acyc_fail += 1

        steps = bits(2)
        while steps == 3:
            steps = bits(2)
        probe = congruent(bits, zu, steps)
        nprobe = nzu if probe == zu and nzu is not None else nf(probe)
        if _random_order_normal_form(bits, probe) != nprobe:
            conf_fail += 1

    bits = Random(seed).getrandbits
    pairs = max(samples // 10, 1)
    psi_fail = 0
    for _ in range(pairs):
        u = word(bits, max_len)
        v = congruent(bits, u, 1 + _randbelow(bits, 4))
        if v != u and len(_FACTOR.findall(u)) != len(_FACTOR.findall(v)):
            psi_fail += 1
    return LadderVerification(
        samples, canc_hits, canc_fail, acyc_hits, acyc_fail, conf_fail, pairs, psi_fail
    )


# -- bounded length sets -----------------------------------------------------------


class LengthProbe(NamedTuple):
    """Lengths of generator words congruent to a target, up to a horizon.

    A verified lower bound of the true length set unless complete is set;
    generators_proven_atoms records whether the generator letters are known
    atoms (true for the built-in families where that holds), i.e. whether
    these are honest factorization lengths.
    """

    lengths: tuple[int, ...]
    complete: bool
    generators_proven_atoms: bool


def bounded_length_set(
    P: Presentation, target, max_len: int, budget: int = DEFAULT_SEARCH_BUDGET
) -> LengthProbe:
    """Lengths l <= max_len of generator words congruent to the target.

    The ladder family is decided exactly through its normal form: the
    congruence class of a word with ell >= 1 blocks realizes exactly the
    lengths |nf| + 3k, and is a singleton otherwise.  Other presentations are
    explored by breadth-first rewriting under the budget.
    """
    if budget < 0:
        raise ValueError("budget must be >= 0")
    start = P.encode(target)
    if P.family == "ladder":
        nf = normal_form(P.decode(start))
        if psi(nf):
            return LengthProbe(tuple(range(len(nf), max_len + 1, 3)), True, True)
        return LengthProbe((len(nf),) if len(nf) <= max_len else (), True, True)

    # a word longer than cap cannot rewrite back to max_len in one step
    cap = max_len + max((abs(len(l) - len(r)) for l, r in P.relations), default=0)
    seen = {start: None}
    frontier = [start]
    lengths = {len(start)} if len(start) <= max_len else set()
    complete = True
    room = budget
    while frontier:
        fresh = _grow(frontier[:room], P.rules, seen)
        lengths.update(len(w) for w in fresh if len(w) <= max_len)
        if len(frontier) > room:
            complete = False
            break
        room -= len(frontier)
        frontier = [w for w in fresh if len(w) <= cap]
        complete &= len(frontier) == len(fresh)
    return LengthProbe(tuple(sorted(lengths)), complete, _generators_proven_atoms(P))
