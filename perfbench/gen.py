"""Seeded request generator for the factorbench benchmark.

This module imports nothing from factorbench: every input, and every fact the
checker later compares a report against, is built here from first principles
(Cayley tables, transformation closures, power sets, rewriting systems).

A workload is an endless sequence of rounds.  Each round holds the same
fixed mix of request kinds, with parameters drawn from the seed inside
ranges narrow enough that a kind's cost barely depends on the draw.  Every
run therefore sees the same mix, and the run-to-run spread comes from the
draws inside each kind, not from how many slow kinds a seed happened to
pick.  Every table is relabelled by a seeded permutation of its non-identity
elements, so no table repeats within a run and the place where a witness
scan stops early varies.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from itertools import product

# -- requests ----------------------------------------------------------------

IN = "{in}"  # argv placeholder for the path of the request's input file


@dataclass
class Request:
    """One CLI request: its argv, the text of its --in file (if any), and the
    facts the checker needs to judge the report."""

    kind: str
    argv: list[str]
    infile: str | None = None
    expect: dict = field(default_factory=dict)


# -- finite monoids as (table, names) ------------------------------------------
#
# Element 0 is the identity and table[x][y] is x*y, as in the Cayley file
# format.  Names never contain '*', ',', '{' or '}', so words over them and
# power-set names stay unambiguous.


@dataclass
class Table:
    table: list[list[int]]
    names: list[str]

    @property
    def n(self) -> int:
        return len(self.table)

    def to_json(self) -> str:
        return json.dumps({"names": self.names, "table": self.table}, sort_keys=True)


def cyclic(m: int) -> Table:
    names = ["1"] + [f"g{i}" for i in range(1, m)]
    return Table([[(i + j) % m for j in range(m)] for i in range(m)], names)


def null(k: int) -> Table:
    """Identity, k generators, and an absorbing zero (index k + 1)."""
    n = k + 2
    table = [[n - 1] * n for _ in range(n)]
    for i in range(n):
        table[0][i] = table[i][0] = i
    return Table(table, ["1"] + [f"a{i}" for i in range(1, k + 1)] + ["0"])


def two_zero() -> Table:
    return Table([[0, 1], [1, 1]], ["1", "0"])


def chain(n: int) -> Table:
    """The semilattice 1 > c1 > ... > c(n-1) under max of indices."""
    return Table([[max(i, j) for j in range(n)] for i in range(n)],
                 ["1"] + [f"c{i}" for i in range(1, n)])


def gl23() -> Table:
    """GL(2, 3): invertible 2x2 matrices over Z/3, identity first."""
    mats = []
    for a, b, c, d in product(range(3), repeat=4):
        if (a * d - b * c) % 3:
            mats.append((a, b, c, d))
    mats.remove((1, 0, 0, 1))
    mats.insert(0, (1, 0, 0, 1))
    pos = {m: i for i, m in enumerate(mats)}

    def mul(p, q):
        a, b, c, d = p
        e, f, g, h = q
        return ((a * e + b * g) % 3, (a * f + b * h) % 3,
                (c * e + d * g) % 3, (c * f + d * h) % 3)

    table = [[pos[mul(p, q)] for q in mats] for p in mats]
    names = ["1"] + ["m" + "".join(map(str, m)) for m in mats[1:]]
    return Table(table, names)


def product_of(A: Table, B: Table) -> Table:
    m = B.n
    table = [
        [A.table[i1][i2] * m + B.table[j1][j2] for i2 in range(A.n) for j2 in range(m)]
        for i1 in range(A.n)
        for j1 in range(m)
    ]
    names = [f"({a}.{b})" for a in A.names for b in B.names]
    names[0] = "1"
    return Table(table, names)


def transformation_closure(gens, points: int, cap: int | None = None,
                           max_atoms: int | None = None) -> Table | None:
    """The monoid generated by non-permutation maps on range(points),
    composed as (f*g)(p) = f(g(p)), listed in breadth-first discovery order;
    None once it grows past `cap` elements or has more than `max_atoms`
    atoms.  The identity is its only unit, so its atoms are the generators
    that are no product f*g of a non-identity element f and a generator g."""
    ident = tuple(range(points))
    elems = [ident]
    seen = {ident}
    products = set()
    i = 0
    while i < len(elems):
        f = elems[i]
        i += 1
        for g in gens:
            h = tuple([f[x] for x in g])
            if i > 1:
                products.add(h)
            if h not in seen:
                seen.add(h)
                elems.append(h)
        if cap is not None and len(elems) > cap:
            return None
    if max_atoms is not None and len(set(gens) - products) > max_atoms:
        return None
    pos = {f: i for i, f in enumerate(elems)}
    table = [[pos[tuple([f[x] for x in g])] for g in elems] for f in elems]
    names = ["1"] + ["t" + "".join(map(str, f)) for f in elems[1:]]
    return Table(table, names)


def power_names(K: Table) -> list[str]:
    """Names of the identity-containing subsets of K in bitmask order, as
    `powerset` lists them."""
    out = []
    for mask in range(1, 1 << K.n, 2):
        out.append("{" + ",".join(K.names[i] for i in range(K.n) if mask >> i & 1) + "}")
    return out


def power_monoid(K: Table) -> Table:
    """Identity-containing subsets of K under setwise product."""
    masks = list(range(1, 1 << K.n, 2))
    pos = {m: i for i, m in enumerate(masks)}
    members = [[i for i in range(K.n) if m >> i & 1] for m in masks]
    table = []
    for A in members:
        row = []
        for B in members:
            out = 0
            for x in A:
                tx = K.table[x]
                for y in B:
                    out |= 1 << tx[y]
            row.append(pos[out])
        table.append(row)
    return Table(table, power_names(K))


def relabel(T: Table, rng: random.Random) -> Table:
    """Apply a seeded permutation of the non-identity elements."""
    rest = list(range(1, T.n))
    rng.shuffle(rest)
    new = [0] + rest  # new[old] = new index of old element
    table = [[0] * T.n for _ in range(T.n)]
    names = [""] * T.n
    for x in range(T.n):
        names[new[x]] = T.names[x]
        row = T.table[x]
        out = table[new[x]]
        for y in range(T.n):
            out[new[y]] = new[row[y]]
    return Table(table, names)


def random_transformation_monoid(rng: random.Random, points, lo: int, hi: int,
                                 max_atoms: int | None = None) -> Table:
    """A monoid generated by 2-3 random non-permutation maps, redrawn until
    its order lies in [lo, hi] and it has at most `max_atoms` atoms (input
    properties being drawn, not costs)."""
    while True:
        p = rng.choice(points)
        gens = []
        count = rng.choice((2, 3))
        while len(gens) < count:
            f = tuple(rng.randrange(p) for _ in range(p))
            if len(set(f)) < p:
                gens.append(f)
        T = transformation_closure(gens, p, cap=hi, max_atoms=max_atoms)
        if T is not None and T.n >= lo:
            return T


# -- presentations ------------------------------------------------------------
#
# Words are tuples of generator names; the CLI spells them '*'-joined, with
# 'e' for the empty word.

LADDER_RUNGS = 12  # the rung cutoff the CLI materializes for `--family ladder`


def word_text(w) -> str:
    return "*".join(w) if w else "e"


def family_relations(family: str, n: int = 0):
    if family == "sandwich-power":
        core = ("x",) * n
        return ("x", "y"), [(core, ("y",) + core + ("y",))]
    if family == "sandwich-xyx":
        return ("x", "y"), [(("x", "y", "x"), ("y", "x", "y", "x", "y"))]
    if family == "ladder":
        rels = [(("x",) + ("y",) * k + ("z",), ("y", "x") + ("y",) * (k + 1) + ("z", "w"))
                for k in range(LADDER_RUNGS + 1)]
        return ("w", "x", "y", "z"), rels
    raise ValueError(family)


def rewrites(word, relations):
    """Every word one relation application (either direction) away."""
    out = []
    for lhs, rhs in relations:
        for a, b in ((lhs, rhs), (rhs, lhs)):
            for i in range(len(word) - len(a) + 1):
                if word[i:i + len(a)] == a:
                    out.append(word[:i] + b + word[i + len(a):])
    return out


def random_word(rng: random.Random, gens, lo: int, hi: int):
    return tuple(rng.choice(gens) for _ in range(rng.randint(lo, hi)))


def seeded_word(rng: random.Random, gens, relations, pad: int):
    """A random word with at least one relation side inside it, so rewriting
    applies."""
    lhs, rhs = rng.choice(relations)
    side = lhs if rng.random() < 0.5 else rhs
    return random_word(rng, gens, 0, pad) + side + random_word(rng, gens, 0, pad)


def random_steps(rng: random.Random, word, relations, steps: int):
    for _ in range(steps):
        options = rewrites(word, relations)
        if not options:
            break
        word = rng.choice(options)
    return word


def parity_pair(rng: random.Random, family: str, n: int):
    """Two words that no conserved letter-count functional separates but that
    are not congruent: every relation of the sandwich families changes the
    y count by exactly 2, so adding one y outside the relation side flips an
    invariant parity.  Both words hold a relation side, so both congruence
    classes keep growing and the search runs until its budget is spent."""
    gens, rels = family_relations(family, n)
    side = rels[0][0]
    letters = ["x"] + ["y"] * 3
    rng.shuffle(letters)
    i = rng.randint(0, len(letters))
    u = tuple(letters[:i]) + side + tuple(letters[i:])
    j = rng.choice([k for k in range(len(u) + 1) if k <= i or k >= i + len(side)])
    return u, u[:j] + ("y",) + u[j:]


def conserved_letter(family: str) -> str:
    """A generator whose count every relation of the family preserves."""
    return {"sandwich-power": "x", "sandwich-xyx": "x", "ladder": "z"}[family]


def custom_presentation(rng: random.Random):
    """Three generators and two relations, each side 1-3 letters, with equal
    side lengths in one relation so some classes are finite."""
    gens = ("a", "b", "c")
    rels = []
    for k in range(2):
        left = random_word(rng, gens, 1, 2)
        right = random_word(rng, gens, len(left), len(left)) if k == 0 else random_word(rng, gens, 2, 3)
        if left == right:
            right = right + ("c",)
        rels.append((left, right))
    text = "gens: a b c; " + "; ".join(f"rel: {word_text(l)} = {word_text(r)}" for l, r in rels)
    return gens, rels, text


def ladder_long_word(rng: random.Random, steps: int):
    """A long ladder word: blocks x y^k z with filler, then `steps` random
    expansions x y^k z -> y x y^(k+1) z w, so the normal form has work to do."""
    parts = []
    for _ in range(rng.randint(3, 6)):
        parts += list(random_word(rng, ("w", "y"), 0, 3))
        parts += ["x"] + ["y"] * rng.randint(0, 3) + ["z"]
    word = tuple(parts)
    _, rels = family_relations("ladder")
    for _ in range(steps):
        options = []
        for lhs, rhs in rels:
            for i in range(len(word) - len(lhs) + 1):
                if word[i:i + len(lhs)] == lhs:
                    options.append(word[:i] + rhs + word[i + len(lhs):])
        if not options:
            break
        word = rng.choice(options)
    return word


# -- workloads ------------------------------------------------------------------
#
# The slowest kind of each workload has a near-fixed cost, appears often
# enough that a run of BENCHMARK.json's run_seconds holds 15-40 of it even
# on a slow machine, and costs well above the other kinds.  The tail metric (the 11th largest sample) then falls among that
# kind's samples however many rounds a run holds, so it does not jump from
# one kind's cost to another's.  Likewise the median of a round falls inside
# a group of requests of about one cost.  The parameter ranges below are the
# ones that keep this true.


def _analyze_table(kind: str, T: Table, **expect) -> Request:
    return Request(kind, ["analyze", "--in", IN], T.to_json(), {"monoid": T, **expect})


# Groups per round: (order, kind, choices of the first cyclic factor).  The
# cubic scans run to the end on an abelian group, so a cyclic product's cost is
# fixed by its order and factors, and the seed picks the factors among ones of
# about equal cost and the relabelling.  The four of order 144 are the slowest
# kind and set the tail; the four of order 96 cost about the same as each
# other and hold the median of the round.
TABLE_GROUPS = ((64, "cyclic", (4, 8)), (80, "cyclic", (4, 5, 8)),
                (96, "cyclic", (3, 4, 6)), (96, "cyclic", (3, 4, 6)),
                (96, "gl23", ()), (96, "gl23", ()),
                (144, "cyclic", (3, 4, 6)), (144, "cyclic", (3, 4, 6)),
                (144, "cyclic", (3, 4, 6)), (144, "cyclic", (3, 4, 6)))
# Order windows of the transformation monoids per round; the largest costs
# about two thirds of the slowest kind.
TABLE_TRANSFORMATIONS = ((60, 70), (120, 135), (200, 220))


def tables_round(rng: random.Random) -> list[Request]:
    """60-220 element monoids: groups, where the cubic scans run to the end,
    and transformation monoids, where witnesses turn up early.  The
    transformation monoids have at most one atom: with more, the minimal
    catalog's search over simple paths can take seconds (the catalog
    workload covers that layer), and this workload measures the table layer.
    Nothing larger than 220 elements: a 290-element transformation monoid or
    a 192-element group costs 2.5 times the slowest kind, and a run of
    BENCHMARK.json's run_seconds then holds too few of them for a tail with
    ten samples beyond it to fall among requests of one cost."""
    out = []
    for n, kind, factors in TABLE_GROUPS:
        if kind == "gl23":
            G = product_of(gl23(), cyclic(n // 48))
        else:
            a = rng.choice(factors)
            G = product_of(cyclic(a), cyclic(n // a))
        out.append(_analyze_table(f"tables.{kind}_product", relabel(G, rng)))
    for lo, hi in TABLE_TRANSFORMATIONS:
        T = random_transformation_monoid(rng, (4, 5) if hi <= 135 else (5,), lo, hi, max_atoms=1)
        out.append(_analyze_table("tables.transformation", relabel(T, rng)))
    return out


CATALOG_BASES = {
    # name -> (builder, base kind)
    "C5": (lambda: cyclic(5), "cyclic"),
    "N3": (lambda: null(3), "null"),
    "C6": (lambda: cyclic(6), "cyclic"),
    "N1xC2": (lambda: product_of(null(1), cyclic(2)), "other"),
    "H2xC3": (lambda: product_of(two_zero(), cyclic(3)), "other"),
    "N1xH2": (lambda: product_of(null(1), two_zero()), "other"),
    "L7": (lambda: chain(7), "other"),
    "T7": (lambda: transformation_closure([(2, 0, 2), (2, 0, 0)], 3), "other"),
}


def _base(name: str, rng: random.Random) -> tuple[Table, str]:
    build, kind = CATALOG_BASES[name]
    return relabel(build(), rng), kind


def catalog_round(rng: random.Random) -> list[Request]:
    """Power monoids P(K) of bases of order 5-7 and null monoids: the minimal
    catalog and kappa.  `analyze` on P(C6) and P(N1xC2), which cost about the
    same, is the slowest kind, twice each so that it sets the tail; P(H2xC3)
    costs a fifth less."""
    out = []
    for name in ("C5", "N3", "N1xH2", "C6", "C6", "N1xC2", "N1xC2", "H2xC3"):
        K, kind = _base(name, rng)
        P = relabel(power_monoid(K), rng)
        out.append(_analyze_table("catalog.analyze_power", P, base_size=K.n, base_kind=kind))
    for name in ("C5", "N3", "N1xC2", "L7", "T7"):
        K, kind = _base(name, rng)
        out.append(Request("catalog.powerset", ["powerset", "--in", IN], K.to_json(),
                           {"monoid": K, "base_kind": kind}))
    # The median of the round falls among four null monoids of one size: the
    # cost of `analyze --null k` grows by a fifth with each k, so a drawn k
    # there would move the median with the draw.  A fifth null monoid of a
    # drawn size falls just below or above them.
    for k in (22, 22, 22, 22, rng.randint(20, 25)):
        out.append(Request("catalog.analyze_null", ["analyze", "--null", str(k)], None, {"k": k}))
    K, _ = _base(rng.choice(("C6", "N1xC2", "H2xC3")), rng)
    P = relabel(power_monoid(K), rng)
    x = rng.randrange(1, P.n)
    max_len = rng.randint(2, 3)
    out.append(Request("catalog.factorize_power",
                       ["factorize", P.names[x], "--in", IN, "--max-len", str(max_len)],
                       P.to_json(), {"monoid": P, "element": x, "max_len": max_len}))
    return out


def _congruent(kind, family, n, u, v, budget, gens, rels, infile=None, built="congruent"):
    argv = ["present", "congruent", word_text(u), word_text(v), "--budget", str(budget)]
    if infile is None:
        argv += ["--family", family] + (["--n", str(n)] if family == "sandwich-power" else [])
    else:
        argv += ["--in", IN]
    return Request(kind, argv, infile,
                   {"u": u, "v": v, "gens": gens, "relations": rels, "built": built})


# Budget-exhausting searches per round: (family, n, budget range).  The
# sandwich-power(1) search at budget ~5000 is the slowest kind; sandwich-power(2)
# and sandwich-xyx searches grow erratically past ~1000 expansions, so they
# stay below that.  Ladder classes are finite under the materialized rung
# cutoff, so no ladder search can exhaust a budget.
REWRITE_EXHAUST = ((("sandwich-power", 1, 4800, 5000),) * 2
                   + (("sandwich-power", 1, 2500, 3000),) * 9
                   + (("sandwich-power", 2, 500, 800), ("sandwich-xyx", 0, 500, 800)))


def rewrite_round(rng: random.Random) -> list[Request]:
    """Bounded word problems: congruent, separated and budget-exhausting pairs,
    length probes, the ladder verifier and ladder normal forms.  The searches
    at budget ~3000 and the verifier runs cost about the same and hold the
    median of the round."""
    out = []
    families = [("sandwich-power", rng.randint(1, 3)), ("sandwich-xyx", 0), ("ladder", 0)]
    for family, n in families:
        gens, rels = family_relations(family, n)
        u = seeded_word(rng, gens, rels, 3)
        v = random_steps(rng, u, rels, rng.randint(1, 6))
        out.append(_congruent("rewrite.congruent", family, n, u, v, 2000, gens, rels))
        w = seeded_word(rng, gens, rels, 3)
        c = conserved_letter(family)
        w2 = random_steps(rng, w, rels, rng.randint(0, 3))
        i = rng.randint(0, len(w2))
        w2 = w2[:i] + (c,) + w2[i:]
        out.append(_congruent("rewrite.separated", family, n, w, w2, 2000, gens, rels,
                              built="separated"))
    for family, n, lo, hi in REWRITE_EXHAUST:
        gens, rels = family_relations(family, n)
        u, v = parity_pair(rng, family, n)
        out.append(_congruent("rewrite.exhaust", family, n, u, v, rng.randint(lo, hi), gens, rels,
                              built="same_functional"))
    gens, rels, text = custom_presentation(rng)
    u = seeded_word(rng, gens, rels, 3)
    v = random_steps(rng, u, rels, rng.randint(1, 6))
    out.append(_congruent("rewrite.custom", "custom", 0, u, v, 2000, gens, rels, infile=text))
    family, n = rng.choice(families[:2])  # length probes on a non-ladder family
    gens, rels = family_relations(family, n)
    target = seeded_word(rng, gens, rels, 2)
    max_len = len(target) + rng.randint(4, 10)
    argv = ["present", "lengths", word_text(target), "--family", family,
            "--max-len", str(max_len), "--budget", str(rng.randint(500, 2000))]
    if family == "sandwich-power":
        argv += ["--n", str(n)]
    out.append(Request("rewrite.lengths", argv, None,
                       {"target": target, "max_len": max_len, "relations": rels,
                        "family": family, "n": n}))
    for _ in range(4):
        samples = rng.randint(3200, 3800)
        out.append(Request("rewrite.verify",
                           ["present", "verify", "--family", "ladder", "--samples", str(samples),
                            "--seed", str(rng.randint(0, 10**6))], None, {"samples": samples}))
    word = ladder_long_word(rng, rng.randint(20, 60))
    out.append(Request("rewrite.nf", ["present", "nf", word_text(word), "--family", "ladder"],
                       None, {"word": word}))
    return out


# `ints` per round: (limit range, prime-bound range).  The four near 10000 are
# the slowest kind of the sweep and set its tail; larger limits cost more
# than a run holds enough of.
SWEEP_INTS = (((9900, 10000), (95, 100)),) * 4 + (((5000, 6000), (60, 70)),
                                                 ((2000, 3000), (50, 60)))


def sweep_round(rng: random.Random) -> list[Request]:
    """Many small requests: tiny monoids, the integer fragment, the corpus.
    The tiny monoids are three quarters of the round, so its median falls
    well inside them and not at the top of their spread."""
    out = []
    for _ in range(14):
        T = relabel(random_transformation_monoid(rng, (2, 3), 2, 5), rng)
        out.append(_analyze_table("sweep.analyze_small", T))
    for _ in range(10):
        T = relabel(random_transformation_monoid(rng, (2, 3), 2, 5), rng)
        x = rng.randrange(1, T.n)
        max_len = rng.randint(3, 6)
        out.append(Request("sweep.factorize_small",
                           ["factorize", T.names[x], "--in", IN, "--max-len", str(max_len)],
                           T.to_json(), {"monoid": T, "element": x, "max_len": max_len}))
    for limits, bounds in SWEEP_INTS:
        limit, bound = rng.randint(*limits), rng.randint(*bounds)
        out.append(Request("sweep.ints", ["ints", "--limit", str(limit), "--prime-bound", str(bound)],
                           None, {"limit": limit, "prime_bound": bound}))
    for _ in range(2):  # `corpus` takes no input beyond its order, so it repeats
        out.append(Request("sweep.corpus", ["corpus", "--max-order", "3"], None, {"max_order": 3}))
    return out


WORKLOADS = {
    "tables": tables_round,
    "catalog": catalog_round,
    "rewrite": rewrite_round,
    "sweep": sweep_round,
}


def rounds(workload: str, seed: int):
    """Endless rounds of requests for a workload; the same seed gives the same
    rounds."""
    rng = random.Random(f"{workload}:{seed}")
    make = WORKLOADS[workload]
    while True:
        batch = make(rng)
        rng.shuffle(batch)
        yield batch
