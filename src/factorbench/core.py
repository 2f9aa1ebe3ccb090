"""Finite monoids given by full multiplication tables.

Conventions used everywhere in this package: elements of a monoid of size n
are the integers 0..n-1, the identity is always element 0, and table[x][y]
is the product x*y with x the left factor.
"""

from __future__ import annotations

import json
import math
from functools import cached_property
from itertools import product
from json.encoder import encode_basestring_ascii as _jstr
from operator import itemgetter, mul, or_
from typing import NamedTuple

from .errors import CapExceeded, IndexOutOfRange, NoIdentity, NotAssociative
from .factorization import AtomAnalysis
from .presentations import _letter_fault

# Bounds gl's candidate matrices, the cell values small_monoids' search tries
# for one order, and the values of the CLI size flags (full_transformation
# stops at 3 points).
ENUMERATION_CAP = 10**6

# Built instances (cyclic, null_monoid, gl, direct_product, reduced power
# monoids) refuse an order above this before allocating their table of
# order**2 entries; gl(2, 5) has order 480.
ORDER_CAP = 1024


def _check_order(order: int, what: str) -> None:
    if order > ORDER_CAP:
        raise CapExceeded(f"{what} has order {order}, above the cap {ORDER_CAP}")


class PropertyReport(NamedTuple):
    """Structural flags of a finite monoid, with a counterexample per false flag.

    Witnesses are tuples of element ids found in lexicographic scan order:
    acyclic -> (u, x, v) with u*x*v == x and u or v a non-unit;
    unit_cancellative -> (x, y) with y a non-unit and x*y == x or y*x == x;
    cancellative -> (x, y, z) with x != y and x*z == y*z or z*x == z*y;
    normalizing -> (a,) with a*H != H*a; commutative -> (x, y) with x*y != y*x;
    reduced -> (u,) a non-identity unit; group -> (x,) a non-unit.
    """

    acyclic: bool
    unit_cancellative: bool
    cancellative: bool
    normalizing: bool
    commutative: bool
    reduced: bool
    group: bool
    witnesses: dict[str, tuple[int, ...]]


def _greedy_generators(rows) -> tuple[int, ...]:
    """A generating set of the monoid with identity 0: repeatedly take the
    smallest element not yet reached and close under s -> s*g for the chosen
    g, starting from the identity.

    The closure grows incrementally, O(n * g) products in all: a new
    generator multiplies only the elements already closed, and a newly
    reached element is multiplied by every generator once.
    """
    gens: list[int] = []
    closed = [0]
    reached = {0}
    for g in range(len(rows)):
        if g in reached:
            continue
        gens.append(g)
        work = []
        for s in closed:
            p = rows[s][g]
            if p not in reached:
                reached.add(p)
                work.append(p)
        while work:
            s = work.pop()
            closed.append(s)
            row = rows[s]
            for h in gens:
                p = row[h]
                if p not in reached:
                    reached.add(p)
                    work.append(p)
    return tuple(gens)


def _first_non_associative(rows, middles) -> tuple[int, int, int] | None:
    """The first (x, y, z), x-major with y in middles, such that
    (x*y)*z != x*(y*z); None if there is none.

    One whole row z -> x*(y*z) per (x, y), n * len(middles) rows, each made
    at C speed.  For n <= 256 the rows are bytes, and row y translated
    through row x (padded to 256 bytes) is z -> x*(y*z); above that,
    itemgetter(*row y) applied to row x is the same row as a tuple.  Either
    way the Python loop runs once per row, and z is sought only in the first
    row that differs from row x*y.

    With middles a generating set this is Light's test, exact because the
    set B of b with (x*b)*z == x*(b*z) for all x, z contains the identity
    and is closed under products: for b, c in B,
    (x*(bc))*z = ((x*b)*c)*z = (x*b)*(c*z) = x*(b*(c*z)) = x*((bc)*z).
    The middles lie in B, so everything they reach, the whole table, lies in
    B.  With every element as middles the answer is the lexicographically
    first bad triple.
    """
    n = len(rows)
    if n <= 256:
        products = [bytes(r) for r in rows]
        makers = [(y, products[y].translate) for y in middles]
        pad = bytes(256 - n)
        args = [b + pad for b in products]
    else:
        products = rows
        makers = [(y, itemgetter(*rows[y])) for y in middles]
        args = rows
    for x, (rx, arg) in enumerate(zip(rows, args)):
        for y, make in makers:
            if products[rx[y]] != make(arg):
                left, right = products[rx[y]], make(arg)
                return x, y, next(z for z in range(n) if left[z] != right[z])
    return None


_INT = frozenset({int})
_STR = frozenset({str})


def _check_row(x: int, row, n: int) -> None:
    """Raise IndexOutOfRange at row x's first fault, if it has one: a wrong
    length, or an entry that is not an int (bools refused) in [0, n).  Run
    only on a row that failed the one-step check, which refuses int
    subclasses, so an int subclass in range passes here; FiniteMonoid then
    stores that row as plain ints."""
    if len(row) != n:
        raise IndexOutOfRange(f"row {x} has length {len(row)}, expected {n}")
    for y, v in enumerate(row):
        if not isinstance(v, int) or isinstance(v, bool) or not 0 <= v < n:
            raise IndexOutOfRange(f"entry ({x}, {y}) = {v!r} not in [0, {n})")


def _two_sided_orbit(rows, x: int, side: tuple[int, ...]) -> frozenset[int]:
    """{u*x*v : u, v in side}, for a tuple side that holds the identity 0.

    The left orbit {u*x} is read down column x; each of its members then
    contributes its row restricted to side, one C-speed itemgetter call each.
    """
    if len(side) == 1:  # only the identity; itemgetter(0) would give a scalar
        return frozenset((x,))
    at_side = itemgetter(*side)
    left = {row[x] for row in at_side(rows)}
    return frozenset().union(*(at_side(rows[y]) for y in left))


class FiniteMonoid:
    """A finite monoid, validated at construction.

    Construction checks each row's entries in one step, then associativity
    with Light's test on a greedy generating set: n * g whole rows made at
    C speed for g generators (g is 1 for a cyclic group and n - 2 for a null
    monoid, which no smaller set generates), O(n^2 * g) byte operations but
    only O(n * g) steps of Python.  A table that fails is refused with its
    lexicographically first bad triple, found by the same row kernel with
    every element as the middle factor.  It eagerly computes the unit group;
    the atoms and their associate classes are built on first use, and the
    set of elements x divides on the first divisibility query about x.
    Entries of an int subclass (an IntEnum, say) are stored as plain ints and
    names of a str subclass as plain strs, so the table and names hold only
    exact built-in types.  All queries are pure, but the instance is not
    frozen: the atoms and their classes, analysis, reduced_power and the
    sets of multiples are caches that fill on first use.
    """

    identity = 0

    def __init__(self, table, names=None):
        try:
            rows = [tuple(row) for row in table]
        except TypeError:
            raise ValueError("a table must be a list of rows of element indices") from None
        n = len(rows)
        if n < 1:
            raise NoIdentity("a monoid needs at least the identity element")
        valid = frozenset(range(n))
        for x, row in enumerate(rows):
            if not (len(row) == n and _INT.issuperset(map(type, row)) and valid.issuperset(row)):
                _check_row(x, row, n)
                rows[x] = tuple(map(int, row))
        for x in range(n):
            if rows[0][x] != x or rows[x][0] != x:
                raise NoIdentity(f"element 0 is not a two-sided identity (fails at {x})")
        if _first_non_associative(rows, _greedy_generators(rows)):
            raise NotAssociative(*_first_non_associative(rows, range(n)))
        if names is None:
            names = ("1",) + tuple(f"x{i}" for i in range(1, n))
        else:
            if not isinstance(names, (list, tuple)):
                raise ValueError(f"names must be a list of {n} strings, not {type(names).__name__}")
            bad = next((i for i, s in enumerate(names) if not isinstance(s, str)), None)
            if bad is not None:
                raise ValueError(f"name {bad} is {names[bad]!r}, not a string")
            names = tuple(map(str, names))
            if len(names) != n:
                raise ValueError(f"got {len(names)} names for {n} elements")
            if len(set(names)) != n:
                raise ValueError("element names must be distinct")
            bad = next(((i, f) for i, f in enumerate(map(_letter_fault, names)) if f), None)
            if bad is not None:
                raise ValueError(f"name {bad[0]} is {names[bad[0]]!r}, {bad[1]}")
        self.size = n
        self.table = tuple(rows)
        self.names = names
        self.units = self._compute_units()
        self._multiples: dict[int, frozenset[int]] = {}

    # -- basic queries -------------------------------------------------

    def mul(self, x: int, y: int) -> int:
        return self.table[x][y]

    def elements(self) -> range:
        return range(self.size)

    def is_unit(self, x: int) -> bool:
        return x in self.units

    def divides(self, x: int, y: int) -> bool:
        """x divides y: y = u*x*v for some u, v in H.  HxH, the set of elements
        x divides, is built on the first query about x and kept."""
        multiples = self._multiples.get(x)
        if multiples is None:
            multiples = self._multiples[x] = _two_sided_orbit(self.table, x, tuple(self.elements()))
        return y in multiples

    def index_of(self, name: str) -> int:
        try:
            return self.names.index(name)
        except ValueError:
            raise ValueError(f"no element named {name!r}") from None

    def completion_test(self, x: int):
        return self.analysis.completion_test(x)

    def prime_candidates(self, p: int):
        # HpH is an ideal, so a pair with a factor p divides has a product p
        # divides and cannot refute p: only the other pairs are offered.
        others = [x for x in self.elements() if not self.divides(p, x)]
        return product(others, repeat=2)

    def powerful(self, a: int):
        conflict = self.analysis.powerful_conflict(self.atom_class_of[a])
        return conflict is None, conflict

    # -- cached structure ----------------------------------------------

    def _compute_units(self):
        # In a finite monoid u*v == 1 forces v*u == 1 and a unique v, so the
        # first 1 in row u is u's inverse if u has one.
        t = self.table
        return frozenset(
            u for u, row in enumerate(t) if 0 in row and t[row.index(0)][u] == 0
        )

    @cached_property
    def atoms(self) -> tuple[int, ...]:
        """Non-units that are not a product of two non-units."""
        t = self.table
        nonunits = [x for x in self.elements() if x not in self.units]
        if len(nonunits) < 2:
            products = {t[x][x] for x in nonunits}
        else:
            at_nonunits = itemgetter(*nonunits)
            products = set().union(*(at_nonunits(t[x]) for x in nonunits))
        return tuple(a for a in nonunits if a not in products)

    @cached_property
    def atom_classes(self) -> tuple[tuple[int, ...], ...]:
        """Associate classes of the atom alphabet, ordered by smallest member.

        Each class is the two-sided unit orbit {u*a*v : u, v units} of its
        smallest atom a, taken in ascending order of the atoms not yet
        classed.  Sandwiching an atom between units yields an atom, so each
        orbit lies in the atoms, and its members sorted are in atom order.
        """
        units = tuple(sorted(self.units))
        classes: list[tuple[int, ...]] = []
        classed: set[int] = set()
        for a in self.atoms:
            if a not in classed:
                orbit = _two_sided_orbit(self.table, a, units)
                classed.update(orbit)
                classes.append(tuple(sorted(orbit)))
        return tuple(classes)

    @cached_property
    def atom_class_of(self) -> dict[int, int]:
        return {a: i for i, cls in enumerate(self.atom_classes) for a in cls}

    @cached_property
    def analysis(self):
        """The factorization.AtomAnalysis of this monoid, built on first use."""
        return AtomAnalysis(self)

    @cached_property
    def reduced_power(self):
        """The reduced power monoid of this monoid, built on first use."""
        return _setwise_monoid(self)

    def __repr__(self):
        return f"FiniteMonoid(size={self.size})"


# -- structural analyses ------------------------------------------------


def property_battery(H: FiniteMonoid) -> PropertyReport:
    """Decide the structural flags, recording the first counterexample
    (lexicographic by element indices) for each false flag.

    A finite monoid is acyclic, unit-cancellative and cancellative exactly
    when every element is a unit: a group satisfies all three, and a
    non-unit has an idempotent power e, where e*e == e refutes each.  So
    those scans, and normalizing (aH = H = Ha in a group), run only when the
    group witness exists, and each of the three always finds a witness:
    (0, e, e) for acyclic and cancellative, so only the slice at 0 is
    scanned, and (e, e) for unit_cancellative, each in O(n^2).  normalizing:
    each row's set against its column's.  commutative: each row against its
    column, then the first differing entry of the first differing row.  Both
    scans pair each row with its column through zip(t, zip(*t)), which makes
    one column at a time at C speed, so each stops at its first witness
    without building the whole transpose.  reduced, group: read off the
    unit group.
    """
    n = H.size
    t = H.table
    un = H.units
    rng = range(n)
    grp = next(((x,) for x in rng if x not in un), None)
    wit = {} if grp is None else {
        "acyclic": next((0, x, v) for x in rng for v in rng if v not in un and t[x][v] == x),
        "unit_cancellative": next(
            (x, y) for x in rng for y in rng if y not in un and (t[x][y] == x or t[y][x] == x)
        ),
        "cancellative": next(
            (0, y, z) for y in range(1, n) for z in rng if t[y][z] == z or t[z][y] == z
        ),
        "normalizing": next(
            ((a,) for a, (row, col) in enumerate(zip(t, zip(*t))) if set(row) != set(col)), None
        ),
    }
    x = next((x for x, (row, col) in enumerate(zip(t, zip(*t))) if row != col), None)
    wit["commutative"] = None if x is None else next((x, y) for y in rng if t[x][y] != t[y][x])
    wit["reduced"] = next(((u,) for u in sorted(un) if u != 0), None)
    wit["group"] = grp
    wit = {flag: w for flag, w in wit.items() if w}
    return PropertyReport(
        acyclic="acyclic" not in wit,
        unit_cancellative="unit_cancellative" not in wit,
        cancellative="cancellative" not in wit,
        normalizing="normalizing" not in wit,
        commutative="commutative" not in wit,
        reduced="reduced" not in wit,
        group="group" not in wit,
        witnesses=wit,
    )


def direct_product(H: FiniteMonoid, K: FiniteMonoid) -> FiniteMonoid:
    """Componentwise product; names are paired."""
    n, m = H.size, K.size
    _check_order(n * m, f"the product of sizes {n} x {m}")
    table = [
        [H.table[i1][i2] * m + K.table[j1][j2] for i2 in range(n) for j2 in range(m)]
        for i1 in range(n)
        for j1 in range(m)
    ]
    names = tuple(
        f"({H.names[i]},{K.names[j]})" for i in range(n) for j in range(m)
    )
    return FiniteMonoid(table, names)


# -- built instances -----------------------------------------------------


def trivial() -> FiniteMonoid:
    return FiniteMonoid(((0,),), ("1",))


def cyclic(m: int) -> FiniteMonoid:
    if m < 1:
        raise ValueError("cyclic group order must be >= 1")
    _check_order(m, f"cyclic({m})")
    names = ("1",) + tuple("g" if i == 1 else f"g^{i}" for i in range(1, m))
    return FiniteMonoid([[(i + j) % m for j in range(m)] for i in range(m)], names)


_GEN_LETTERS = "abcdfhklmnpqrstuv"  # skips e (empty word) and g (cyclic generator)


def null_monoid(k: int) -> FiniteMonoid:
    """Identity plus k nilpotent generators; every product of non-identity
    elements is the absorbing element."""
    if k < 1:
        raise ValueError("need at least one generator")
    n = k + 2
    _check_order(n, f"null_monoid({k})")
    zero = n - 1
    table = [[0] * n for _ in range(n)]
    for i in range(n):
        table[0][i] = i
        table[i][0] = i
    for i in range(1, n):
        for j in range(1, n):
            table[i][j] = zero
    gens = tuple(
        _GEN_LETTERS[i] if i < len(_GEN_LETTERS) else f"a{i}" for i in range(k)
    )
    return FiniteMonoid(table, ("1",) + gens + ("0",))


def two_element_with_zero() -> FiniteMonoid:
    return FiniteMonoid(((0, 1), (1, 1)), ("1", "0"))


def full_transformation(m: int) -> FiniteMonoid:
    """All maps on m points under composition (apply right factor first)."""
    if m < 1:
        raise ValueError("need at least one point")
    if m > 3:
        raise CapExceeded("full transformation monoid capped at 3 points")
    maps = sorted(product(range(m), repeat=m))
    ident = tuple(range(m))
    maps.remove(ident)
    maps.insert(0, ident)
    pos = {f: i for i, f in enumerate(maps)}
    table = [
        [pos[tuple(f[g[x]] for x in range(m))] for g in maps] for f in maps
    ]
    names = tuple("".join(map(str, f)) for f in maps)
    return FiniteMonoid(table, names)


def _det_mod(mat, m: int) -> int:
    n = len(mat)
    if n == 1:
        return mat[0][0] % m
    total = 0
    for j in range(n):
        minor = [row[:j] + row[j + 1 :] for row in mat[1:]]
        term = mat[0][j] * _det_mod(minor, m)
        total += -term if j % 2 else term
    return total % m


def gl(n: int, m: int) -> FiniteMonoid:
    """n-by-n matrices over Z/m whose determinant is regular in Z/m.

    In Z/m regularity of d means d*x != 0 for every x != 0, i.e. gcd(d, m) = 1,
    so this is the group of invertible matrices.
    """
    if n < 1 or m < 2:
        raise ValueError("need n >= 1 and modulus >= 2")
    # m >= 2, so n*n above the cap's bit length already decides the
    # comparison without computing a huge power.
    if n * n > ENUMERATION_CAP.bit_length() or m ** (n * n) > ENUMERATION_CAP:
        raise CapExceeded(f"{m}^{n * n} candidate matrices exceed cap {ENUMERATION_CAP}")
    mats = []
    for flat in product(range(m), repeat=n * n):
        mat = tuple(flat[i * n : (i + 1) * n] for i in range(n))
        if math.gcd(_det_mod([list(r) for r in mat], m), m) == 1:
            mats.append(mat)
    _check_order(len(mats), f"gl({n}, {m})")
    ident = tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))
    mats.remove(ident)
    mats.insert(0, ident)
    # A matrix is keyed by the indices of its columns among all m^n column
    # vectors.  The columns of a*b are a's images of b's columns, so the fill
    # computes m^n images per matrix and then one dict lookup per entry.
    vecs = list(product(range(m), repeat=n))
    vec_index = {v: i for i, v in enumerate(vecs)}
    keys = [
        tuple(vec_index[tuple(row[j] for row in a)] for j in range(n)) for a in mats
    ]
    pos = {k: i for i, k in enumerate(keys)}
    table = []
    for a in mats:
        image = [
            vec_index[tuple(sum(map(mul, row, v)) % m for row in a)]
            for v in vecs
        ]
        table.append([pos[tuple(map(image.__getitem__, k))] for k in keys])
    names = tuple(
        "[" + ",".join("[" + ",".join(map(str, r)) + "]" for r in a) + "]"
        for a in mats
    )
    return FiniteMonoid(table, names)


def _setwise_monoid(K: FiniteMonoid) -> FiniteMonoid:
    """The reduced power monoid of K, by one union per table entry.

    Each element is a characteristic bitmask over the base with bit 0, the
    identity, always set; its index is the mask shifted right by one, so the
    singleton {1} is element 0, and its name spells out the subset.  For
    each base element x, x*B over every mask B grows from B minus its lowest
    bit; then the row of A is (A minus its top bit)*B | top*B over the row
    of a smaller A."""
    n = K.size
    _check_order(1 << (n - 1), f"the reduced power monoid of a base of size {n}")
    masks = range(1, 1 << n, 2)
    images = []
    for row in K.table:
        image = [0] * (1 << n)
        for b in range(1, 1 << n):
            low = b & -b
            image[b] = image[b ^ low] | 1 << row[low.bit_length() - 1]
        images.append([m >> 1 for m in image[1::2]])
    table = [images[0]]
    for ma in masks[1:]:
        top = ma.bit_length() - 1
        table.append(list(map(or_, table[(ma ^ 1 << top) >> 1], images[top])))
    names = tuple(
        "{" + ",".join(K.names[i] for i in range(n) if m >> i & 1) + "}" for m in masks
    )
    return FiniteMonoid(table, names)


# -- Cayley table files ---------------------------------------------------


def parse_cayley(raw: bytes) -> FiniteMonoid:
    """The monoid of a Cayley file's bytes (UTF-8 JSON)."""
    try:
        data = json.loads(raw.decode("utf-8"))
    except RecursionError:
        raise ValueError("the Cayley file nests too deeply") from None
    if not isinstance(data, dict) or "table" not in data:
        raise ValueError("expected an object with a 'table' key")
    return FiniteMonoid(data["table"], data.get("names"))


def load_cayley(path) -> FiniteMonoid:
    with open(path, "rb") as fh:
        return parse_cayley(fh.read())


def json_text(obj) -> str:
    """The text the standard library's json encoder gives obj with sorted
    keys and an indent of 2, byte for byte, on what reports and Cayley files
    hold: dicts with str keys, and values that are dicts, lists, tuples,
    strs or ints of the exact built-in type, True, False or None.  Anything
    else raises TypeError: a float, a non-str key, or a value whose type
    subclasses one of those five.  FiniteMonoid stores int-subclass entries
    and str-subclass names as plain ints and strs, so no report holds one.

    With an indent, the stdlib runs its pure-Python encoder; this builds each
    container with one str.join, encodes strings in C and joins lists of
    plain ints or strs without a call per item.  Containers are not checked
    for cycles."""
    prefixes: dict[str, str] = {}  # holds str keys only, so no other key can match one

    def prefix(k) -> str:
        if isinstance(k, str):
            text = prefixes[k] = _jstr(k) + ": "
            return text
        raise TypeError(f"keys must be str, not {k.__class__.__name__}")

    def sequence(o, nl: str) -> str:
        if not o:
            return "[]"
        inner = nl + "  "
        if _INT.issuperset(map(type, o)):
            items = map(int.__repr__, o)
        elif _STR.issuperset(map(type, o)):
            items = map(_jstr, o)
        else:
            items = [value(v, inner) for v in o]
        return "[" + inner + ("," + inner).join(items) + nl + "]"

    def mapping(o, nl: str) -> str:
        if not o:
            return "{}"
        inner = nl + "  "
        get = prefixes.get
        items = [(get(k) or prefix(k)) + value(o[k], inner) for k in sorted(o)]
        return "{" + inner + ("," + inner).join(items) + nl + "}"

    def value(o, nl: str) -> str:
        kind = type(o)
        if kind is str:
            return _jstr(o)
        if kind is int:
            return int.__repr__(o)
        if kind is dict:
            return mapping(o, nl)
        if kind is list or kind is tuple:
            return sequence(o, nl)
        if o is None:
            return "null"
        if o is True:
            return "true"
        if o is False:
            return "false"
        raise TypeError(f"Object of type {o.__class__.__name__} is not JSON serializable")

    return value(obj, "\n")


def dump_cayley(H: FiniteMonoid) -> str:
    """Byte-stable JSON rendering (sorted keys, integers only)."""
    return json_text({"names": H.names, "table": H.table}) + "\n"


def save_cayley(H: FiniteMonoid, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dump_cayley(H))
