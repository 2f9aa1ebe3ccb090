"""Factorization into atoms: enumeration, length sets, congruence classes,
minimal catalogs, primes, powerful atoms, and the classifier batteries.

pi_eval, enumerate_factorizations, is_prime and is_powerful work over any
"factorization system": a carrier exposing identity, mul, is_unit, elements,
divides, an atom alphabet (atoms, and atom_class_of keyed by them) and three
answers: completion_test(x), a predicate on prefix products (can the prefix
still be completed to x?); prime_candidates(p), the pairs that could refute
p's primality, in lexicographic order; and powerful(a), as is_powerful
returns it.  FiniteMonoid (from .core) answers from H.analysis, which the
finite-only operations (length sets, classifiers, catalogs, the factorial
battery) read too, and offers the pairs of elements p does not divide.
IntegerFragment (1..limit under multiplication, atoms = primes) answers by
arithmetic.

Atom words are plain tuples of carrier elements; the empty tuple is the empty
word.
"""

from __future__ import annotations

import gc
from bisect import bisect_left
from functools import cached_property
from heapq import merge
from itertools import compress, groupby, repeat
from math import gcd, isqrt
from operator import add, floordiv, gt, length_hint, ne
from typing import NamedTuple

from .errors import AlphabetMismatch, CapExceeded, CrossCheckMismatch

WORD_CAP = 10**6
LAYER_CAP = 10**5


class IntegerFragment:
    """The integers 1..limit under multiplication.

    Atoms are the primes up to the limit.  Multiplication is the plain integer
    product, so factorization queries must stay inside the fragment (they do:
    every factor of n <= limit is itself <= limit).
    """

    identity = 1

    def __init__(self, limit: int):
        if limit < 1:
            raise ValueError("limit must be >= 1")
        self.limit = limit
        self.atoms = primes_up_to(limit)
        self.atom_class_of = {p: i for i, p in enumerate(self.atoms)}

    def elements(self) -> range:
        return range(1, self.limit + 1)

    def mul(self, x: int, y: int) -> int:
        return x * y

    def is_unit(self, x: int) -> bool:
        return x == 1

    def divides(self, x: int, y: int) -> bool:
        return y % x == 0

    def completion_test(self, x: int):
        return lambda s: x % s == 0

    def prime_candidates(self, p: int):
        # gcd(x, p) == 1 and p | x*y force p | y (Bezout), so x runs over the
        # multiples of p's proper prime divisors, y over those of p // gcd(x, p).
        divisors = {e for d in range(2, isqrt(p) + 1) if p % d == 0 for e in (d, p // d)}
        primes = [q for q in divisors if all(q % e for e in divisors if e < q)]
        for x, _ in groupby(merge(*(range(q, self.limit + 1, q) for q in primes))):
            step = p // gcd(x, p)
            if step > 1:  # p does not divide x
                yield from ((x, y) for y in range(step, self.limit // x + 1, step))

    def powerful(self, a: int) -> tuple[bool, None]:
        return True, None

    def __repr__(self):
        return f"IntegerFragment({self.limit})"


def primes_up_to(limit: int) -> tuple[int, ...]:
    if limit < 2:
        return ()
    sieve = bytearray([1]) * (limit + 1)
    sieve[0] = sieve[1] = 0
    for p in range(2, isqrt(limit) + 1):
        if sieve[p]:
            sieve[p * p :: p] = bytes((limit - p * p) // p + 1)
    return tuple(compress(range(limit + 1), sieve))


# -- words over the atom alphabet -----------------------------------------


def _require_element(S, x) -> None:
    if x not in S.elements():
        raise ValueError(f"{x!r} is not an element")


def pi_eval(S, w):
    """Evaluate an atom word left to right; the empty word gives the identity."""
    x = S.identity
    for a in w:
        if a not in S.atom_class_of:
            raise AlphabetMismatch(f"letter {a!r} is not an atom of {S!r}")
        x = S.mul(x, a)
    return x


# -- enumeration -----------------------------------------------------------


def _letters(word) -> tuple:
    # The enumeration keeps words as nested (prefix, letter) pairs, () being
    # empty, so held words share prefixes: memory grows with nodes, not lengths.
    out = []
    while word:
        word, a = word
        out.append(a)
    return tuple(reversed(out))


def enumerate_factorizations(S, x, max_len: int) -> list[tuple]:
    """All atom words of length <= max_len evaluating to x, in depth-first
    (lexicographic by atom order) order."""
    if max_len < 0:
        raise ValueError("max_len must be >= 0")
    _require_element(S, x)
    admissible = S.completion_test(x)
    # An explicit stack, bounded by WORD_CAP nodes, replaces recursion and
    # its depth limit; children go on in reverse so they come off in order.
    found, stack, nodes, cap = [], [(S.identity, 0, ())], 0, WORD_CAP
    while stack:
        prod, length, word = stack.pop()
        nodes += 1
        if nodes > cap:
            raise CapExceeded(f"more than {cap} prefixes examined")
        if prod == x:
            found.append(word)
        if length < max_len:
            for a in reversed(S.atoms):
                nxt = S.mul(prod, a)
                if admissible(nxt):
                    stack.append((nxt, length + 1, (word, a)))
    return [_letters(word) for word in found]


# -- length sets -----------------------------------------------------------


class LengthSet(NamedTuple):
    """An exact, eventually periodic subset of the naturals.

    Represents finite_part | {n >= threshold : n % period in residues}; the
    representation is canonical (minimal period, then minimal threshold), and
    period == 0 exactly when the set is finite.
    """

    finite_part: tuple[int, ...]
    threshold: int
    period: int
    residues: frozenset[int]

    @classmethod
    def build(cls, finite, threshold: int, period: int, residues) -> "LengthSet":
        fin = set(finite)
        res = set(residues)
        if any(k < 0 for k in fin) or threshold < 0 or period < 0:
            raise ValueError("negative data in length set")
        if any(k >= threshold for k in fin):
            raise ValueError("finite part must sit below the threshold")
        if period == 0 or not res:
            ordered = tuple(sorted(fin))
            return cls(ordered, ordered[-1] + 1 if ordered else 0, 0, frozenset())
        res = {r % period for r in res}
        for d in range(1, period + 1):
            if period % d == 0 and all(
                ((r + d) % period in res) == (r in res) for r in range(period)
            ):
                res = {r % d for r in res}
                period = d
                break
        while threshold > 0 and ((threshold - 1) in fin) == (
            (threshold - 1) % period in res
        ):
            fin.discard(threshold - 1)
            threshold -= 1
        return cls(tuple(sorted(fin)), threshold, period, frozenset(res))

    def __contains__(self, k: int) -> bool:
        if k < self.threshold:
            return k in self.finite_part
        if self.period == 0:
            return False
        return k % self.period in self.residues

    @property
    def is_finite(self) -> bool:
        return self.period == 0

    def up_to(self, horizon: int) -> list[int]:
        out = [k for k in self.finite_part if k <= horizon]
        if self.period:
            period, residues = self.period, self.residues
            out += [k for k in range(self.threshold, horizon + 1) if k % period in residues]
        return out

    def is_empty(self) -> bool:
        return not self.finite_part and not self.residues

    def describe(self) -> dict:
        return {
            "finite": list(self.finite_part),
            "threshold": self.threshold,
            "period": self.period,
            "residues": sorted(self.residues),
        }


def length_set(H, x) -> LengthSet:
    """Exact set of atom-word lengths evaluating to x (see
    AtomAnalysis.length_sets)."""
    _require_element(H, x)
    return H.analysis.length_sets[x]


# -- classifier battery ------------------------------------------------------


class ArithmeticFlags(NamedTuple):
    """atomic / bounded lengths (BF) / finitely many classes (FF) /
    half-factorial (HF)."""

    atomic: bool
    bf: bool
    ff: bool
    hf: bool


def classify_arithmetic(H) -> ArithmeticFlags:
    """Decide atomic/BF/FF/HF for a finite carrier (see AtomAnalysis.flags)."""
    return H.analysis.flags


# -- minimal catalog and kappa ------------------------------------------------


class MinimalCatalog(NamedTuple):
    """All minimal factorization classes of every element, each kept as its
    representative word, whose letters counted per atom class give the
    class-count vector; kappa is the largest representative length."""

    per_element: dict[int, tuple[tuple, ...]]
    kappa: int

    def classes_of(self, x) -> tuple[tuple, ...]:
        return self.per_element.get(x, ())

    def minimal_lengths(self, x) -> tuple[int, ...]:
        return tuple(sorted({len(word) for word in self.classes_of(x)}))


def minimal_catalog(H) -> MinimalCatalog:
    """Exact minimal classes for every element (see AtomAnalysis.catalog)."""
    return H.analysis.catalog


def kappa_and_dichotomy(H) -> tuple[int, tuple[int, ...]]:
    """kappa plus the union of minimal length sets, asserting the union is the
    full interval 0..kappa."""
    cat = minimal_catalog(H)
    lengths = sorted({len(word) for words in cat.per_element.values() for word in words})
    if lengths != list(range(cat.kappa + 1)):
        raise CrossCheckMismatch(
            f"minimal lengths {lengths} do not fill 0..{cat.kappa}"
        )
    return cat.kappa, tuple(lengths)


# -- primes and powerful atoms -------------------------------------------------


def is_prime(S, p) -> tuple[bool, tuple | None]:
    """p is prime iff it is a non-unit that divides a product only by dividing
    a factor.  Returns (flag, counterexample): the first pair (x, y) of
    S.prime_candidates(p) with p | x*y but p dividing neither, or None."""
    _require_element(S, p)
    if S.is_unit(p):
        return False, None
    for x, y in S.prime_candidates(p):
        if S.divides(p, S.mul(x, y)) and not S.divides(p, x) and not S.divides(p, y):
            return False, (x, y)
    return True, None


def is_powerful(S, a) -> tuple[bool, tuple | None]:
    """Decide whether the atom a occurs with a fixed multiplicity (up to
    association) in every factorization of every element.

    For a finite monoid this is a potential labeling of the atom Cayley
    digraph from the identity, with edge weight 1 exactly on edges whose atom
    is associated to a: factorizations of an element are walks to its vertex,
    so a is powerful iff no vertex receives two distinct potentials (see
    AtomAnalysis.powerful_conflict).  Returns (flag, conflict) with
    conflict = (element, potential_a, potential_b).

    For the integer fragment the prime valuation is determined by the element
    itself, so every prime is powerful.
    """
    if a not in S.atom_class_of:
        raise ValueError(f"{a!r} is not an atom")
    return S.powerful(a)


def _signature_fields(limit: int, atoms) -> list[int]:
    """field[q] for each atom q (all <= limit), 0 elsewhere: what appending q
    adds to a word's signature, laid out as integer_class_table says."""
    field = [0] * (limit + 1)
    root = isqrt(limit)
    shift = limit.bit_length()
    for q in atoms:
        if q > root:
            field[q] = q
        else:
            field[q] = 1 << shift
            count, power = 0, q
            while power <= limit:
                count += 1
                power *= q
            shift += count.bit_length()
    return field


def integer_class_table(limit: int) -> int | None:
    """The least n <= limit with two or more factorization classes (distinct
    prime multisets), or None if every n <= limit has one.

    A factorization of n is one of n // p followed by a prime p | n.
    word[n] = word[n // P] + (P,), P the largest prime factor of n, is one of
    n's classes, and every other candidate is sorted(word[n // p] + (p,)) for
    a prime p | n.  Below the least n where some candidate disagrees with
    word[n], every n has one class by induction, so that n's classes are
    exactly its candidates: at least two.  If none disagrees, none has two.

    Each word is held as one int, the signature of its atom multiset, so
    appending p adds field[p] (see _signature_fields).  An atom above
    isqrt(limit) is stored as its value in the lowest limit.bit_length() bits;
    two such atoms multiply past limit, so a word has at most one.  Each atom
    q <= isqrt(limit) counts in its own field above those bits,
    floor(log_q limit).bit_length() bits wide; q^c <= limit bounds its count c,
    so adding never carries between fields.  A signature therefore reads back
    as the count of every small atom and the one large atom, if any: equal
    signatures mean equal multisets, with no fact about primes used.
    """
    if limit < 1:
        raise ValueError("limit must be >= 1")
    # The lists below hold only ints, never part of a cycle, so the cyclic
    # collector would only walk them over and over: pause it.
    collecting = gc.isenabled()
    gc.disable()
    try:
        primes = primes_up_to(limit)
        field = _signature_fields(limit, primes)
        largest = [1] * (limit + 1)
        for p in primes:  # ascending, so the largest prime factor is written last
            largest[p::p] = [p] * (limit // p)
        sig = [0] * (limit + 1)  # sig[1] = 0 is the empty word
        lo = 2
        while lo <= limit:  # block [lo, 2*lo) reads only n // P < lo
            hi = min(2 * lo, limit + 1)
            top = largest[lo:hi]
            sig[lo:hi] = map(
                add,
                map(sig.__getitem__, map(floordiv, range(lo, hi), top)),
                map(field.__getitem__, top),
            )
            lo = hi
        least = None
        for p in primes:  # candidates for n = p*j with largest[j] > p, one pass each
            top = limit // p
            if top <= p:  # then every j <= top has largest[j] <= p
                break
            above = list(map(gt, largest[1 : top + 1], repeat(p)))
            rest = iter(sig[1 : top + 1])
            wanted = map(add, compress(rest, above), repeat(field[p]))
            if any(map(ne, wanted, compress(sig[p::p], above))):
                # any stops at the least j that disagrees and nothing reads ahead, so rest
                # gave sig[1..j]; an index counter per candidate costs ~6% of this loop
                n = p * (top - length_hint(rest))
                least = n if least is None else min(least, n)
        return least
    finally:
        if collecting:
            gc.enable()


# -- factoriality battery -------------------------------------------------------


class FactorialFlags(NamedTuple):
    """Unique-factorization flags, decided with built-in cross-checks.

    factorial: one congruence class per non-unit, decided twice: atomic with
    every atom powerful, and H a group (the two agree on finite monoids);
    minimally_factorial / hmf: one minimal class / one minimal length per
    non-unit; bmf / fmf: atomic with finite minimal length/class sets, which
    the finite catalog witnesses outright.
    """

    factorial: bool
    minimally_factorial: bool
    hmf: bool
    bmf: bool
    fmf: bool


def factorial_battery(H) -> FactorialFlags:
    flags = classify_arithmetic(H)
    nonunits = [x for x in H.elements() if not H.is_unit(x)]
    route_a = flags.atomic and all(is_powerful(H, a)[0] for a in H.atoms)
    # A non-unit x of a finite monoid has a non-unit idempotent power e, and a
    # factorization of e of length l >= 1 gives e = e^j one of length j*l for
    # every j; so a finite monoid is factorial iff it is a group.
    route_b = not nonunits
    if route_a != route_b:
        raise CrossCheckMismatch(
            f"factoriality routes disagree: powerful-atoms={route_a}, group={route_b}"
        )

    cat = minimal_catalog(H)
    if flags.atomic:
        missing = next((x for x in nonunits if not cat.classes_of(x)), None)
        if missing is not None:
            raise CrossCheckMismatch(
                f"atomic carrier but element {missing} has no minimal class"
            )
    return FactorialFlags(
        factorial=route_a,
        minimally_factorial=all(len(cat.classes_of(x)) == 1 for x in nonunits),
        hmf=all(len(cat.minimal_lengths(x)) == 1 for x in nonunits),
        bmf=flags.atomic,
        fmf=flags.atomic,
    )


# -- the atom Cayley digraph ------------------------------------------------------


def _dominated_via_submasks(kg: int, s: int, buckets: dict[int, list[int]], guards: int) -> bool:
    """Whether a packed vector in buckets (keyed by support mask) lies below
    the candidate kg (its vector with every guard bit set) of support s, by a
    lookup of each sub-mask of s.  The walk stops before the empty mask: no
    product of non-units of a finite monoid is the identity, the one element
    with a vector of empty support."""
    m = s
    while m:
        for o in buckets.get(m, ()):
            if (kg - o) & guards == guards:
                return True
        m = (m - 1) & s
    return False


def _dominated_via_buckets(kg: int, s: int, buckets: dict[int, list[int]], guards: int) -> bool:
    """The same answer as _dominated_via_submasks, by a scan of every bucket
    whose mask lies within s."""
    for mask, olds in buckets.items():
        if mask & s == mask:
            for o in olds:
                if (kg - o) & guards == guards:
                    return True
    return False


class AtomAnalysis:
    """The atom Cayley digraph s -> s*a of a finite monoid, kept as
    H.analysis, with each part computed on first use.  Cross-check sides
    share only the successor table: BF reads the length sets, FF one search
    for a back edge, the powerful-atom route of factoriality one potential
    search per atom class it asks about (its other route reads only the unit
    group)."""

    def __init__(self, H):
        self.H = H
        self.succ = tuple(tuple(row[a] for a in H.atoms) for row in H.table)

    @cached_property
    def preds(self) -> list[set[int]]:
        """The predecessor sets of the digraph; only completion_test reads them."""
        preds: list[set[int]] = [set() for _ in self.succ]
        for s, targets in enumerate(self.succ):
            for t in targets:
                preds[t].add(s)
        return preds

    def completion_test(self, x):
        """Membership in the set of vertices from which x is reachable."""
        reach = {x}
        work = [x]
        while work:
            for s in self.preds[work.pop()]:
                if s not in reach:
                    reach.add(s)
                    work.append(s)
        return reach.__contains__

    @cached_property
    def length_sets(self) -> dict[int, LengthSet]:
        """Exact length set of every element.

        Iterates the layer sets S_k (elements reachable from the identity in
        exactly k atom steps) once; the sequence of layers over a finite
        carrier must repeat, which pins down the preperiod and period of
        membership of every element.  One pass over the layers sets bit k of
        an element's mask when the element lies in S_k; a LengthSet is built
        once per distinct mask, and elements with one mask share that frozen
        object.
        """
        layers: list[frozenset] = []
        seen: dict[frozenset, int] = {}
        cur = frozenset({self.H.identity})
        while cur not in seen:
            seen[cur] = len(layers)
            layers.append(cur)
            if len(layers) > LAYER_CAP:
                raise CapExceeded(f"layer iteration exceeded {LAYER_CAP} steps")
            cur = frozenset(t for s in cur for t in self.succ[s])
        first = seen[cur]
        p = len(layers) - first
        masks = [0] * self.H.size
        for k, layer in enumerate(layers):
            bit = 1 << k
            for x in layer:
                masks[x] |= bit
        by_mask = {}
        for mask in dict.fromkeys(masks):
            # bit k of the mask, read from its binary digits; the "0b" prefix has no "1"
            ks = [k for k, b in enumerate(reversed(bin(mask))) if b == "1"]
            residues = {k % p for k in ks if k >= first}
            by_mask[mask] = LengthSet.build([k for k in ks if k < first], first, p, residues)
        return {x: by_mask[mask] for x, mask in enumerate(masks)}

    def reaches_cycle(self) -> bool:
        """Whether a directed cycle, a loop included, is reachable from the
        identity; pumping it yields ever-longer factorizations, hence ever
        more congruence classes.

        One iterative depth-first search marks the vertices on its current
        path and stops at the first edge back to one of them, in
        O(|H| * |A|)."""
        succ = self.succ
        root = self.H.identity
        state = [0] * len(succ)  # 1 while on the current path, 2 once left
        state[root] = 1
        work = [(root, iter(succ[root]))]
        while work:
            v, rest = work[-1]
            w = next(rest, None)
            if w is None:
                state[v] = 2
                work.pop()
            elif state[w] == 1:
                return True
            elif not state[w]:
                state[w] = 1
                work.append((w, iter(succ[w])))
        return False

    @cached_property
    def flags(self) -> ArithmeticFlags:
        """atomic/BF/FF/HF.

        A non-unit is a product of atoms iff its length set is not empty.  BF
        is decided from the exact length sets; FF independently from the
        successor table, as the absence of a cycle reachable from the
        identity.  The two must agree on finite carriers, which the test
        suite asserts.
        """
        H = self.H
        lsets = self.length_sets
        nonunit_sets = [lsets[x] for x in H.elements() if not H.is_unit(x)]
        atomic = not any(ls.is_empty() for ls in nonunit_sets)
        return ArithmeticFlags(
            atomic=atomic,
            bf=atomic and all(ls.is_finite for ls in lsets.values()),
            ff=atomic and not self.reaches_cycle(),
            hf=atomic and all(ls.is_finite and len(ls.finite_part) == 1 for ls in nonunit_sets),
        )

    def powerful_conflict(self, c: int) -> tuple | None:
        """The conflict is_powerful reports for atom class c, or None.

        Class c's potential at a vertex is its letter count on the walk of
        the breadth-first tree from the identity.  The conflict is the first
        edge, in breadth-first order, whose count differs from the potential
        already at its target, as (target, potential, count)."""
        H = self.H
        weights = [H.atom_class_of[a] == c for a in H.atoms]
        potential: list[int | None] = [None] * len(self.succ)
        potential[H.identity] = 0
        queue = [H.identity]
        for s in queue:
            base = potential[s]
            for t, d in zip(self.succ[s], weights):
                old, w = potential[t], base + d
                if old is None:
                    potential[t] = w
                    queue.append(t)
                elif old != w:
                    return t, old, w
        return None

    @cached_property
    def catalog(self) -> MinimalCatalog:
        """Exact minimal classes for every element, by a search over
        (element, class-count vector) states, one layer per word length.

        Each state of a layer, in the order the states were made, is extended
        by atoms in atom order; the new state (y, k) is kept iff k is new for
        y and no vector kept for y in an earlier layer is <= k (a vector
        strictly below k has a smaller total).  This is exact:
        - no minimal class is lost: a prefix of a minimal word is minimal
          (a smaller prefix would give a smaller whole word), so by induction
          on length every minimal state is made from a kept one, and kept;
        - every kept state is minimal: a minimal vector strictly below k
          would have been kept in an earlier layer and blocked k;
        - the search ends: a minimal word repeats no prefix product (cutting
          the loop between repeats leaves a smaller vector), so at most |H|
          layers are non-empty;
        - each representative is the lexicographically first word of its
          state: that word extends the first word of its prefix's state, and
          layers are made, hence kept, in the order of their first words.
        A loop edge x*a == x makes a state dominated by the one it leaves, so
        the first visit to x lists its other out-edges, as positions in the
        atom tuple, once for every later state of x.

        When the atoms commute pairwise, a state is extended only by the
        atoms from its representative's last letter on, so only sorted words
        are made.  This stays exact: every permutation of a word has the same
        product and the same class-count vector, and the sorted one is
        lexicographically <= the word, so the first word of every state is
        sorted, and so is each of its prefixes.  The prefix argument above
        then reaches every minimal state along sorted words alone, and each
        state's first word is still the lexicographically first.  The check
        reads the atoms' own products, so it also holds on monoids that do
        not commute but whose atoms do.

        Each vector is packed into one int with a field of w = |H|.bit_length()
        + 1 bits per atom class, class c at bit (top - c)*w, where top is the
        number of classes less one, so stepping by an atom of class c adds
        1 << (top - c)*w.  A minimal word has at most |H| - 1 letters, so a
        candidate one letter longer counts at most |H| < 2**(w - 1) per class
        and the top bit of each field is free as a guard bit (G holds all of
        them): o <= k iff ((k | G) - o) & G == G, since no field borrows from
        the next and each keeps its guard bit iff it does not go below o's.
        o <= k also needs supp(o) within supp(k) (bit c set iff class c
        occurs), so each element keeps its earlier vectors in buckets keyed by
        support mask.  A query for support s looks up the 2**|s| sub-masks of
        s when they are fewer than the buckets, and otherwise scans the
        buckets for masks within s; an element with no bucket yet is not
        queried.
        With class 0 in the top field and no guard bit set, kept vectors
        compare as ints as they do lexicographically, and a vector's total is
        its word's length, so each element's words are listed by (length,
        packed vector), the order (sum(k), k) of their vectors.  Only the
        words are kept: a class-count vector is its word's letters counted per
        atom class.
        """
        H = self.H
        succ = self.succ
        top = len(H.atom_classes) - 1
        w = H.size.bit_length() + 1
        guards = sum(1 << (c * w + w - 1) for c in range(top + 1))
        steps = [(a, 1 << (top - H.atom_class_of[a]) * w, 1 << H.atom_class_of[a]) for a in H.atoms]
        block = [succ[a] for a in H.atoms]
        commute = block == list(zip(*block))
        kept: list[dict[int, tuple]] = [{} for _ in H.elements()]
        earlier: list[dict[int, list[int]]] = [{} for _ in H.elements()]
        edges: list[list[int] | None] = [None] * H.size
        kept[H.identity][0] = ()
        # a state is (element, packed vector, support, position of its last letter)
        layer = [(H.identity, 0, 0, 0)]
        while layer:
            for x, counts, supp, _ in layer:
                earlier[x].setdefault(supp, []).append(counts)
            made = []
            for x, counts, supp, last in layer:
                word = kept[x][counts]
                row = succ[x]
                out = edges[x]
                if out is None:
                    out = edges[x] = [i for i, y in enumerate(row) if y != x]
                if commute and last:
                    out = out[bisect_left(out, last) :]
                for i in out:
                    y = row[i]
                    a, step, bit = steps[i]
                    k = counts + step
                    reps = kept[y]
                    if k in reps:
                        continue
                    s = supp | bit
                    buckets = earlier[y]
                    if buckets:
                        if 1 << s.bit_count() < len(buckets):
                            dominated = _dominated_via_submasks
                        else:
                            dominated = _dominated_via_buckets
                        if dominated(k | guards, s, buckets, guards):
                            continue
                    reps[k] = word + (a,)
                    made.append((y, k, s, i))
            layer = made

        del earlier, edges  # the buckets and edge lists go before the word lists are built
        per_element = {}
        for x, reps in enumerate(kept):
            per_element[x] = tuple(reps[k] for k in sorted(reps, key=lambda k: (len(reps[k]), k)))
            reps.clear()
        kappa = max(len(word) for words in per_element.values() for word in words)
        return MinimalCatalog(per_element, kappa)
