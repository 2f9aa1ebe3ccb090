"""Independent reference computations the tests check the package against.

Everything here is deliberately naive: exhaustive enumeration, no pruning,
no shared code paths with the implementations under test.
"""

import json
import re
from collections import Counter
from fractions import Fraction
from itertools import product
from math import gcd, lcm
from operator import le
from random import Random


def associativity_triples(table):
    """All (x, y, z) with (x*y)*z != x*(y*z)."""
    n = len(table)
    bad = []
    for x in range(n):
        for y in range(n):
            for z in range(n):
                if table[table[x][y]][z] != table[x][table[y][z]]:
                    bad.append((x, y, z))
    return bad


def first_bad_triple(table):
    """The lexicographically first (x, y, z) with (x*y)*z != x*(y*z), or None:
    the triple scan, stopped at its first fault."""
    n = len(table)
    for x in range(n):
        for y in range(n):
            for z in range(n):
                if table[table[x][y]][z] != table[x][table[y][z]]:
                    return x, y, z
    return None


def brute_small_monoids(n):
    """Every monoid table of order n with element 0 the identity: each of the
    n^(n*n) full tables in lexicographic order, kept iff row 0 and column 0
    are the identity's and every triple associates."""
    out = []
    for flat in product(range(n), repeat=n * n):
        table = tuple(flat[i * n : (i + 1) * n] for i in range(n))
        if all(table[0][x] == x == table[x][0] for x in range(n)) and not associativity_triples(table):
            out.append(table)
    return out


def row_map_light_test(rows, gens):
    """Light's test row by row through the map builtin: (x*a)*y == x*(a*y)
    for every a in gens and every x, y, n^2 * len(gens) subscripts in all."""
    for rx in rows:
        col = rx.__getitem__
        for a in gens:
            if rows[rx[a]] != tuple(map(col, rows[a])):
                return False
    return True


def entry_scan(table):
    """The message of the first fault of a square table of element indices,
    row by row and entry by entry: a row of the wrong length, or an entry
    that is not an int (bools refused) in [0, n).  None if there is none."""
    n = len(table)
    for x, row in enumerate(table):
        if len(row) != n:
            return f"row {x} has length {len(row)}, expected {n}"
        for y, v in enumerate(row):
            if not isinstance(v, int) or isinstance(v, bool) or not 0 <= v < n:
                return f"entry ({x}, {y}) = {v!r} not in [0, {n})"
    return None


def association_orbits(table, units):
    """The two-sided associate classes u*x*v (u, v units) as (class_of,
    classes), classes ordered by smallest member, each orbit by a set of all
    |units|^2 sandwiches."""
    n = len(table)
    units = sorted(units)
    class_of = [-1] * n
    classes = []
    for x in range(n):
        if class_of[x] < 0:
            orbit = sorted({table[table[u][x]][v] for u in units for v in units})
            for y in orbit:
                class_of[y] = len(classes)
            classes.append(tuple(orbit))
    return tuple(class_of), tuple(classes)


def _det(mat, m):
    if len(mat) == 1:
        return mat[0][0] % m
    total = 0
    for j, a in enumerate(mat[0]):
        minor = [row[:j] + row[j + 1 :] for row in mat[1:]]
        total += (-1) ** j * a * _det(minor, m)
    return total % m


def matmul_gl_table(n, m):
    """The table of the invertible n-by-n matrices over Z/m, listed as in
    product(range(m), repeat=n*n) with the identity moved first, filled by
    one tuple matrix product per entry."""
    mats = [
        tuple(flat[i * n : (i + 1) * n] for i in range(n))
        for flat in product(range(m), repeat=n * n)
    ]
    mats = [a for a in mats if gcd(_det([list(r) for r in a], m), m) == 1]
    ident = tuple(tuple(int(i == j) for j in range(n)) for i in range(n))
    mats.remove(ident)
    mats.insert(0, ident)
    pos = {a: i for i, a in enumerate(mats)}

    def matmul(a, b):
        return tuple(
            tuple(sum(a[i][k] * b[k][j] for k in range(n)) % m for j in range(n))
            for i in range(n)
        )

    return [[pos[matmul(a, b)] for b in mats] for a in mats]


def naive_battery(table):
    """The witness of each false structural flag, by exhaustive scans in
    lexicographic order: acyclic (u, x, v), unit_cancellative (x, y),
    cancellative (x, y, z), normalizing (a,), commutative (x, y), reduced (u,)
    and group (x,).  A flag is true iff its key is absent."""
    n = len(table)
    t = table
    units = brute_units(t)
    rng = range(n)
    scans = {
        "acyclic": (
            (u, x, v)
            for u in rng
            for x in rng
            for v in rng
            if (u not in units or v not in units) and t[t[u][x]][v] == x
        ),
        "unit_cancellative": (
            (x, y)
            for x in rng
            for y in rng
            if y not in units and (t[x][y] == x or t[y][x] == x)
        ),
        "cancellative": (
            (x, y, z)
            for x in rng
            for y in rng
            for z in rng
            if x != y and (t[x][z] == t[y][z] or t[z][x] == t[z][y])
        ),
        "normalizing": (
            (a,) for a in rng if {t[a][x] for x in rng} != {t[x][a] for x in rng}
        ),
        "commutative": ((x, y) for x in rng for y in rng if t[x][y] != t[y][x]),
        "reduced": ((u,) for u in sorted(units) if u != 0),
        "group": ((x,) for x in rng if x not in units),
    }
    witnesses = {}
    for flag, scan in scans.items():
        first = next(scan, None)
        if first is not None:
            witnesses[flag] = first
    return witnesses


def brute_units(table):
    n = len(table)
    return {u for u in range(n) if any(table[u][v] == 0 == table[v][u] for v in range(n))}


def brute_atoms(table):
    n = len(table)
    units = brute_units(table)
    nonunits = [x for x in range(n) if x not in units]
    return {
        a
        for a in nonunits
        if all(table[x][y] != a for x in nonunits for y in nonunits)
    }


def brute_divides(table, x, y):
    n = len(table)
    return any(table[table[u][x]][v] == y for u in range(n) for v in range(n))


def all_pairs_prime_scan(table, p):
    """Primality of p in a finite monoid by the scan over every pair (x, y)
    in lexicographic order: (flag, the first pair with p | x*y but p dividing
    neither), with p's multiples read off all n^2 sandwiches u*p*v."""
    n = len(table)
    if p in brute_units(table):
        return False, None
    multiples = {table[table[u][p]][v] for u in range(n) for v in range(n)}
    for x in range(n):
        for y in range(n):
            if table[x][y] in multiples and x not in multiples and y not in multiples:
                return False, (x, y)
    return True, None


def element_order(table, x):
    """|{x, x^2, x^3, ...}|, the number of distinct positive powers of x."""
    powers = []
    p = x
    while p not in powers:
        powers.append(p)
        p = table[p][x]
    return len(powers)


def idempotents(table):
    """Every e with e*e == e, in ascending order (the identity 0 first)."""
    return tuple(e for e in range(len(table)) if table[e][e] == e)


def semigroup_closure(table, seed):
    """The smallest subset containing seed and closed under the product (the
    identity only if generated), by adding all pairwise products until none
    is new."""
    cur = set(seed)
    while True:
        new = {table[x][y] for x in cur for y in cur} - cur
        if not new:
            return frozenset(cur)
        cur |= new


def divisor_closed_closure(table, xs):
    """The least submonoid containing xs that also contains every divisor of
    each of its elements, by adding products and divisors until none is
    new."""
    n = len(table)
    cur = {0} | set(xs)
    while True:
        new = {table[x][y] for x in cur for y in cur}
        new |= {d for m in cur for d in range(n) if brute_divides(table, d, m)}
        if new <= cur:
            return frozenset(cur)
        cur |= new


def reduce_generating_set(table, class_of, classes, gens):
    """Shrink gens to a subset generating the same unit-sandwiched
    subsemigroup (each member replaced by its associate class), with no
    member generated by the sandwiched others.  The first such member in
    ascending order is dropped until none is left, so the result is
    deterministic."""

    def sandwiched(elems):
        return {y for b in elems for y in classes[class_of[b]]}

    current = sorted(set(gens))
    while True:
        for a in current:
            rest = [b for b in current if class_of[b] != class_of[a]]
            if a in semigroup_closure(table, sandwiched(rest)):
                current.remove(a)
                break
        else:
            return frozenset(current)


def restrict_table(table, subset):
    """The table of a product-closed subset containing the identity, its
    members renumbered in ascending order, and the tuple mapping each new
    index back (new index 0 is the identity).  ValueError if the subset
    lacks the identity or a product escapes it."""
    back = tuple(sorted(set(subset)))
    if not back or back[0] != 0:
        raise ValueError("subset must contain the identity 0")
    pos = {e: i for i, e in enumerate(back)}
    try:
        rows = [[pos[table[x][y]] for y in back] for x in back]
    except KeyError as exc:
        raise ValueError(f"subset not closed: {exc.args[0]} escapes") from None
    return rows, back


def potential_labeling(H, a):
    """Decide whether the atom a is powerful by one breadth-first potential
    labeling of s -> s*b from the identity, weight 1 on the atoms b
    associated to a (b = u*a*v with u, v units).  Returns (flag, conflict)
    with conflict = (element, potential_a, potential_b) at the first edge
    whose potential disagrees, in breadth-first edge order."""
    t = H.table
    units = brute_units(t)
    associates = {t[t[u][a]][v] for u in units for v in units}
    potential = {0: 0}
    queue = [0]
    for s in queue:
        for b in H.atoms:
            target = t[s][b]
            w = potential[s] + (b in associates)
            if target not in potential:
                potential[target] = w
                queue.append(target)
            elif potential[target] != w:
                return False, (target, potential[target], w)
    return True, None


def pumpable_vertex(H):
    """The smallest vertex reachable from the identity over s -> s*a that
    lies on a directed cycle, by a search from each such vertex in turn."""
    t = H.table

    def successors(s):
        return [t[s][a] for a in H.atoms]

    reach = {0}
    work = [0]
    while work:
        for nxt in successors(work.pop()):
            if nxt not in reach:
                reach.add(nxt)
                work.append(nxt)
    for v in sorted(reach):
        seen = set()
        work = successors(v)
        while work:
            s = work.pop()
            if s == v:
                return v
            if s not in seen:
                seen.add(s)
                work.extend(successors(s))
    return None


def brute_lengths(H, x, horizon):
    """Walk lengths from the identity to x, by direct layer iteration."""
    found = set()
    layer = {0}
    if x in layer:
        found.add(0)
    for k in range(1, horizon + 1):
        layer = {H.mul(s, a) for s in layer for a in H.atoms}
        if x in layer:
            found.add(k)
    return found


def per_element_length_sets(table, atoms):
    """Each element's length set as raw (finite, threshold, period, residues),
    one membership loop per element.  The layer sets S_k, the elements
    reachable from the identity in exactly k atom steps, repeat from some
    S_first on with period p; x's lengths below first are the k with x in S_k,
    and from first on the residues mod p of those k."""
    layers, seen = [], {}
    cur = frozenset({0})
    while cur not in seen:
        seen[cur] = len(layers)
        layers.append(cur)
        cur = frozenset(table[s][a] for s in cur for a in atoms)
    first = seen[cur]
    p = len(layers) - first
    out = []
    for x in range(len(table)):
        finite = [k for k in range(first) if x in layers[k]]
        residues = {k % p for k in range(first, len(layers)) if x in layers[k]}
        out.append((finite, first, p, residues))
    return out


def class_count_vector(atom_class_of, n_classes, word):
    """Letter counts of an atom word per associate class of atoms."""
    counts = [0] * n_classes
    for a in word:
        counts[atom_class_of[a]] += 1
    return tuple(counts)


def _word_value(table, w):
    x = 0
    for a in w:
        x = table[x][a]
    return x


def domination(H, wa, wb):
    """Compare two atom words under the domination preorder: equal
    evaluations, and the associate-class multiset of one word inside the
    other's.  Returns "different_products", "equivalent" (mutual
    domination), "a_strictly_below", "b_strictly_below" or "incomparable"."""
    if _word_value(H.table, wa) != _word_value(H.table, wb):
        return "different_products"
    ca = Counter(H.atom_class_of[a] for a in wa)
    cb = Counter(H.atom_class_of[a] for a in wb)
    if ca == cb:
        return "equivalent"
    if ca <= cb:
        return "a_strictly_below"
    if cb <= ca:
        return "b_strictly_below"
    return "incomparable"


def is_minimal_word(H, w):
    """No strictly shorter atom word with the same evaluation has its class
    multiset inside w's, by trying every atom word of each shorter length."""
    x = _word_value(H.table, w)
    cw = Counter(H.atom_class_of[a] for a in w)
    return not any(
        _word_value(H.table, v) == x and Counter(H.atom_class_of[a] for a in v) <= cw
        for k in range(len(w))
        for v in product(H.atoms, repeat=k)
    )


def word_catalog(H, max_words=200_000):
    """Minimal classes per element by enumerating every atom word of length
    <= |H| - 1, no pruning.  Returns (per-element class-key sets, kappa), or
    None when the word count would be unreasonable."""
    atoms = H.atoms
    horizon = H.size - 1
    total = sum(len(atoms) ** k for k in range(horizon + 1))
    if total > max_words:
        return None
    classes = {x: set() for x in H.elements()}
    width = len(H.atom_classes)
    for k in range(horizon + 1):
        for word in product(atoms, repeat=k):
            el = 0
            counts = [0] * width
            for a in word:
                el = H.mul(el, a)
                counts[H.atom_class_of[a]] += 1
            classes[el].add(tuple(counts))
    return _min_filter(classes)


def class_space_catalog(H):
    """Minimal classes per element via breadth-first search over
    (element, count-vector) states up to length |H| - 1; independent of the
    word-level pruning used in production."""
    atoms = H.atoms
    width = len(H.atom_classes)
    horizon = H.size - 1
    classes = {x: set() for x in H.elements()}
    frontier = {(0, (0,) * width)}
    classes[0].add((0,) * width)
    for _ in range(horizon):
        nxt = set()
        for el, counts in frontier:
            for a in atoms:
                el2 = H.mul(el, a)
                c2 = list(counts)
                c2[H.atom_class_of[a]] += 1
                state = (el2, tuple(c2))
                if state not in nxt and tuple(c2) not in classes[el2]:
                    nxt.add(state)
        for el, counts in nxt:
            classes[el].add(counts)
        frontier = nxt
    return _min_filter(classes)


def path_catalog(H):
    """Minimal classes per element, with representatives, by a depth-first
    walk over s -> s*a from the identity 0 (atoms in order) that never
    revisits a product on its current path, since a repeated product marks a
    loop whose excision leaves a dominating word.  The first word met for
    each (element, class-count vector) is its representative; a pairwise
    filter then drops every dominated vector.  Returns ({element: [(counts,
    word), ...] by (length, counts)}, kappa) over the reachable elements."""
    width = max(H.atom_class_of.values(), default=-1) + 1
    first = {}

    def walk(prod, word, counts, on_path):
        first.setdefault(prod, {}).setdefault(tuple(counts), word)
        for a in H.atoms:
            nxt = H.mul(prod, a)
            if nxt not in on_path:
                counts[H.atom_class_of[a]] += 1
                walk(nxt, word + (a,), counts, on_path | {nxt})
                counts[H.atom_class_of[a]] -= 1

    walk(0, (), [0] * width, {0})
    catalog = {}
    for el, reps in first.items():
        kept = [
            k
            for k in reps
            if not any(o != k and all(map(le, o, k)) for o in reps)
        ]
        catalog[el] = [(k, reps[k]) for k in sorted(kept, key=lambda k: (sum(k), k))]
    kappa = max(sum(k) for entries in catalog.values() for k, _ in entries)
    return catalog, kappa


def tuple_layered_catalog(table, atoms, atom_class_of):
    """Minimal classes of every element of the monoid with this table
    (identity 0), with representatives, by a layered search over (element,
    count-vector) states kept as tuples: a new state (y, k) is kept iff k is
    new for y and no vector kept for y in an earlier layer is <= k, scanning
    all of them.  Returns ({element: [(counts, word), ...] by (length,
    counts)}, kappa) over every element."""
    zero = (0,) * len(set(atom_class_of.values()))
    kept = [{} for _ in table]
    earlier = [[] for _ in table]
    kept[0][zero] = ()
    layer = [(0, zero)]
    while layer:
        for x, counts in layer:
            earlier[x].append(counts)
        made = []
        for x, counts in layer:
            for a in atoms:
                y, c = table[x][a], atom_class_of[a]
                if y == x:
                    continue
                k = counts[:c] + (counts[c] + 1,) + counts[c + 1 :]
                reps = kept[y]
                if k in reps or any(all(map(le, o, k)) for o in earlier[y]):
                    continue
                reps[k] = kept[x][counts] + (a,)
                made.append((y, k))
        layer = made
    catalog = {
        x: [(k, reps[k]) for k in sorted(reps, key=lambda k: (sum(k), k))]
        for x, reps in enumerate(kept)
    }
    kappa = max(sum(k) for reps in kept for k in reps)
    return catalog, kappa


def packed_bucket_catalog(table, atoms, atom_class_of, routes=None):
    """The layered search of tuple_layered_catalog with each vector packed
    into one int, a field of len(table).bit_length() + 1 bits per class whose
    top bit is a guard bit, so o <= k iff ((k | G) - o) & G == G.  Each
    element keeps its earlier vectors in buckets keyed by support mask, and a
    query scans every bucket and skips the masks not within the candidate's
    support.  Vectors are unpacked by one shift and mask per class.  When a
    Counter is given as routes, each query adds 1 to "submasks" if two to the
    candidate's support size is below its element's bucket count, and to
    "buckets" otherwise.  Same return value as tuple_layered_catalog."""
    classes = range(len(set(atom_class_of.values())))
    w = len(table).bit_length() + 1
    guards = sum(1 << (c * w + w - 1) for c in classes)
    kept = [{} for _ in table]
    earlier = [{} for _ in table]
    kept[0][0] = ()
    layer = [(0, 0, 0)]
    while layer:
        for x, counts, supp in layer:
            earlier[x].setdefault(supp, []).append(counts)
        made = []
        for x, counts, supp in layer:
            for a in atoms:
                y, c = table[x][a], atom_class_of[a]
                if y == x:
                    continue
                k = counts + (1 << c * w)
                reps = kept[y]
                if k in reps:
                    continue
                s = supp | 1 << c
                if routes is not None:
                    routes["submasks" if 1 << s.bit_count() < len(earlier[y]) else "buckets"] += 1
                kg = k | guards
                if any(
                    (kg - o) & guards == guards
                    for mask, olds in earlier[y].items()
                    if mask & s == mask
                    for o in olds
                ):
                    continue
                reps[k] = kept[x][counts] + (a,)
                made.append((y, k, s))
        layer = made
    field = (1 << w) - 1
    catalog = {}
    for x, reps in enumerate(kept):
        vectors = {tuple(k >> c * w & field for c in classes): rep for k, rep in reps.items()}
        catalog[x] = [(k, vectors[k]) for k in sorted(vectors, key=lambda k: (sum(k), k))]
    kappa = max(sum(k) for reps in catalog.values() for k, _ in reps)
    return catalog, kappa


def setwise_power_table(table, names):
    """The reduced power monoid of the monoid with this table (identity 0):
    the identity-containing subsets, as characteristic masks in increasing
    order, multiplied elementwise pair by pair.  Returns (table, names,
    subset_of) in the order of the masks."""
    n = len(table)
    masks = [m | 1 for m in range(0, 1 << n, 2)]
    pos = {m: i for i, m in enumerate(masks)}

    def bits(mask):
        return [i for i in range(n) if mask >> i & 1]

    def setwise(ma, mb):
        out = 0
        for x in bits(ma):
            for y in bits(mb):
                out |= 1 << table[x][y]
        return out

    power = [[pos[setwise(ma, mb)] for mb in masks] for ma in masks]
    subset_names = ["{" + ",".join(names[i] for i in bits(m)) + "}" for m in masks]
    return power, subset_names, [frozenset(bits(m)) for m in masks]


def _min_filter(classes):
    minimal = {}
    kappa = 0
    for el, keys in classes.items():
        kept = {
            k
            for k in keys
            if not any(
                other != k and all(o <= c for o, c in zip(other, k))
                for other in keys
            )
        }
        minimal[el] = kept
        for k in kept:
            kappa = max(kappa, sum(k))
    return minimal, kappa


def brute_ordered_factorizations(limit, n, max_len):
    """Every ordered prime word with product n, by divisor-tree recursion."""
    primes = [p for p in range(2, limit + 1) if all(p % d for d in range(2, p))]

    def rec(m, depth):
        if m == 1:
            yield ()
            return
        if depth == 0:
            return
        for p in primes:
            if p > m:
                break
            if m % p == 0:
                for rest in rec(m // p, depth - 1):
                    yield (p,) + rest

    return sorted(rec(n, max_len))


def smallest_prime_factorization(n):
    """Trial-division factorization: the classical single multiset."""
    out = []
    d = 2
    while d * d <= n:
        while n % d == 0:
            out.append(d)
            n //= d
        d += 1
    if n > 1:
        out.append(n)
    return tuple(out)


def integer_class_sets(limit):
    """For each n <= limit, the set of sorted prime tuples realizable by a
    factorization of n, bottom-up over every prime divisor: table[n] is the
    union over p | n of sorted(m + (p,)) for m in table[n // p].  table[0] is
    None and table[1] is {()}; no uniqueness is assumed."""
    prime_divisors = [[] for _ in range(limit + 1)]
    for p in range(2, limit + 1):
        if not prime_divisors[p]:  # no smaller prime divides p
            for m in range(p, limit + 1, p):
                prime_divisors[m].append(p)
    table = [None] * (limit + 1)
    table[1] = {()}
    for n in range(2, limit + 1):
        found = set()
        for p in prime_divisors[n]:
            found.update(tuple(sorted(m + (p,))) for m in table[n // p])
        table[n] = found
    return table


def tuple_integer_class_table(limit, atoms):
    """The least n <= limit at which some candidate word disagrees with the
    canonical one, or None, with words kept as sorted tuples of atoms.
    word[n] = word[n // P] + (P,), P the largest atom dividing n; for each
    atom p | n with largest[n // p] > p the candidate is
    sorted(word[n // p] + (p,))."""
    atoms = sorted(a for a in atoms if a <= limit)
    largest = [1] * (limit + 1)
    for a in atoms:
        for m in range(a, limit + 1, a):
            largest[m] = a
    word = [None, ()] + [None] * (limit - 1)
    for n in range(2, limit + 1):
        word[n] = word[n // largest[n]] + (largest[n],)
    least = None
    for p in atoms:
        for j in range(1, limit // p + 1):
            if largest[j] > p and tuple(sorted(word[j] + (p,))) != word[p * j]:
                least = p * j if least is None else min(least, p * j)
                break
    return least


def integer_prime_scan(limit, p):
    """Primality of p in the integers 1..limit under multiplication, by the
    all-pairs scan: (flag, the first pair (x, y) with x*y <= limit in
    lexicographic order such that p | x*y but p divides neither)."""
    if not 1 <= p <= limit:
        raise ValueError(f"{p!r} is not an element")
    if p == 1:
        return False, None
    for x in range(1, limit + 1):
        for y in range(1, limit // x + 1):
            if (x * y) % p == 0 and x % p and y % p:
                return False, (x, y)
    return True, None


def multigraph_has_cycle(vertices, edges):
    """Exhaustive: loops, parallel edges, or any simple cycle."""
    for a, b in edges:
        if a == b:
            return True
    seen_pairs = set()
    for a, b in edges:
        key = frozenset((a, b))
        if key in seen_pairs:
            return True
        seen_pairs.add(key)
    adjacency = {v: set() for v in vertices}
    for a, b in edges:
        adjacency[a].add(b)
        adjacency[b].add(a)
    visited = set()
    for start in vertices:
        if start in visited:
            continue
        stack = [(start, None)]
        component = set()
        while stack:
            v, parent = stack.pop()
            if v in component:
                return True
            component.add(v)
            for w in adjacency[v]:
                if w != parent:
                    stack.append((w, v))
        visited |= component
    return False


def psi_dp(s):
    """Max number of disjoint x y^k z substrings via dynamic programming."""
    n = len(s)
    best = [0] * (n + 1)
    for i in range(n - 1, -1, -1):
        best[i] = best[i + 1]
        if s[i] == "x":
            j = i + 1
            while j < n and s[j] == "y":
                j += 1
            if j < n and s[j] == "z":
                best[i] = max(best[i], 1 + best[j + 1])
    return best[0]


def leftmost_normal_form(s):
    """Ladder normal form of the string s: contract y x y^m z w -> x y^(m-1) z
    at the leftmost occurrence, searching again from position 0 each time."""
    while True:
        m = re.search(r"yxy+zw", s)
        if m is None:
            return s
        i, j = m.start(), m.end()
        s = s[:i] + "x" + "y" * (j - i - 5) + "z" + s[j:]



# The ladder verifier's draws as written before they took getrandbits bits
# directly: one Random.choice or Random.randint call per draw.

_LADDER_FACTOR = re.compile(r"xy*z")
_LADDER_CONTRACT = re.compile(r"yxy+zw")


def _ladder_contract(s, i, j):
    return s[:i] + "x" + "y" * (j - i - 5) + "z" + s[j:]


def choice_ladder_word(rng, max_len):
    return "".join(rng.choice(("w", "x", "y", "z")) for _ in range(rng.randint(0, max_len)))


def choice_congruent(rng, s, steps):
    """steps random expansions x y^k z -> y x y^(k+1) z w or contractions,
    each drawn by rng.choice over every occurrence."""
    for _ in range(steps):
        moves = [("expand", m.start(), m.end()) for m in _LADDER_FACTOR.finditer(s)]
        moves += [("contract", m.start(), m.end()) for m in _LADDER_CONTRACT.finditer(s)]
        if not moves:
            break
        kind, i, j = rng.choice(moves)
        if kind == "expand":
            k = j - i - 2
            s = s[:i] + "yx" + "y" * (k + 1) + "zw" + s[j:]
        else:
            s = _ladder_contract(s, i, j)
    return s


def choice_order_normal_form(rng, s):
    """Contract an occurrence drawn by rng.choice until none is left."""
    while True:
        ms = list(_LADDER_CONTRACT.finditer(s))
        if not ms:
            return s
        m = rng.choice(ms)
        s = _ladder_contract(s, m.start(), m.end())


def ladder_verification(samples, max_len, seed, record=None):
    """The fields of the ladder verification report, in order: the same
    checks on the same draws, by Random.choice and Random.randint, with
    leftmost_normal_form as the normal form and psi_dp as psi.

    A record list gets, in draw order, ("rewrite", word, steps) for each
    rewrite and ("contract", probe) for each random-order contraction."""
    nf = leftmost_normal_form
    log = [] if record is None else record

    def rewrite(rng, s, steps):
        log.append(("rewrite", s, steps))
        return choice_congruent(rng, s, steps)

    def contract(rng, s):
        log.append(("contract", s))
        return choice_order_normal_form(rng, s)

    rng = Random(seed)
    canc_hits = canc_fail = acyc_hits = acyc_fail = conf_fail = 0
    for _ in range(samples):
        z = choice_ladder_word(rng, max_len)
        u = choice_ladder_word(rng, max_len)
        if rng.random() < 0.5:
            v = rewrite(rng, u, rng.randint(1, 3))
        else:
            v = choice_ladder_word(rng, max_len)
        for same in (nf(z + u) == nf(z + v), nf(u + z) == nf(v + z)):
            if same:
                canc_hits += 1
                canc_fail += nf(u) != nf(v)
        a = u if rng.random() < 0.5 else ""
        b = v if rng.random() < 0.5 else ""
        if nf(a + z + b) == nf(z):
            acyc_hits += 1
            acyc_fail += bool(a or b)
        probe = rewrite(rng, z + u, rng.randint(0, 2))
        conf_fail += contract(rng, probe) != nf(probe)
    rng = Random(seed)
    pairs = max(samples // 10, 1)
    psi_fail = 0
    for _ in range(pairs):
        u = choice_ladder_word(rng, max_len)
        v = rewrite(rng, u, rng.randint(1, 4))
        psi_fail += psi_dp(u) != psi_dp(v)
    return (samples, canc_hits, canc_fail, acyc_hits, acyc_fail, conf_fail, pairs, psi_fail)


def fraction_functional_basis(generators, relations):
    """The canonical integer basis of the letter-count functionals that every
    relation preserves, by Gauss-Jordan elimination over Fraction: per free
    column, the rational null vector that is 1 there and 0 at the other free
    columns, cleared of denominators and made primitive with a positive lead."""
    width = len(generators)
    rows = [
        [lhs.count(g) - rhs.count(g) for g in generators]
        for lhs, rhs in relations
    ]
    mat = [[Fraction(v) for v in row] for row in rows]
    pivots = []
    r = 0
    for c in range(width):
        pr = next((i for i in range(r, len(mat)) if mat[i][c]), None)
        if pr is None:
            continue
        mat[r], mat[pr] = mat[pr], mat[r]
        pv = mat[r][c]
        mat[r] = [v / pv for v in mat[r]]
        for i in range(len(mat)):
            if i != r and mat[i][c]:
                f = mat[i][c]
                mat[i] = [a - f * b for a, b in zip(mat[i], mat[r])]
        pivots.append(c)
        r += 1
    basis = []
    pivot_set = set(pivots)
    for fc in (c for c in range(width) if c not in pivot_set):
        vec = [Fraction(0)] * width
        vec[fc] = Fraction(1)
        for pr, pc in enumerate(pivots):
            vec[pc] = -mat[pr][fc]
        den = lcm(*(v.denominator for v in vec))
        g = gcd(*(int(v * den) for v in vec))  # >= 1: vec[fc] is 1
        ints = [int(v * den) // g for v in vec]
        lead = next((v for v in ints if v), 1)
        if lead < 0:
            ints = [-v for v in ints]
        basis.append(tuple(ints))
    return tuple(basis)


def smith_normal_form(generators, relations):
    """The Smith normal form S = U*R*V of the relations' letter-count
    difference matrix R, by row and column operations over the integers:
    (d, V), with d the positive diagonal entries d_1 | d_2 | ... of S and V
    the unimodular matrix of the column operations.  Each round takes the
    entry of least absolute value in the unfinished block as pivot, clears
    its row and column by division with remainder, and when a block entry is
    not a multiple of the pivot, adds that entry's row to the pivot row."""
    width = len(generators)
    m = [[lhs.count(g) - rhs.count(g) for g in generators] for lhs, rhs in relations]
    V = [[int(i == j) for j in range(width)] for i in range(width)]

    def column_op(j, t, q):  # column j -= q * column t, in m and in V
        for mat in (m, V):
            for row in mat:
                row[j] -= q * row[t]

    def swap_columns(j, t):
        for mat in (m, V):
            for row in mat:
                row[j], row[t] = row[t], row[j]

    d = []
    t = 0
    while True:
        block = [(abs(m[i][j]), i, j) for i in range(t, len(m)) for j in range(t, width) if m[i][j]]
        if not block:
            return d, V
        _, i, j = min(block)
        m[t], m[i] = m[i], m[t]
        swap_columns(j, t)
        p = m[t][t]
        for i in range(t + 1, len(m)):
            q = m[i][t] // p
            m[i] = [a - q * b for a, b in zip(m[i], m[t])]
        for j in range(t + 1, width):
            column_op(j, t, m[t][j] // p)
        if any(m[i][t] for i in range(t + 1, len(m))) or any(m[t][t + 1 :]):
            continue
        bad = next((i for i in range(t + 1, len(m)) if any(a % p for a in m[i][t + 1 :])), None)
        if bad is not None:
            m[t] = [a + b for a, b in zip(m[t], m[bad])]
            continue
        d.append(abs(p))
        t += 1


def smith_lattice_member(smith, delta):
    """Whether the letter-count vector delta is an integer combination of the
    relations' letter-count differences, given smith = (d, V) of their
    smith_normal_form: with S = U*R*V, delta = x*R for an integer x exactly
    when delta*V = y*S for an integer y, that is when (delta*V)_i is a
    multiple of d_i for i up to the rank and 0 after it."""
    d, V = smith
    image = [sum(a * row[j] for a, row in zip(delta, V)) for j in range(len(delta))]
    return all(x % di == 0 for x, di in zip(image, d)) and not any(image[len(d) :])


def tuple_rewrites(word, relations):
    """Every tuple word one relation application away, relation by relation,
    forwards then backwards, position by position, comparing a slice at every
    position."""
    for lhs, rhs in relations:
        for a, b in ((lhs, rhs), (rhs, lhs)):
            la = len(a)
            for i in range(len(word) - la + 1):
                if word[i : i + la] == a:
                    yield word[:i] + b + word[i + la :]


def tuple_chain_valid(relations, chain):
    """Every consecutive pair of tuple words differs by one rewrite."""
    return all(b in set(tuple_rewrites(a, relations)) for a, b in zip(chain, chain[1:]))


def tuple_congruence_search(relations, u, v, budget):
    """Bidirectional breadth-first search on tuple words, growing the smaller
    frontier and counting one expansion per word taken from it:
    ("equivalent", chain) on a meet, ("unknown", None) once the budget runs
    out or a frontier empties.  No letter-count refutation."""
    if u == v:
        return "equivalent", (u,)
    parents = [{u: None}, {v: None}]
    frontiers = [[u], [v]]
    expansions = 0
    while frontiers[0] and frontiers[1]:
        side = 0 if len(frontiers[0]) <= len(frontiers[1]) else 1
        mine, other = parents[side], parents[1 - side]
        fresh = []
        for w in frontiers[side]:
            expansions += 1
            if expansions > budget:
                return "unknown", None
            for nxt in tuple_rewrites(w, relations):
                if nxt in mine:
                    continue
                mine[nxt] = w
                if nxt in other:
                    path, x = [], nxt
                    while x is not None:
                        path.append(x)
                        x = parents[0][x]
                    path.reverse()
                    x = parents[1][nxt]
                    while x is not None:
                        path.append(x)
                        x = parents[1][x]
                    return "equivalent", tuple(path)
                fresh.append(nxt)
        frontiers[side] = fresh
    return "unknown", None


def tuple_length_probe(relations, target, max_len, budget):
    """Breadth-first rewriting closure of a tuple word: (lengths up to
    max_len, complete).  Words longer than max_len plus the largest length
    change of a relation are not expanded, and complete is cleared when one
    is met or the budget runs out."""
    cap = max_len + max((abs(len(l) - len(r)) for l, r in relations), default=0)
    seen = {target}
    frontier = [target]
    lengths = {len(target)} if len(target) <= max_len else set()
    complete = True
    expansions = 0
    while frontier:
        fresh = []
        for w in frontier:
            expansions += 1
            if expansions > budget:
                return tuple(sorted(lengths)), False
            for nxt in tuple_rewrites(w, relations):
                if nxt in seen:
                    continue
                seen.add(nxt)
                if len(nxt) <= max_len:
                    lengths.add(len(nxt))
                if len(nxt) <= cap:
                    fresh.append(nxt)
                else:
                    complete = False
        frontier = fresh
    return tuple(sorted(lengths)), complete


def stdlib_json_text(obj):
    """The text a report writer must match byte for byte: the standard
    library's encoder with sorted keys and an indent of 2 (with an indent it
    runs the pure-Python encoder)."""
    return json.dumps(obj, sort_keys=True, indent=2)


def nested_text(data, indent=0):
    """The `--format text` rendering a report must match: sorted `key:` lines
    for a dict, `-` lines for a list, nested containers indented by two
    spaces.  It writes a bare `-` and a blank line for an empty container
    inside a list, which no report holds."""
    lines = []
    pad = "  " * indent
    if isinstance(data, dict):
        for key in sorted(data):
            value = data[key]
            if isinstance(value, (dict, list)) and value:
                lines.append(f"{pad}{key}:")
                lines.append(nested_text(value, indent + 1))
            elif isinstance(value, (dict, list)):
                lines.append(f"{pad}{key}: {'{}' if isinstance(value, dict) else '[]'}")
            else:
                lines.append(f"{pad}{key}: {value}")
    elif isinstance(data, list):
        for value in data:
            if isinstance(value, (dict, list)):
                lines.append(f"{pad}-")
                lines.append(nested_text(value, indent + 1))
            else:
                lines.append(f"{pad}- {value}")
    else:
        lines.append(f"{pad}{data}")
    return "\n".join(lines)
