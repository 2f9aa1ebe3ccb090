"""Regression corpus: every monoid table of small order (identity fixed at
element 0), found by a backtracking search that builds only the tables that
associate, plus a curated menagerie, and the invariant scan run by the
`corpus` command."""

from __future__ import annotations

from .core import (
    ENUMERATION_CAP,
    FiniteMonoid,
    cyclic,
    direct_product,
    gl,
    null_monoid,
    two_element_with_zero,
)
from .errors import CapExceeded
from .factorization import classify_arithmetic
from .power import build_reduced_power_monoid

SUBADDITIVITY_HORIZON = 30


def small_monoids(order: int):
    """All monoid tables of exactly this order with element 0 the identity,
    in the lexicographic order of their rows, each built as a FiniteMonoid.

    Row 0 and column 0 are the identity's, and a depth-first search fills
    the other cells row-major, trying each cell's values in ascending order,
    so the tables come in the order of a scan of all order^(order^2) full
    tables.  After each cell is set, the search checks every triple
    (x, y, z) whose products x*y, (x*y)*z, y*z and x*(y*z) are now all known
    and read this cell in one of those four places; it leaves the branch at
    the first that does not associate.  FiniteMonoid then validates each
    complete table on its own with Light's test.  More than ENUMERATION_CAP
    cell values tried (order 6 on) raise CapExceeded.
    """
    n = order
    if n < 1:
        return
    # the partial table by rows and by columns; an unset product is -1, and
    # so is every product with an unset factor, since row -1 and column -1
    # (the last of each) read -1
    rows = [[x if a == 0 else a if x == 0 else -1 for x in range(n)] + [-1] for a in range(n)]
    rows.append([-1] * (n + 1))
    cols = [list(col) for col in zip(*rows)]
    clash = {(p, q) for p in range(n) for q in range(n) if p != q}  # two set products differ
    cells = [(a, b) for a in range(1, n) for b in range(1, n)]
    set_to = [[] for _ in range(n)]  # set_to[w]: the cells (x, y) now set to w, as a stack
    tried = found = k = 0
    while k >= 0:
        if k == len(cells):
            found += 1
            yield FiniteMonoid([row[:n] for row in rows[:n]])
            k -= 1
            continue
        cell = a, b = cells[k]
        ra, rb, ca, cb = rows[a], rows[b], cols[a], cols[b]
        if ra[b] >= 0:
            set_to[ra[b]].pop()
        for v in range(ra[b] + 1, n):
            tried += 1
            if tried > ENUMERATION_CAP:
                raise CapExceeded(
                    f"order {n}: {tried} cell values tried, above the cap {ENUMERATION_CAP}, "
                    f"after {found} tables"
                )
            ra[b] = cb[a] = v
            set_to[v].append(cell)
            # the triples (x, a, b), (x, y, b) with x*y = a, (a, b, z) and
            # (a, y, z) with y*z = b
            if (
                clash.isdisjoint(zip(map(cb.__getitem__, ca), cols[v]))
                and all(rows[x][cb[y]] in (v, -1) for x, y in set_to[a])
                and clash.isdisjoint(zip(map(ra.__getitem__, rb), rows[v]))
                and all(rows[ra[y]][z] in (v, -1) for y, z in set_to[b])
            ):
                k += 1
                break
            set_to[v].pop()
        else:
            ra[b] = cb[a] = -1
            k -= 1


def curated_corpus() -> list[tuple[str, FiniteMonoid]]:
    n3 = null_monoid(1)
    t4 = null_monoid(2)
    members = [
        ("N3", n3),
        ("T4", t4),
        ("H2", two_element_with_zero()),
    ]
    members += [(f"C{m}", cyclic(m)) for m in range(2, 7)]
    members += [
        ("N3xC2", direct_product(n3, cyclic(2))),
        ("C2xC3", direct_product(cyclic(2), cyclic(3))),
        ("H2xC2", direct_product(two_element_with_zero(), cyclic(2))),
        ("gl(2,2)", gl(2, 2)),
        ("gl(2,3)", gl(2, 3)),
    ]
    members += [
        (f"P1(C{m})", build_reduced_power_monoid(cyclic(m))) for m in range(2, 6)
    ]
    return members


def corpus_members(max_order: int = 3) -> list[tuple[str, FiniteMonoid]]:
    out = []
    for n in range(1, max_order + 1):
        for i, H in enumerate(small_monoids(n)):
            out.append((f"order{n}#{i}", H))
    out += curated_corpus()
    return out


def scan_member(name: str, H: FiniteMonoid) -> list[str]:
    """Check the structural invariants one corpus member must satisfy;
    returns human-readable violation strings (empty = clean)."""
    violations = []
    flags = classify_arithmetic(H)
    if flags.bf != flags.ff:
        violations.append(f"{name}: bf={flags.bf} but ff={flags.ff}")
    if len(H.units) == H.size:
        idempotents = tuple(x for x, row in enumerate(H.table) if x and row[x] == x)
        if idempotents:
            violations.append(f"{name}: group with non-trivial idempotents {idempotents}")
    lsets = H.analysis.length_sets
    lengths = [(x, lx) for x in H.elements() if (lx := lsets[x].up_to(SUBADDITIVITY_HORIZON))]
    # a + b is at most twice the horizon: one lookup set per distinct length set
    upto = {ls: set(ls.up_to(2 * SUBADDITIVITY_HORIZON)) for ls in set(lsets.values())}
    for x, lx in lengths:
        for y, ly in lengths:
            lxy = upto[lsets[H.mul(x, y)]]
            gap = next(((a, b) for a in lx for b in ly if a + b not in lxy), None)
            if gap:
                violations.append(f"{name}: lengths {gap[0]}+{gap[1]} missing at {x}*{y}")
    return violations


def scan_corpus(max_order: int = 3) -> list[str]:
    violations = []
    for name, H in corpus_members(max_order):
        violations += scan_member(name, H)
    return violations
