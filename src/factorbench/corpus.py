"""Regression corpus: every monoid table of small order (identity fixed at
element 0) plus a curated menagerie, and the invariant scan run by the
`corpus` command."""

from __future__ import annotations

from itertools import product as iproduct

from .core import (
    ENUMERATION_CAP,
    FiniteMonoid,
    cyclic,
    direct_product,
    gl,
    null_monoid,
    property_battery,
    two_element_with_zero,
)
from .errors import CapExceeded, NoIdentity, NotAssociative
from .factorization import classify_arithmetic
from .power import build_reduced_power_monoid

SUBADDITIVITY_HORIZON = 30


def small_monoids(order: int):
    """All monoid tables of exactly this order: every full table is a
    candidate, kept iff element 0 is an identity and the table associates.
    More than ENUMERATION_CAP candidates (order 4 on) raise CapExceeded."""
    n = order
    if n ** (n * n) > ENUMERATION_CAP:
        raise CapExceeded(f"{n}^{n * n} candidate tables of order {n} exceed cap {ENUMERATION_CAP}")
    for flat in iproduct(range(n), repeat=n * n):
        table = [flat[i * n : (i + 1) * n] for i in range(n)]
        try:
            yield FiniteMonoid(table)
        except (NoIdentity, NotAssociative):
            continue


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
    rep = property_battery(H)
    flags = classify_arithmetic(H)

    if rep.acyclic != rep.group:
        violations.append(f"{name}: acyclic={rep.acyclic} but group={rep.group}")
    if flags.bf != flags.ff:
        violations.append(f"{name}: bf={flags.bf} but ff={flags.ff}")
    if rep.acyclic and not rep.unit_cancellative:
        violations.append(f"{name}: acyclic but not unit-cancellative")
    if rep.acyclic:
        idempotents = tuple(x for x, row in enumerate(H.table) if x and row[x] == x)
        if idempotents:
            violations.append(f"{name}: acyclic with non-trivial idempotents {idempotents}")
    lsets = H.analysis.length_sets
    lengths = [(x, lx) for x in H.elements() if (lx := lsets[x].up_to(SUBADDITIVITY_HORIZON))]
    for x, lx in lengths:
        for y, ly in lengths:
            lxy = lsets[H.mul(x, y)]
            gap = next(((a, b) for a in lx for b in ly if a + b not in lxy), None)
            if gap:
                violations.append(f"{name}: lengths {gap[0]}+{gap[1]} missing at {x}*{y}")
    return violations


def scan_corpus(max_order: int = 3) -> list[str]:
    violations = []
    for name, H in corpus_members(max_order):
        violations += scan_member(name, H)
    return violations
