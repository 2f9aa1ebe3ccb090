"""Reduced power monoids: identity-containing subsets of a finite monoid
under setwise multiplication, with the atomicity criterion and the kappa
bound read off the base monoid.  The power monoid P(K) itself is built in
core, with the other built instances, and kept as K.reduced_power."""

from __future__ import annotations

from typing import NamedTuple

from .core import FiniteMonoid
from .errors import CrossCheckMismatch
from .factorization import classify_arithmetic, minimal_catalog


def build_reduced_power_monoid(K: FiniteMonoid) -> FiniteMonoid:
    """The reduced power monoid of K, built once and kept as K.reduced_power."""
    return K.reduced_power


def atomicity_criterion(K: FiniteMonoid) -> bool:
    """The base-monoid test (no x outside the identity with x*x == 1 or
    x*x == x), cross-checked against direct atomicity of the built power
    monoid."""
    syntactic = all(
        K.table[x][x] != 0 and K.table[x][x] != x for x in range(1, K.size)
    )
    direct = classify_arithmetic(build_reduced_power_monoid(K)).atomic
    if syntactic != direct:
        raise CrossCheckMismatch(
            f"power-monoid atomicity: criterion={syntactic}, direct={direct}"
        )
    return syntactic


class KappaReport(NamedTuple):
    kappa: int
    bound: int
    attains_bound: bool


def kappa_report(K: FiniteMonoid) -> KappaReport:
    """kappa of the reduced power monoid against the proven bound |K| - 1."""
    cat = minimal_catalog(build_reduced_power_monoid(K))
    bound = K.size - 1
    if cat.kappa > bound:
        raise CrossCheckMismatch(f"kappa {cat.kappa} exceeds bound {bound}")
    return KappaReport(cat.kappa, bound, cat.kappa == bound)
