"""Factorization workbench for finite monoids, an integer fragment, and
finitely presented monoids: atoms, primes, powerful atoms, length sets,
minimal factorizations, power monoids, and rewriting."""

__version__ = "0.1.0"

from .core import (
    FiniteMonoid,
    cyclic,
    direct_product,
    full_transformation,
    gl,
    load_cayley,
    null_monoid,
    property_battery,
    save_cayley,
    trivial,
    two_element_with_zero,
)
from .factorization import (
    IntegerFragment,
    LengthSet,
    MinimalCatalog,
    classify_arithmetic,
    enumerate_factorizations,
    factorial_battery,
    is_powerful,
    is_prime,
    kappa_and_dichotomy,
    length_set,
    minimal_catalog,
    pi_eval,
)
from .power import atomicity_criterion, build_reduced_power_monoid, kappa_report
from .presentations import (
    Presentation,
    adian_check,
    bounded_length_set,
    congruent_bounded,
    ladder_presentation,
    normal_form,
    parse_presentation,
    psi,
    sandwich_power,
    sandwich_xyx,
    verify_ladder_properties,
)
