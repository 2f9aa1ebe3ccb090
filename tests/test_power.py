import pytest

import factorbench as fb
from factorbench.corpus import corpus_members
from factorbench.errors import CapExceeded, CrossCheckMismatch
from factorbench.factorization import MinimalCatalog
from factorbench.power import (
    atomicity_criterion,
    build_reduced_power_monoid,
    kappa_report,
)
from oracles import idempotents, setwise_power_table


def _spelled(K, subsets):
    """The element names that spell out these subsets of K."""
    return tuple("{" + ",".join(K.names[i] for i in sorted(s)) + "}" for s in subsets)


def test_build_c2():
    K = fb.cyclic(2)
    P = build_reduced_power_monoid(K)
    assert P.size == 2
    assert P.names == ("{1}", "{1,g}")
    subset_of = setwise_power_table(K.table, K.names)[2]
    assert subset_of == [frozenset({0}), frozenset({0, 1})]
    assert P.names == _spelled(K, subset_of)


def test_build_c3_setwise_products():
    K = fb.cyclic(3)
    P = build_reduced_power_monoid(K)
    assert P.size == 4
    b = P.names.index("{1,g}")
    full = P.names.index("{1,g,g^2}")
    assert P.mul(b, b) == full
    # setwise product recomputed from the base by hand
    subset_of = setwise_power_table(K.table, K.names)[2]
    assert P.names == _spelled(K, subset_of)
    pairwise = {K.mul(x, y) for x in subset_of[b] for y in subset_of[b]}
    assert pairwise == subset_of[P.mul(b, b)]


def test_build_c5_size():
    assert build_reduced_power_monoid(fb.cyclic(5)).size == 16


def test_every_subset_contains_identity():
    for m in range(2, 6):
        K = fb.cyclic(m)
        subset_of = setwise_power_table(K.table, K.names)[2]
        assert all(0 in s for s in subset_of)
        assert build_reduced_power_monoid(K).names == _spelled(K, subset_of)


def test_power_monoids_are_reduced():
    for m in range(2, 6):
        P = build_reduced_power_monoid(fb.cyclic(m))
        assert sorted(P.units) == [0]


def test_size_cap():
    for K in (fb.gl(2, 3), fb.cyclic(12)):  # 48 and 12 elements
        with pytest.raises(CapExceeded, match=rf"base of size {K.size} has order \d+, above the cap 1024"):
            build_reduced_power_monoid(K)


def test_atomicity_criterion_cyclic():
    assert atomicity_criterion(fb.cyclic(2)) is False
    assert atomicity_criterion(fb.cyclic(3)) is True
    assert atomicity_criterion(fb.cyclic(4)) is False
    assert atomicity_criterion(fb.cyclic(5)) is True


def test_atomicity_criterion_cross_checks_on_small_bases(sample_corpus):
    for name, K in sample_corpus:
        if K.size > 6:
            continue
        atomicity_criterion(K)  # raises CrossCheckMismatch on disagreement


def test_kappa_reports():
    def atomic(K):
        return fb.classify_arithmetic(build_reduced_power_monoid(K)).atomic

    rep = kappa_report(fb.cyclic(3))
    assert (rep.kappa, rep.bound, rep.attains_bound) == (2, 2, True)
    assert atomic(fb.cyclic(3))
    rep = kappa_report(fb.cyclic(5))
    assert (rep.kappa, rep.bound, rep.attains_bound) == (4, 4, True)
    rep = kappa_report(fb.cyclic(2))
    assert rep.kappa <= 1 and not atomic(fb.cyclic(2))


def test_atomicity_routes_can_disagree():
    K = fb.cyclic(3)
    P = build_reduced_power_monoid(K)
    P.analysis.__dict__["flags"] = fb.classify_arithmetic(P)._replace(atomic=False)
    with pytest.raises(CrossCheckMismatch, match="^power-monoid atomicity: criterion=True, direct=False$"):
        atomicity_criterion(K)


def test_kappa_above_the_bound_is_a_cross_check_mismatch():
    K = fb.cyclic(3)
    build_reduced_power_monoid(K).analysis.__dict__["catalog"] = MinimalCatalog({}, 5)
    with pytest.raises(CrossCheckMismatch, match="^kappa 5 exceeds bound 2$"):
        kappa_report(K)


def test_kappa_bound_across_small_bases(sample_corpus):
    for name, K in sample_corpus:
        if K.size > 5:
            continue
        rep = kappa_report(K)  # raises CrossCheckMismatch if the bound breaks
        assert rep.kappa <= K.size - 1, name


def test_atoms_of_power_c3(pow_c3):
    assert [pow_c3.names[a] for a in pow_c3.atoms] == ["{1,g}", "{1,g^2}"]
    assert idempotents(pow_c3.table) == (
        0,
        pow_c3.names.index("{1,g,g^2}"),
    )


def test_units_of_power_c3(pow_c3):
    assert [pow_c3.names[u] for u in sorted(pow_c3.units)] == ["{1}"]


def test_union_build_matches_setwise_products():
    bases = [(name, K) for name, K in corpus_members(3) if K.size <= 6]
    bases += [("C7", fb.cyclic(7)), ("L7", fb.null_monoid(5))]
    for name, K in bases:
        P = build_reduced_power_monoid(K)
        table, names, subset_of = setwise_power_table(K.table, K.names)
        assert P.table == tuple(map(tuple, table)), name
        assert P.names == tuple(names), name
        assert P.names == _spelled(K, subset_of), name


def test_power_monoid_of_the_one_element_base():
    K = fb.trivial()
    P = build_reduced_power_monoid(K)
    assert P.table == ((0,),)
    assert P.names == ("{1}",)
    assert setwise_power_table(K.table, K.names)[2] == [frozenset({0})]
    rep = kappa_report(fb.trivial())
    assert (rep.kappa, rep.bound, rep.attains_bound) == (0, 0, True)
