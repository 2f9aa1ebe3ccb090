import gc
import re

import pytest
from hypothesis import example, given, settings, strategies as st

import factorbench as fb
from factorbench.errors import AlphabetMismatch, CapExceeded, CrossCheckMismatch
from factorbench.core import FiniteMonoid
from factorbench.corpus import corpus_members
from factorbench import core, factorization
from factorbench.factorization import (
    AtomAnalysis,
    IntegerFragment,
    LengthSet,
    MinimalCatalog,
    integer_class_table,
    pi_eval,
    primes_up_to,
)
from factorbench.power import build_reduced_power_monoid
from oracles import (
    all_pairs_prime_scan,
    brute_lengths,
    brute_ordered_factorizations,
    class_count_vector,
    class_space_catalog,
    divisor_closed_closure,
    domination,
    integer_class_sets,
    integer_prime_scan,
    is_minimal_word,
    per_element_length_sets,
    restrict_table,
    smallest_prime_factorization,
    tuple_integer_class_table,
    word_catalog,
)
from test_random_monoids import INSTANCES, random_transformation_monoid
from test_structure import monogenic_table


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: fb.enumerate_factorizations(fb.null_monoid(1), 2, -1), "max_len must be >= 0"),
        (lambda: LengthSet.build([-1], 0, 0, ()), "negative data in length set"),
        (lambda: LengthSet.build([0], 0, 2, (1,)), "finite part must sit below the threshold"),
    ],
    ids=["negative-max-len", "negative-length", "finite-above-threshold"],
)
def test_refusal_names_its_fault(build, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        build()


def class_vector(S, w):
    return class_count_vector(S.atom_class_of, len(set(S.atom_class_of.values())), w)


# -- evaluation and enumeration ------------------------------------------------


def test_pi_eval(n3):
    assert pi_eval(n3, ()) == 0
    assert pi_eval(n3, (1, 1)) == 2
    ints = IntegerFragment(100)
    assert pi_eval(ints, (2, 3, 5)) == 30
    with pytest.raises(AlphabetMismatch):
        pi_eval(n3, (2,))  # 0 is not an atom


def test_enumerate_identity_is_only_the_empty_word(sample_corpus):
    for name, H in sample_corpus:
        assert fb.enumerate_factorizations(H, 0, 5) == [()], name
    ints = IntegerFragment(50)
    assert fb.enumerate_factorizations(ints, 1, 5) == [()]


def test_enumerate_n3(n3):
    assert fb.enumerate_factorizations(n3, 2, 3) == [(1, 1), (1, 1, 1)]
    assert fb.enumerate_factorizations(n3, 1, 3) == [(1,)]


def test_enumerate_integations_against_divisor_tree():
    ints = IntegerFragment(20)
    got = fb.enumerate_factorizations(ints, 12, 5)
    assert sorted(got) == brute_ordered_factorizations(20, 12, 5)
    assert sorted(got) == [(2, 2, 3), (2, 3, 2), (3, 2, 2)]


def test_enumerate_explosion_guard(t4, monkeypatch):
    monkeypatch.setattr(factorization, "WORD_CAP", 10)
    with pytest.raises(CapExceeded, match="more than 10 prefixes examined"):
        fb.enumerate_factorizations(t4, 3, 12)


def test_nonempty_atom_products_are_never_units(sample_corpus):
    for name, H in sample_corpus:
        if not H.atoms:
            continue
        for w in fb.enumerate_factorizations(H, 0, 4):
            assert w == (), name  # nothing but the empty word reaches a unit
        for x in H.elements():
            for w in fb.enumerate_factorizations(H, x, 3):
                if w:
                    assert not H.is_unit(pi_eval(H, w)), name


# -- length sets ----------------------------------------------------------------


def test_length_set_n3(n3):
    ls = fb.length_set(n3, 2)
    assert (ls.finite_part, ls.threshold, ls.period, set(ls.residues)) == (
        (),
        2,
        1,
        {0},
    )
    assert ls.up_to(6) == [2, 3, 4, 5, 6]
    assert fb.length_set(n3, 1).up_to(9) == [1]


def test_length_set_group_elements_empty():
    c3 = fb.cyclic(3)
    ls = fb.length_set(c3, 1)
    assert ls.is_finite and ls.is_empty()
    assert fb.length_set(c3, 0).up_to(5) == [0]


def test_length_set_power_c3(pow_c3):
    full = pow_c3.names.index("{1,g,g^2}")
    ls = fb.length_set(pow_c3, full)
    assert ls.up_to(8) == [2, 3, 4, 5, 6, 7, 8]
    assert not ls.is_finite


def test_length_sets_match_brute_walks(sample_corpus):
    horizon = 9
    for name, H in sample_corpus:
        for x in H.elements():
            expected = brute_lengths(H, x, horizon)
            assert set(fb.length_set(H, x).up_to(horizon)) == expected, name


def _length_set_monoids():
    yield from corpus_members(4)
    yield "C12xC12", fb.direct_product(fb.cyclic(12), fb.cyclic(12))
    yield "gl(2,3)xC2", fb.direct_product(fb.gl(2, 3), fb.cyclic(2))
    yield "transformation212", FiniteMonoid(random_transformation_monoid(23, points=5).table)
    for k in (6, 8):
        yield f"P(C{k})", build_reduced_power_monoid(fb.cyclic(k))
    yield "null22", fb.null_monoid(22)


def test_length_sets_match_the_per_element_walk():
    for name, H in _length_set_monoids():
        lsets = H.analysis.length_sets
        raw = per_element_length_sets(H.table, H.atoms)
        assert list(lsets) == list(H.elements()), name
        assert lsets == {x: LengthSet.build(*data) for x, data in enumerate(raw)}, name


@pytest.mark.parametrize("k", [6, 8])
def test_length_sets_build_once_per_distinct_set(k, monkeypatch):
    built = []
    build = LengthSet.build.__func__

    def counting(cls, *args):
        built.append(args)
        return build(cls, *args)

    monkeypatch.setattr(LengthSet, "build", classmethod(counting))
    H = build_reduced_power_monoid(fb.cyclic(k))
    values = H.analysis.length_sets.values()
    assert len(built) == len(set(values)) == len({id(ls) for ls in values}) < H.size


def test_length_sets_of_monogenic_monoids():
    # In <a | a^(m+r) = a^m> the layers repeat from length m with period r,
    # so a^j lies in layer k >= m iff k % r == j % r: a residue offset by the
    # preperiod is wrong whenever m % r != 0.
    for m in range(2, 12):
        for r in range(1, 13 - m):
            H = FiniteMonoid(monogenic_table(m, r))
            for x in H.elements():
                expected = brute_lengths(H, x, 40)
                assert set(fb.length_set(H, x).up_to(40)) == expected, (m, r, x)


def test_length_set_canonicalization():
    # redundant period 4 with residues {0, 2} collapses to period 2
    ls = LengthSet.build([1], threshold=3, period=4, residues={0, 2})
    assert ls.period == 2 and ls.residues == frozenset({0})
    # the finite prefix consistent with the periodic part is absorbed
    ls2 = LengthSet.build([2], threshold=4, period=2, residues={0})
    assert ls2.threshold <= 2 and 2 in ls2 and 3 not in ls2
    # empty residues mean a finite set
    ls3 = LengthSet.build([5], threshold=7, period=3, residues=set())
    assert ls3.period == 0 and ls3.finite_part == (5,)
    assert LengthSet.build([], 0, 0, ()).is_empty()


@given(
    st.frozensets(st.integers(0, 5), max_size=4),
    st.integers(0, 6),
    st.integers(1, 6),
    st.frozensets(st.integers(0, 5), max_size=4),
)
def test_length_set_canonical_form_preserves_membership(fin, threshold, period, residues):
    fin = frozenset(k for k in fin if k < threshold)
    ls = LengthSet.build(fin, threshold, period, residues)

    def reference(k):
        if k < threshold:
            return k in fin
        return (k % period) in {r % period for r in residues}

    for k in range(60):
        assert (k in ls) == reference(k)
    # canonical form is minimal: no smaller period represents the same set
    if ls.period > 1:
        for d in range(1, ls.period):
            if ls.period % d:
                continue
            assert any(
                ((k in ls) != ((k + d) in ls)) for k in range(ls.threshold, ls.threshold + 2 * ls.period)
            )


@given(
    st.frozensets(st.integers(0, 8), max_size=5),
    st.integers(0, 9),
    st.integers(0, 6),
    st.frozensets(st.integers(0, 6), max_size=4),
)
@example(frozenset({1, 4}), 6, 0, frozenset())  # finite
@example(frozenset({2}), 5, 3, frozenset())  # empty residues: finite too
@example(frozenset(), 0, 3, frozenset({1}))  # threshold 0
@example(frozenset({0, 3}), 7, 2, frozenset({1}))  # periodic above a finite part
def test_length_set_up_to_matches_membership(fin, threshold, period, residues):
    ls = LengthSet.build(frozenset(k for k in fin if k < threshold), threshold, period, residues)
    # every horizon from negative through the threshold to three periods past it
    for horizon in range(-3, ls.threshold + 3 * max(ls.period, 1) + 2):
        assert ls.up_to(horizon) == [k for k in range(horizon + 1) if k in ls], (ls, horizon)


# -- classifiers ------------------------------------------------------------------


def test_classify_n3(n3):
    flags = fb.classify_arithmetic(n3)
    assert (flags.atomic, flags.bf, flags.ff, flags.hf) == (True, False, False, False)
    assert not fb.length_set(n3, 2).is_finite  # the absorbing element pumps


def test_classify_groups_are_vacuously_everything():
    flags = fb.classify_arithmetic(fb.cyclic(5))
    assert flags.atomic and flags.bf and flags.ff and flags.hf


def test_classify_power_c2_not_atomic():
    P = fb.build_reduced_power_monoid(fb.cyclic(2))
    flags = fb.classify_arithmetic(P)
    assert not flags.atomic
    assert fb.length_set(P, 1).is_empty()  # the doubleton idempotent


def test_bf_iff_ff_on_corpus(sample_corpus):
    for name, H in sample_corpus:
        flags = fb.classify_arithmetic(H)
        assert flags.bf == flags.ff, name


def test_subadditivity_of_length_sets(sample_corpus):
    horizon = 12
    for name, H in sample_corpus:
        lsets = {x: fb.length_set(H, x) for x in H.elements()}
        for x in H.elements():
            for y in H.elements():
                lxy = lsets[H.mul(x, y)]
                for a in lsets[x].up_to(horizon):
                    for b in lsets[y].up_to(horizon):
                        assert (a + b) in lxy, name


# -- comparison and minimality ------------------------------------------------------


def test_compare_examples(t4):
    assert domination(t4, (1, 2), (1, 2, 1, 2)) == "a_strictly_below"
    assert domination(t4, (1, 1), (1, 2)) == "incomparable"
    assert domination(t4, (1, 2), (1, 2)) == "equivalent"
    assert domination(t4, (1,), (2,)) == "different_products"


@settings(max_examples=200)
@given(st.data())
def test_mutual_domination_is_congruence(sample_corpus, data):
    name, H = data.draw(st.sampled_from([m for m in sample_corpus if m[1].atoms]))
    atoms = st.sampled_from(H.atoms)
    wa = tuple(data.draw(st.lists(atoms, max_size=5)))
    wb = tuple(data.draw(st.lists(atoms, max_size=5)))
    result = domination(H, wa, wb)
    same_class = (
        pi_eval(H, wa) == pi_eval(H, wb)
        and class_vector(H, wa) == class_vector(H, wb)
    )
    assert (result == "equivalent") == same_class


def test_is_minimal_examples(n3, t4):
    assert is_minimal_word(n3, (1, 1))
    assert not is_minimal_word(t4, (1, 1, 2))  # dominated by the shorter (1, 2)
    assert is_minimal_word(t4, (1, 2))


def test_short_words_are_always_minimal(sample_corpus):
    for name, H in sample_corpus:
        for a in H.atoms:
            assert is_minimal_word(H, (a,)), name
            for b in H.atoms:
                assert is_minimal_word(H, (a, b)), name


def test_is_minimal_agrees_with_catalog(sample_corpus):
    for name, H in sample_corpus:
        if not H.atoms:
            continue
        cat = fb.minimal_catalog(H)
        for x in H.elements():
            keys = {class_vector(H, w) for w in cat.classes_of(x)}
            for w in fb.enumerate_factorizations(H, x, min(H.size - 1, 4)):
                assert is_minimal_word(H, w) == (class_vector(H, w) in keys), name


# -- minimal catalog, kappa, dichotomy ------------------------------------------------


def test_minimal_catalog_n3(n3):
    cat = fb.minimal_catalog(n3)
    assert [(class_vector(n3, w), w) for w in cat.classes_of(1)] == [((1,), (1,))]
    assert [(class_vector(n3, w), w) for w in cat.classes_of(2)] == [((2,), (1, 1))]
    assert cat.kappa == 2


def test_minimal_catalog_power_c3(pow_c3):
    full = pow_c3.names.index("{1,g,g^2}")
    cat = fb.minimal_catalog(pow_c3)
    assert {class_vector(pow_c3, w) for w in cat.classes_of(full)} == {(2, 0), (1, 1), (0, 2)}
    assert cat.kappa == 2


def test_minimal_catalog_group_is_empty():
    cat = fb.minimal_catalog(fb.cyclic(5))
    assert cat.kappa == 0
    # the identity keeps its empty factorization; nothing else has any
    assert list(cat.classes_of(0)) == [()]
    assert all(not cat.classes_of(x) for x in range(1, 5))


def test_catalog_against_naive_word_enumeration(sample_corpus):
    for name, H in sample_corpus:
        naive = word_catalog(H)
        if naive is None:
            continue
        expected, expected_kappa = naive
        cat = fb.minimal_catalog(H)
        for x in H.elements():
            assert {class_vector(H, w) for w in cat.classes_of(x)} == expected[x], name
        assert cat.kappa == expected_kappa, name


def test_catalog_against_class_space_search(sample_corpus):
    for name, H in sample_corpus:
        expected, expected_kappa = class_space_catalog(H)
        cat = fb.minimal_catalog(H)
        for x in H.elements():
            assert {class_vector(H, w) for w in cat.classes_of(x)} == expected[x], name
        assert cat.kappa == expected_kappa, name


def test_catalog_representatives_are_members(sample_corpus):
    for name, H in sample_corpus:
        cat = fb.minimal_catalog(H)
        for x in H.elements():
            for rep in cat.classes_of(x):
                assert pi_eval(H, rep) == x, name
                assert is_minimal_word(H, rep), name
                counts = class_vector(H, rep)
                first = next(
                    w
                    for w in fb.enumerate_factorizations(H, x, len(rep))
                    if class_vector(H, w) == counts
                )
                assert rep == first, name


def test_kappa_bound(sample_corpus):
    for name, H in sample_corpus:
        assert fb.minimal_catalog(H).kappa <= H.size - 1, name


def test_kappa_and_dichotomy(n3, pow_c3):
    assert fb.kappa_and_dichotomy(n3) == (2, (0, 1, 2))
    assert fb.kappa_and_dichotomy(fb.trivial()) == (0, (0,))
    assert fb.kappa_and_dichotomy(pow_c3) == (2, (0, 1, 2))


def test_dichotomy_across_corpus(sample_corpus):
    for name, H in sample_corpus:
        kappa, union = fb.kappa_and_dichotomy(H)
        assert union == tuple(range(kappa + 1)), name


# -- divisor-closed restriction ---------------------------------------------------


def test_divisor_closed_restriction_preserves_arithmetic(sample_corpus):
    for name, H in sample_corpus:
        for x in H.elements():
            closed = divisor_closed_closure(H.table, {x})
            rows, back = restrict_table(H.table, closed)
            M = FiniteMonoid(rows)
            atom_back = {back[a] for a in M.atoms}
            assert atom_back == set(H.atoms) & set(closed), name
            for m_new, m_old in enumerate(back):
                assert fb.length_set(M, m_new) == fb.length_set(H, m_old), name


# -- primes -------------------------------------------------------------------------


def test_prime_examples(n3, t4, h2):
    assert fb.is_prime(h2, 1) == (True, None)  # the absorbing element
    assert fb.is_prime(n3, 1)[0] is True
    ok, ce = fb.is_prime(n3, 2)
    assert not ok and ce is not None
    x, y = ce
    assert n3.divides(2, n3.mul(x, y)) and not n3.divides(2, x) and not n3.divides(2, y)
    ok, ce = fb.is_prime(t4, 1)
    assert not ok
    x, y = ce
    assert t4.divides(1, t4.mul(x, y)) and not t4.divides(1, x) and not t4.divides(1, y)


def test_finite_primes_agree_with_the_all_pairs_scan(sample_corpus):
    # the candidates skip every pair with a factor p divides, which cannot
    # refute p, so flag and counterexample stay those of the full scan
    n3xc48 = fb.direct_product(fb.null_monoid(1), fb.cyclic(48))
    for name, H in sample_corpus + corpus_members(3) + [("N3xC48", n3xc48)]:
        for p in H.elements():
            assert fb.is_prime(H, p) == all_pairs_prime_scan(H.table, p), (name, p)


def test_first_is_prime_computes_one_two_sided_orbit(monkeypatch):
    calls = []

    def counted(rows, x, side):
        calls.append(x)
        return orbit(rows, x, side)

    orbit = core._two_sided_orbit
    monkeypatch.setattr(core, "_two_sided_orbit", counted)
    H = fb.direct_product(fb.null_monoid(1), fb.cyclic(48))
    p = H.size - 1
    fb.is_prime(H, p)
    assert calls == [p]
    fb.is_prime(H, p)
    assert calls == [p]


def test_units_are_never_prime(sample_corpus):
    for name, H in sample_corpus:
        for u in H.units:
            assert fb.is_prime(H, u)[0] is False, name


def test_integer_primality_scan():
    ints = IntegerFragment(500)
    for p in (2, 3, 5, 7, 11, 13):
        assert fb.is_prime(ints, p) == (True, None)
    for c in (1, 4, 6, 12, 100):
        ok, ce = fb.is_prime(ints, c)
        assert not ok
        if ce is not None:
            x, y = ce
            assert (x * y) % c == 0 and x % c and y % c


@pytest.mark.parametrize("limit", [1, 2, 7, 30, 64, 300])
def test_integer_primes_agree_with_the_all_pairs_scan(limit):
    # the gcd-pruned candidates must give the same flag and counterexample as
    # the scan over every pair, for the unit, primes and composites alike
    ints = IntegerFragment(limit)
    for p in range(1, limit + 1):
        assert fb.is_prime(ints, p) == integer_prime_scan(limit, p), p
        # beyond the first: every refuting pair is a candidate, in order
        candidates = list(ints.prime_candidates(p))
        assert candidates == sorted(set(candidates)), p
        refuting = {
            (x, y)
            for x in range(1, limit + 1)
            for y in range(1, limit // x + 1)
            if (x * y) % p == 0 and x % p and y % p
        }
        assert refuting <= set(candidates), p


def test_integer_primes_have_no_prime_candidates():
    # a prime shares no proper divisor with any x, so nothing is paired at all
    ints = IntegerFragment(10**4)
    for p in primes_up_to(100):
        assert next(ints.prime_candidates(p), None) is None, p


@pytest.mark.parametrize(
    "carrier, p",
    [(IntegerFragment(10), 13), (fb.null_monoid(1), 7), (IntegerFragment(10), 0)],
    ids=["above-limit", "outside-table", "zero"],
)
def test_is_prime_refuses_a_non_element(carrier, p):
    with pytest.raises(ValueError, match="is not an element"):
        fb.is_prime(carrier, p)


def _words_up_to_3(S, x):
    return fb.enumerate_factorizations(S, x, 3)


@pytest.mark.parametrize(
    "query, carrier, x",
    [
        (_words_up_to_3, IntegerFragment(10), 50),
        (_words_up_to_3, IntegerFragment(10**4), 0),
        (_words_up_to_3, fb.null_monoid(1), -1),
        (_words_up_to_3, fb.null_monoid(1), 7),
        (fb.length_set, fb.null_monoid(1), 7),
    ],
    ids=["words-above-limit", "words-zero", "words-negative", "words-outside-table", "lengths-outside-table"],
)
def test_factorization_queries_refuse_a_non_element(query, carrier, x):
    with pytest.raises(ValueError, match="is not an element"):
        query(carrier, x)


# -- powerful atoms ------------------------------------------------------------------


def test_powerful_integer_primes():
    ints = IntegerFragment(10_000)
    assert fb.is_powerful(ints, 2) == (True, None)
    # oracle: the 2-adic valuation of every factorization of n is fixed
    for n in (12, 64, 90, 360):
        words = fb.enumerate_factorizations(ints, n, 10)
        vals = {w.count(2) for w in words}
        assert len(vals) == 1
        assert vals.pop() == smallest_prime_factorization(n).count(2)


def test_powerful_counterexamples(n3, t4):
    ok, conflict = fb.is_powerful(n3, 1)
    assert not ok
    element, p1, p2 = conflict
    assert element == 2 and {p1, p2} == {2, 3}

    ok, conflict = fb.is_powerful(t4, 1)
    assert not ok
    element = conflict[0]
    # the conflict element really does have factorizations with different
    # a-multiplicities
    words = fb.enumerate_factorizations(t4, element, 4)
    counts = {class_vector(t4, w)[t4.atom_class_of[1]] for w in words}
    assert len(counts) > 1


def test_powerful_rejects_non_atoms(n3):
    with pytest.raises(ValueError):
        fb.is_powerful(n3, 2)


def test_powerful_flag_matches_word_level_valuations(sample_corpus):
    # when the decider says powerful, no element may show two different
    # multiplicities of the atom's associate class across its factorizations
    for name, H in sample_corpus:
        for a in H.atoms:
            if not fb.is_powerful(H, a)[0]:
                continue
            cls = H.atom_class_of[a]
            for x in H.elements():
                words = fb.enumerate_factorizations(H, x, min(H.size + 2, 6))
                vals = {class_vector(H, w)[cls] for w in words}
                assert len(vals) <= 1, (name, a, x)


def test_powerful_implies_prime_on_atomic_members(sample_corpus):
    for name, H in sample_corpus:
        if not fb.classify_arithmetic(H).atomic:
            continue
        for a in H.atoms:
            if fb.is_powerful(H, a)[0]:
                assert fb.is_prime(H, a)[0], name


def test_n3_atom_is_prime_but_not_powerful(n3):
    assert fb.is_prime(n3, 1)[0] is True
    assert fb.is_powerful(n3, 1)[0] is False


# -- factoriality ---------------------------------------------------------------------


def test_factorial_battery_groups():
    flags = fb.factorial_battery(fb.cyclic(5))
    assert flags.factorial and flags.minimally_factorial and flags.hmf
    assert flags.bmf and flags.fmf


def test_factorial_battery_n3(n3):
    flags = fb.factorial_battery(n3)
    assert not flags.factorial
    assert flags.minimally_factorial and flags.hmf and flags.fmf and flags.bmf


def test_factorial_battery_t4(t4):
    flags = fb.factorial_battery(t4)
    assert not flags.factorial
    assert not flags.minimally_factorial  # three minimal classes at the zero
    assert flags.fmf and flags.bmf


def test_factorial_battery_runs_cleanly_on_corpus(sample_corpus):
    for name, H in sample_corpus:
        flags = fb.factorial_battery(H)  # raises CrossCheckMismatch on a bug
        if fb.property_battery(H).group:
            assert flags.factorial, name


def test_finite_factoriality_is_being_a_group(sample_corpus):
    # A non-unit's idempotent power e = e^2 = ... has factorizations of
    # unbounded length as soon as it has one, so on a finite monoid BF, FF,
    # HF and factorial all say "group".
    monoids = (
        corpus_members(3)
        + sample_corpus
        + [(f"seed{s}", H) for s, H in INSTANCES]
        + [(f"P(C{m})", build_reduced_power_monoid(fb.cyclic(m))) for m in range(2, 6)]
        + [("null5", fb.null_monoid(5)), ("T3", fb.full_transformation(3)), ("GL(2,3)", fb.gl(2, 3))]
    )
    seen = set()
    for name, H in monoids:
        flags = fb.classify_arithmetic(H)
        group = fb.property_battery(H).group
        assert flags.bf == flags.ff == flags.hf == fb.factorial_battery(H).factorial == group, name
        seen.add((flags.atomic, group))
    assert seen == {(True, True), (True, False), (False, False)}


def test_factoriality_routes_can_disagree(monkeypatch):
    # With every atom made powerful, N3 passes the powerful-atom route, but it
    # is not a group.
    H = fb.null_monoid(1)
    monkeypatch.setattr(H.analysis, "powerful_conflict", lambda c: None)
    with pytest.raises(CrossCheckMismatch, match="powerful-atoms=True, group=False"):
        fb.factorial_battery(H)


def test_atomic_carrier_without_a_minimal_class_is_a_cross_check_mismatch():
    H = fb.null_monoid(1)  # atomic, not a group: both factoriality routes say no
    H.analysis.__dict__["catalog"] = MinimalCatalog({}, 0)
    with pytest.raises(CrossCheckMismatch, match="^atomic carrier but element 1 has no minimal class$"):
        fb.factorial_battery(H)


def test_minimal_lengths_with_a_gap_are_a_cross_check_mismatch():
    H = fb.null_monoid(1)
    H.analysis.__dict__["catalog"] = MinimalCatalog({0: ((),), 2: ((1, 1),)}, 2)
    with pytest.raises(CrossCheckMismatch, match=r"^minimal lengths \[0, 2\] do not fill 0\.\.2$"):
        fb.kappa_and_dichotomy(H)


def test_layer_iteration_past_its_cap_is_cap_exceeded(monkeypatch):
    monkeypatch.setattr(factorization, "LAYER_CAP", 1)
    with pytest.raises(CapExceeded, match="^layer iteration exceeded 1 steps$"):
        AtomAnalysis(fb.cyclic(5)).length_sets


def shortest_atom_word(H, x):
    """A shortest atom word of x, by breadth-first search over H.table."""
    words = {0: ()}
    queue = [0]
    for s in queue:
        for a in H.atoms:
            t = H.table[s][a]
            if t not in words:
                words[t] = words[s] + (a,)
                queue.append(t)
    return words[x]


def test_idempotent_powers_have_two_classes_on_atomic_non_groups():
    # If w is a word of the idempotent e, so is w*w, so the enumeration to
    # twice the shortest length meets two class-count vectors.
    covered = 0
    for name, H in corpus_members(3) + [(f"seed{s}", H) for s, H in INSTANCES]:
        if not fb.classify_arithmetic(H).atomic or fb.property_battery(H).group:
            continue
        x = next(x for x in H.elements() if not H.is_unit(x))
        e = x
        while H.table[e][e] != e:
            e = H.table[e][x]
        w = shortest_atom_word(H, e)
        assert w, name
        words = fb.enumerate_factorizations(H, e, 2 * len(w))
        assert len({class_vector(H, v) for v in words}) >= 2, name
        covered += 1
    assert covered == 11


def test_full_transformation_monoid_is_atomless():
    # every non-invertible map is a product of non-invertible idempotents,
    # so there are no atoms at all and nothing below the non-units
    t3 = fb.full_transformation(3)
    assert t3.atoms == ()
    flags = fb.classify_arithmetic(t3)
    assert not flags.atomic and not flags.bf and not flags.ff and not flags.hf
    cat = fb.minimal_catalog(t3)
    assert cat.kappa == 0
    assert fb.kappa_and_dichotomy(t3) == (0, (0,))
    rep = fb.property_battery(t3)
    assert not rep.group and not rep.acyclic and not rep.normalizing


def test_gl23_behaves_like_a_group():
    H = fb.gl(2, 3)
    assert H.size == 48
    rep = fb.property_battery(H)
    assert rep.group and rep.acyclic and not rep.commutative
    flags = fb.factorial_battery(H)
    assert flags.factorial and flags.fmf
    assert fb.minimal_catalog(H).kappa == 0


# -- the integer fragment end to end ---------------------------------------------------


def test_integer_class_table_is_unique_and_matches_sieve():
    assert integer_class_table(2000) is None


def test_integer_class_table_matches_the_set_oracle():
    for limit in [*range(1, 61), 10**4]:
        oracle = integer_class_sets(limit)
        least = next((n for n in range(1, limit + 1) if len(oracle[n]) > 1), None)
        assert integer_class_table(limit) == least, limit
        for n in range(1, limit + 1):
            assert oracle[n] == {smallest_prime_factorization(n)}, (limit, n)


@pytest.mark.parametrize("collecting", [True, False])
def test_integer_class_table_restores_the_collector(monkeypatch, collecting):
    # the build pauses the cyclic collector; it leaves it as it found it,
    # whether the build returns or raises
    was = gc.isenabled()
    try:
        (gc.enable if collecting else gc.disable)()
        integer_class_table(100)
        assert gc.isenabled() is collecting

        def fail(*args):
            assert not gc.isenabled()
            raise RuntimeError("planted")

        monkeypatch.setattr(factorization, "primes_up_to", fail)
        with pytest.raises(RuntimeError, match="planted"):
            integer_class_table(100)
        assert gc.isenabled() is collecting
    finally:
        (gc.enable if was else gc.disable)()


def test_primes_up_to_matches_trial_division():
    for limit in range(0, 300):
        trial = tuple(p for p in range(2, limit + 1) if all(p % d for d in range(2, p)))
        assert primes_up_to(limit) == trial, limit


def test_integer_class_table_finds_a_planted_atom_at_each_limit(monkeypatch):
    # the integers never disagree, so plant 4 as an atom: 12 = 3*4 = 2*2*3 is
    # the least n at which two candidate words disagree, at every limit from 12
    primes = factorization.primes_up_to
    monkeypatch.setattr(factorization, "primes_up_to", lambda limit: tuple(sorted(primes(limit) + (4,))))
    for limit in (12, 24, 60):
        assert integer_class_table(limit) == 12, limit
    assert integer_class_table(11) is None


def test_integer_class_table_lists_a_planted_second_class(monkeypatch):
    # with 4 taken as an atom, 12 = 3*4 = 2*2*3 has two classes, and 12 is
    # the least n at which two candidate words disagree
    primes = factorization.primes_up_to
    monkeypatch.setattr(factorization, "primes_up_to", lambda limit: tuple(sorted(primes(limit) + (4,))))
    assert integer_class_table(12) == 12
    assert integer_class_table(11) is None


# Limits where the signature layout changes: every limit up to 400; p^2 - 1,
# p^2 and p^2 + 1, where p moves between the value field and its own field;
# the powers of 2 and 3, where a field widens; and 10^4.
LAYOUT_LIMITS = sorted(
    {
        *range(1, 401),
        *(p * p + d for p in primes_up_to(100) for d in (-1, 0, 1)),
        *(b**e for b in (2, 3) for e in range(1, 17) if b**e <= 10**5),
        10**4,
    }
)
# Planted atoms 4 and 9 with isqrt(limit) above, at and below them.
PLANTED_LIMITS = {
    (4,): (4, 11, 12, 15, 16, 20, 24, 25, 60, 400),
    (9,): (9, 17, 18, 80, 81, 90, 99, 100, 400),
    (4, 9): (11, 12, 16, 24, 81, 100, 400),
}


def test_integer_class_table_matches_the_tuple_oracle():
    for limit in LAYOUT_LIMITS:
        assert integer_class_table(limit) == tuple_integer_class_table(limit, primes_up_to(limit)), limit


@pytest.mark.parametrize("planted", list(PLANTED_LIMITS))
def test_integer_class_table_matches_the_tuple_oracle_on_planted_atoms(monkeypatch, planted):
    limits = PLANTED_LIMITS[planted]
    oracle = {limit: tuple_integer_class_table(limit, primes_up_to(limit) + planted) for limit in limits}
    # the least n where a candidate disagrees: 12 = 3*4 = 2*2*3 with 4 planted,
    # 45 = 5*9 = 3*3*5 with 9 (18 = 2*9 = 2*3*3 is not a candidate pair: the
    # check skips p | n with largest[n // p] <= p, which holds only for primes)
    assert oracle[400] == (12 if 4 in planted else 45)
    primes = factorization.primes_up_to
    monkeypatch.setattr(factorization, "primes_up_to", lambda limit: tuple(sorted(primes(limit) + planted)))
    for limit in limits:
        assert integer_class_table(limit) == oracle[limit], (planted, limit)


@pytest.mark.parametrize(
    "planted, limits",
    [((), LAYOUT_LIMITS), *((planted, limits) for planted, limits in PLANTED_LIMITS.items())],
)
def test_signature_fields_never_carry(planted, limits):
    # a word for n <= limit holds q at most c times, q^c <= limit: that count
    # fills q's field without reaching the next one, and the one atom above
    # isqrt(limit) a word can hold sits below the lowest field
    for limit in limits:
        atoms = sorted(primes_up_to(limit) + planted)
        field = factorization._signature_fields(limit, atoms)
        small = [q for q in atoms if q * q <= limit]
        large = [q for q in atoms if q * q > limit]
        units = [field[q] for q in small]
        assert [field[q] for q in large] == large, limit
        assert not units or all(q < units[0] for q in large), limit
        for q, unit, above in zip(small, units, [*units[1:], None]):
            count = 0
            while q ** (count + 1) <= limit:
                count += 1
            assert unit & (unit - 1) == 0 and count >= 1, (limit, q)
            assert above is None or count * unit < above, (limit, q)


@pytest.mark.parametrize("build", [IntegerFragment, integer_class_table])
def test_integer_fragment_refuses_limit_below_one(build):
    with pytest.raises(ValueError, match="limit must be >= 1"):
        build(0)


def test_integer_word_enumeration_matches_class_table():
    ints = IntegerFragment(300)
    for n in range(2, 301):
        keys = {class_vector(ints, w) for w in fb.enumerate_factorizations(ints, n, 9)}
        multisets = {
            tuple(
                sorted(
                    sum(([p] * c for p, c in zip(ints.atoms, key)), [])
                )
            )
            for key in keys
        }
        assert tuple(sorted(multisets)) == (smallest_prime_factorization(n),), n
