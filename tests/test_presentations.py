import re
from collections import Counter
from itertools import product
from random import Random

import pytest
from hypothesis import example, given, strategies as st

from factorbench import presentations
from factorbench.errors import AlphabetMismatch, EmptyRelationSide, ParseError
from factorbench.presentations import (
    CongruenceStatus,
    Presentation,
    adian_check,
    bounded_length_set,
    congruent_bounded,
    conserved_functionals,
    format_word_text,
    ladder_presentation,
    letter_counts,
    normal_form,
    parse_presentation,
    parse_word_text,
    psi,
    sandwich_power,
    sandwich_xyx,
    verify_ladder_properties,
    _difference_lattice,
    _grow,
    _in_difference_lattice,
    _normal_form,
    _random_congruent,
    _random_ladder_word,
    _random_order_normal_form,
    _randbelow,
)
from oracles import (
    choice_congruent,
    choice_ladder_word,
    choice_order_normal_form,
    fraction_functional_basis,
    ladder_verification,
    leftmost_normal_form,
    multigraph_has_cycle,
    psi_dp,
    smith_lattice_member,
    smith_normal_form,
    tuple_chain_valid,
    tuple_congruence_search,
    tuple_length_probe,
    tuple_rewrites,
)

ladder_words = st.text(alphabet="wxyz", max_size=14).map(tuple)


# -- parsing -------------------------------------------------------------------


def test_word_literals():
    assert parse_word_text("a*a*b") == ("a", "a", "b")
    assert parse_word_text("e") == ()
    assert format_word_text(()) == "e"
    assert format_word_text(("x", "y")) == "x*y"
    with pytest.raises(ValueError):
        parse_word_text("a**b")
    with pytest.raises(ValueError):
        parse_word_text("")


def test_parse_basic():
    P = parse_presentation("gens: x y; rel: x*x = y*x*x*y")
    assert P.generators == ("x", "y")
    assert P.relations == ((("x", "x"), ("y", "x", "x", "y")),)


def test_parse_loopy_relation_ok():
    P = parse_presentation("gens: x; rel: x = x*x")
    assert P.relations == ((("x",), ("x", "x")),)


def test_parse_requires_gens():
    with pytest.raises(ParseError):
        parse_presentation("rel: x = y")


def test_parse_rejects_unknown_generator():
    with pytest.raises(AlphabetMismatch, match="undeclared generator 'y'"):
        parse_presentation("gens: x; rel: x = y")


def test_parse_empty_word_and_errors():
    P = parse_presentation("gens: x; rel: x*x = e")
    assert P.relations == ((("x", "x"), ()),)
    with pytest.raises(ParseError):
        parse_presentation("gens: x; rel: x == x")
    with pytest.raises(ParseError):
        parse_presentation("gens: x; wat: x")


LETTER_FAULT = "{} is not a letter of a word literal (empty, holding '*' or padded by spaces)"


@pytest.mark.parametrize(
    "build, error, message",
    [
        (lambda: Presentation(("x", "y", "x"), ()), ParseError, "duplicate generator"),
        (lambda: Presentation(("x", "e"), ()), ParseError, "'e' is reserved for the empty word"),
        (lambda: Presentation(("x",), ((("x",), ("q",)),)), AlphabetMismatch, "undeclared generator 'q'"),
        (lambda: Presentation(("x", ""), ()), ParseError, LETTER_FAULT.format("''")),
        (lambda: parse_presentation("gens: a*b"), ParseError, LETTER_FAULT.format("'a*b'")),
        (lambda: Presentation(("x\t",), ()), ParseError, LETTER_FAULT.format("'x\\t'")),
        (lambda: parse_presentation("gens: x; gens: y"), ParseError, "second gens clause (at clause 2)"),
        (lambda: parse_presentation("gens: ; rel: e = e"), ParseError, "gens clause declares nothing (at clause 1)"),
        (lambda: parse_presentation(" ; "), ParseError, "no gens clause"),
        (lambda: sandwich_power(0), ValueError, "n must be >= 1"),
        (lambda: ladder_presentation(-1), ValueError, "rungs must be >= 0"),
    ],
    ids=["duplicate-gen", "reserved-e", "undeclared-letter", "empty-gen", "star-gen", "padded-gen", "second-gens", "empty-gens", "no-gens", "sandwich-zero", "negative-rungs"],
)
def test_refusal_names_its_fault(build, error, message):
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        build()


@pytest.mark.parametrize(
    "build",
    [
        lambda: sandwich_power(1),
        lambda: sandwich_power(3),
        sandwich_xyx,
        ladder_presentation,
        lambda: parse_presentation("gens: a b c; rel: a*b = b*a; rel: c = e; rel: a*a*c = b"),
    ],
    ids=["sandwich-power-1", "sandwich-power-3", "sandwich-xyx", "ladder", "custom"],
)
def test_rules_are_each_relation_encoded_forwards_then_backwards(build):
    P = build()

    def code(word):
        return "".join(chr(P.generators.index(g)) for g in word)

    expected = []
    for lhs, rhs in P.relations:
        assert (P.encode(lhs), P.encode(rhs)) == (code(lhs), code(rhs))
        expected += [(code(lhs), code(rhs)), (code(rhs), code(lhs))]
    assert P.rules == tuple(expected)


def test_an_undeclared_right_hand_letter_is_named_before_later_relations():
    read = []

    def relations():
        for rel in [(("x",), ("y", "x")), (("x", "y"), ("y", "q", "p")), (("r",), ("x",))]:
            read.append(rel)
            yield rel

    with pytest.raises(AlphabetMismatch, match="^undeclared generator 'q'$"):
        Presentation(("x", "y"), relations())
    assert len(read) == 2


# -- left/right graphs ------------------------------------------------------------


def test_adian_families():
    for n in range(1, 6):
        chk = adian_check(sandwich_power(n))
        assert chk.is_adian
        assert chk.left_graph == (("x", "y"),) == chk.right_graph
    assert adian_check(sandwich_xyx()).is_adian


def test_adian_loop_fails():
    P = parse_presentation("gens: x; rel: x = x*x")
    assert not adian_check(P).is_adian


def test_adian_parallel_edges_fail():
    P = parse_presentation("gens: x y; rel: x = y*x; rel: x*y = y")
    # two x-y edges in the left graph
    assert not adian_check(P).is_adian


def test_adian_empty_side_rejected():
    P = Presentation(("x",), ((("x",), ()),))
    with pytest.raises(EmptyRelationSide):
        adian_check(P)


def test_adian_matches_brute_force_cycle_search():
    cases = [
        sandwich_power(1),
        sandwich_power(3),
        sandwich_xyx(),
        ladder_presentation(4),
        parse_presentation("gens: x; rel: x = x*x"),
        parse_presentation("gens: x y z; rel: x*y = y*z; rel: y*x = z*y"),
        parse_presentation("gens: x y z; rel: x*x = y*z; rel: y*y = z*x"),
    ]
    for P in cases:
        chk = adian_check(P)
        expected = not multigraph_has_cycle(
            P.generators, chk.left_graph
        ) and not multigraph_has_cycle(P.generators, chk.right_graph)
        assert chk.is_adian == expected


# -- bounded congruence -------------------------------------------------------------


def test_sandwich_power_one_relator_identity():
    P = sandwich_power(1)
    res = congruent_bounded(P, ("x",), ("y", "x", "y"))
    assert res.status is CongruenceStatus.EQUIVALENT
    assert len(res.chain) - 1 == 1
    assert tuple_chain_valid(P.relations, res.chain)


def test_ladder_congruence_first_rung():
    lad = ladder_presentation(6)
    res = congruent_bounded(lad, ("x", "z"), ("y", "x", "y", "z", "w"))
    assert res.status is CongruenceStatus.EQUIVALENT
    assert tuple_chain_valid(lad.relations, res.chain)


def test_ladder_refutation_by_functional():
    lad = ladder_presentation(6)
    res = congruent_bounded(lad, ("x",), ("z",))
    assert res.status is CongruenceStatus.REFUTED
    f = res.functional
    # the functional is genuinely conserved and genuinely separates
    for lhs, rhs in lad.relations:
        cl, cr = letter_counts(lad, lhs), letter_counts(lad, rhs)
        assert sum(a * b for a, b in zip(f, cl)) == sum(a * b for a, b in zip(f, cr))
    cu, cv = letter_counts(lad, ("x",)), letter_counts(lad, ("z",))
    assert sum(a * b for a, b in zip(f, cu)) != sum(a * b for a, b in zip(f, cv))


def test_unknown_when_search_cannot_decide():
    P = sandwich_power(2)
    res = congruent_bounded(P, ("x", "y"), ("y", "x"), budget=200)
    assert res.status is CongruenceStatus.UNKNOWN


def test_conserved_functionals_are_conserved():
    for P in (sandwich_power(2), sandwich_xyx(), ladder_presentation(5)):
        for f in conserved_functionals(P):
            for lhs, rhs in P.relations:
                cl, cr = letter_counts(P, lhs), letter_counts(P, rhs)
                assert sum(a * b for a, b in zip(f, cl)) == sum(
                    a * b for a, b in zip(f, cr)
                )


def test_conserved_functionals_are_computed_once_per_presentation_value():
    # every CLI request builds its own family presentation; equal ones share
    # one row reduction
    assert conserved_functionals(ladder_presentation(5)) is conserved_functionals(
        ladder_presentation(5)
    )


# every built-in family and every presentation these tests and the golden
# reports build
FUNCTIONAL_PRESENTATIONS = (
    *(sandwich_power(n) for n in range(1, 6)),
    sandwich_xyx(),
    *(ladder_presentation(k) for k in range(13)),
    Presentation(("x",), ((("x",), ()),)),
    *map(
        parse_presentation,
        (
            "gens: x y; rel: x*x = y*x*x*y",
            "gens: x; rel: x = x*x",
            "gens: x; rel: x*x = e",
            "gens: x y; rel: x = y*x; rel: x*y = y",
            "gens: x y z; rel: x*y = y*z; rel: y*x = z*y",
            "gens: x y z; rel: x*x = y*z; rel: y*y = z*x",
            "gens: a bb c; rel: e = a*bb; rel: c = c*c",
            "gens: a b c; rel: a*b = b*a; rel: b*c = c*b",
            "gens: a1 b2; rel: a1*a1 = b2*a1*a1*b2",
        ),
    ),
)


def test_integer_elimination_matches_fraction_oracle_on_test_presentations():
    for P in FUNCTIONAL_PRESENTATIONS:
        assert conserved_functionals(P) == fraction_functional_basis(P.generators, P.relations), P.relations


def _relation_with_counts(generators, row):
    """A relation whose left side less its right side counts row[i] of the
    i-th generator."""
    return (
        tuple(g for g, k in zip(generators, row) for _ in range(max(k, 0))),
        tuple(g for g, k in zip(generators, row) for _ in range(max(-k, 0))),
    )


def _random_difference_matrices(rng, kinds):
    """2400 presentations with random relation-difference rows, each with its
    rows: widths 1-6, entries -4..4; every fourth matrix has no relations, and
    of the others a third hold a zero row and a third a repeated or scaled
    row.  kinds counts the four kinds."""
    for i in range(2400):
        width = rng.randint(1, 6)
        rows = [] if i % 4 == 0 else [
            [rng.randint(-4, 4) for _ in range(width)] for _ in range(rng.randint(1, 6))
        ]
        kind = ("random", "zero", "repeated")[i % 3] if rows else "none"
        if kind == "zero":
            rows.insert(rng.randrange(len(rows) + 1), [0] * width)
        elif kind == "repeated":
            k = rng.choice((1, 1, -1, 2, -3))
            rows.insert(rng.randrange(len(rows) + 1), [k * v for v in rng.choice(rows)])
        kinds[kind] += 1
        generators = tuple(f"g{j}" for j in range(width))
        yield Presentation(generators, tuple(_relation_with_counts(generators, row) for row in rows)), rows


def test_integer_elimination_matches_fraction_oracle_on_random_matrices():
    kinds = Counter()
    for P, rows in _random_difference_matrices(Random(36), kinds):
        expected = fraction_functional_basis(P.generators, P.relations)
        assert conserved_functionals.__wrapped__(P) == expected, rows
    assert min(kinds.values()) >= 400, kinds


def _lattice_members(P, probes):
    """Check the echelon basis of P's difference lattice against the Smith
    normal form oracle, and the membership test on each probe; return how
    many probes lie in the lattice."""
    smith = smith_normal_form(P.generators, P.relations)
    basis = _difference_lattice.__wrapped__(P)
    assert basis == _difference_lattice(P)
    pivots = [c for c, _ in basis]
    assert pivots == sorted(set(pivots)) and len(basis) == len(smith[0])
    assert all(b % a == 0 for a, b in zip(smith[0], smith[0][1:]))
    for c, row in basis:
        assert row[c] > 0 and not any(row[:c])
        assert smith_lattice_member(smith, row)
    for lhs, rhs in P.relations:
        assert _in_difference_lattice(P, [a - b for a, b in zip(letter_counts(P, lhs), letter_counts(P, rhs))])
    members = 0
    for delta in probes:
        inside = _in_difference_lattice(P, list(delta))
        assert inside == smith_lattice_member(smith, delta), (P.relations, delta)
        members += inside
    return members


def test_difference_lattice_matches_smith_oracle_on_test_presentations():
    # every count difference with entries -2..2, and the torsion the sandwich
    # families share: the y count changes by 2 in every relation
    members = probes = 0
    for P in FUNCTIONAL_PRESENTATIONS:
        box = list(product(range(-2, 3), repeat=len(P.generators)))
        members += _lattice_members(P, box)
        probes += len(box)
    assert 0 < members < probes
    for P in (*(sandwich_power(n) for n in range(1, 6)), sandwich_xyx()):
        assert _difference_lattice(P) == ((1, (0, 2)),)
        assert smith_normal_form(P.generators, P.relations)[0] == [2]
    assert {_difference_lattice(ladder_presentation(k)) for k in range(13)} == {((0, (1, 0, 2, 0)),)}


def test_difference_lattice_matches_smith_oracle_on_random_matrices():
    # per matrix, combinations of its rows, the same moved by a multiple of
    # one unit vector, and vectors with entries -6..6
    rng = Random(38)
    kinds = Counter()
    members = probes = 0
    for P, rows in _random_difference_matrices(Random(37), kinds):
        width = len(P.generators)
        combos = [
            [sum(rng.randint(-3, 3) * row[j] for row in rows) for j in range(width)]
            for _ in range(4)
        ]
        moved = [list(delta) for delta in combos]
        for delta in moved:
            delta[rng.randrange(width)] += rng.choice((-3, -2, -1, 1, 2, 3))
        loose = [[rng.randint(-6, 6) for _ in range(width)] for _ in range(4)]
        members += _lattice_members(P, combos + moved + loose)
        probes += 12
    assert min(kinds.values()) >= 400, kinds
    assert probes / 3 < members < 2 * probes / 3, (members, probes)


def test_every_oracle_chain_stays_in_the_difference_lattice():
    # each rewrite step moves the letter counts by one relation difference
    chains = 0
    for P, u, v in _search_pairs(Random(11)):
        status, chain = tuple_congruence_search(P.relations, u, v, 60)
        if status == "equivalent":
            smith = smith_normal_form(P.generators, P.relations)
            for w in chain:
                delta = [a - b for a, b in zip(letter_counts(P, u), letter_counts(P, w))]
                assert _in_difference_lattice(P, delta) and smith_lattice_member(smith, delta)
            chains += 1
    assert chains >= 20


def test_equal_presentations_are_equal_and_hash_equal():
    a, b = sandwich_power(2), sandwich_power(2)
    assert a is not b and a == b and hash(a) == hash(b)
    assert a != sandwich_power(3)
    assert a != Presentation(a.generators, a.relations)  # the family is part of the value
    assert a != (a.generators, a.relations, a.family, a.family_param)


def test_equal_presentation_hits_the_functional_cache():
    congruent_bounded(sandwich_power(2), ("x",), ("y",))
    hits = conserved_functionals.cache_info().hits
    congruent_bounded(sandwich_power(2), ("x",), ("y",))
    assert conserved_functionals.cache_info().hits == hits + 1


def test_equal_presentation_hits_the_lattice_cache():
    # x*x and x*x*y agree on every conserved functional, so the lattice decides
    congruent_bounded(sandwich_power(2), ("x", "x"), ("x", "x", "y"))
    hits = _difference_lattice.cache_info().hits
    congruent_bounded(sandwich_power(2), ("x", "x"), ("x", "x", "y"))
    assert _difference_lattice.cache_info().hits == hits + 1


def test_chain_steps_are_single_rewrites():
    P = sandwich_xyx()
    res = congruent_bounded(P, ("x", "y", "x"), ("y", "x", "y", "x", "y"))
    assert res.status is CongruenceStatus.EQUIVALENT
    for a, b in zip(res.chain, res.chain[1:]):
        assert b in set(tuple_rewrites(a, P.relations))


# -- the encoded search against the tuple oracles ---------------------------------

ORACLE_PRESENTATIONS = (
    sandwich_power(1),
    sandwich_power(2),
    sandwich_power(3),
    sandwich_xyx(),
    ladder_presentation(),
    # an empty relation side and generator names longer than one letter
    parse_presentation("gens: a bb c; rel: e = a*bb; rel: c = c*c"),
)


def _random_word(rng, P, lo, hi):
    return tuple(rng.choice(P.generators) for _ in range(rng.randint(lo, hi)))


def _seeded_word(rng, P, pad):
    """A random word with a relation side inside it, so rewriting applies."""
    side = rng.choice(rng.choice(P.relations))
    return _random_word(rng, P, 0, pad) + side + _random_word(rng, P, 0, pad)


def _random_steps(rng, P, word, steps):
    for _ in range(steps):
        options = list(tuple_rewrites(word, P.relations))
        if not options:
            break
        word = rng.choice(options)
    return word


def _search_pairs(rng):
    """Congruent pairs made by random rewriting on every presentation; parity
    pairs on the sandwich families, where one y added outside the relation
    side keeps every conserved functional but flips the parity of the y
    count, which every relation changes by 2, so congruent_bounded answers
    them from the difference lattice without expanding a word; and pairs
    h*x*y*t, h*y*x*t on sandwich-power(2) and sandwich-xyx, with a relation
    side in h, whose letter counts are equal, so only the search can answer
    them, and it runs until its budget is spent."""
    pairs = []
    for P in ORACLE_PRESENTATIONS:
        for _ in range(4):
            u = _seeded_word(rng, P, 3)
            pairs.append((P, u, _random_steps(rng, P, u, rng.randint(1, 5))))
    for P in ORACLE_PRESENTATIONS[:4]:
        for _ in range(3):
            head, tail = _random_word(rng, P, 0, 3), _random_word(rng, P, 0, 3)
            u = head + P.relations[0][0] + tail
            pairs.append((P, u, head + ("y",) + P.relations[0][0] + tail))
    for P in (ORACLE_PRESENTATIONS[1], ORACLE_PRESENTATIONS[3]):
        for _ in range(3):
            head = _random_word(rng, P, 0, 2) + P.relations[0][0] + _random_word(rng, P, 0, 2)
            tail = _random_word(rng, P, 0, 2)
            pairs.append((P, head + ("x", "y") + tail, head + ("y", "x") + tail))
    return pairs


def test_rewrites_keep_the_oracle_order():
    # one word's successors come in the oracle's order, first occurrences
    # only, without the word itself; with other set, up to the first in other
    rng = Random(9)
    found = stopped = 0
    for P in ORACLE_PRESENTATIONS:
        for _ in range(400):
            word = _seeded_word(rng, P, 4) if rng.random() < 0.5 else _random_word(rng, P, 0, 12)
            expected = [r for r in dict.fromkeys(tuple_rewrites(word, P.relations)) if r != word]
            w = P.encode(word)
            seen = {w: None}
            assert [P.decode(r) for r in _grow([w], P.rules, seen)] == expected
            assert list(seen.items()) == [(w, None), *((P.encode(r), w) for r in expected)]
            found += len(expected)
            if expected:
                k = rng.randrange(len(expected))
                # w is in other too, but only a new word can end the expansion
                other = {w: None, **{P.encode(r): None for r in expected[k:]}}
                fresh = _grow([w], P.rules, {w: None}, other)
                assert [P.decode(r) for r in fresh] == expected[: k + 1]
                stopped += k + 1 < len(expected)
    assert found > 2400 and stopped > 200


def test_search_spends_the_oracle_expansions(monkeypatch):
    grows = []
    monkeypatch.setattr(presentations, "_grow", lambda *args: grows.append(args) or _grow(*args))
    statuses = set()
    unknown = Counter()
    for P, u, v in _search_pairs(Random(11)):
        for budget in range(0, 61):
            before = len(grows)
            res = congruent_bounded(P, u, v, budget)
            status, chain = tuple_congruence_search(P.relations, u, v, budget)
            assert (res.status.value, res.chain) == (status, chain), (P, u, v, budget)
            statuses.add(status)
            if status == "unknown":
                unknown["searched" if len(grows) > before else "lattice"] += 1
    assert statuses == {"equivalent", "unknown"}
    # the parity pairs never search; the equal-count pairs search at every budget
    assert unknown["lattice"] == 12 * 61 and unknown["searched"] >= 6 * 61, unknown


def _parity_pair(rng, P):
    """A benchmark parity pair: a relation side among one x and three y in
    random order, and the same word with one more y outside that side."""
    side = P.relations[0][0]
    letters = ["x"] + ["y"] * 3
    rng.shuffle(letters)
    i = rng.randint(0, len(letters))
    u = tuple(letters[:i]) + side + tuple(letters[i:])
    j = rng.choice([k for k in range(len(u) + 1) if k <= i or k >= i + len(side)])
    return u, u[:j] + ("y",) + u[j:]


def test_parity_pairs_expand_no_word_at_the_default_budget(monkeypatch):
    grows = []
    monkeypatch.setattr(presentations, "_grow", lambda *args: grows.append(args) or _grow(*args))
    rng = Random(7)
    for P in (sandwich_power(1), sandwich_power(2), sandwich_power(3), sandwich_xyx()):
        for _ in range(10):
            u, v = _parity_pair(rng, P)
            assert congruent_bounded(P, u, v).status is CongruenceStatus.UNKNOWN
    assert grows == []
    # the same pair with its counts equal again does search
    assert congruent_bounded(P, u, v + ("y",), 5).status is CongruenceStatus.UNKNOWN
    assert grows


def test_length_probe_spends_the_oracle_expansions():
    rng = Random(13)
    flags = set()
    lad = ladder_presentation()
    generic = (
        *(P for P in ORACLE_PRESENTATIONS if P.family != "ladder"),
        Presentation(lad.generators, lad.relations),  # no family: no exact branch
        parse_presentation("gens: a b c; rel: a*b = b*a; rel: b*c = c*b"),  # finite classes
    )
    for P in generic:
        for _ in range(4):
            target = _seeded_word(rng, P, 2)
            max_len = len(target) + rng.randint(2, 6)
            for budget in range(0, 61):
                probe = bounded_length_set(P, target, max_len, budget)
                expected = tuple_length_probe(P.relations, target, max_len, budget)
                assert (probe.lengths, probe.complete) == expected, (P, target, budget)
                flags.add(probe.complete)
    assert flags == {True, False}


def test_encoding_roundtrip_and_unknown_letters():
    P = parse_presentation("gens: a bb c; rel: e = a*bb; rel: c = c*c")
    word = ("bb", "a", "c", "bb")
    assert P.decode(P.encode(word)) == word
    assert len(P.encode(word)) == 4
    with pytest.raises(AlphabetMismatch, match="undeclared generator 'b'"):
        P.encode(("a", "b"))
    with pytest.raises(AlphabetMismatch, match="undeclared generator 'q'"):
        congruent_bounded(P, ("a",), ("q", "r"))
    with pytest.raises(AlphabetMismatch, match="undeclared generator 'q'"):
        bounded_length_set(P, ("q",), 4)


# -- the ladder engine -----------------------------------------------------------------


def test_psi_examples():
    assert psi(("x", "z")) == 1
    assert psi(()) == 0
    assert psi(("x", "y", "z", "x", "z")) == 2
    # letters are checked one by one: "yz" and "" are not letters of w,x,y,z
    for word in (("q",), ("x", "yz"), ("x", "")):
        with pytest.raises(AlphabetMismatch):
            psi(word)
        with pytest.raises(AlphabetMismatch):
            normal_form(word)


@given(ladder_words)
def test_psi_matches_dp_oracle(word):
    assert psi(word) == psi_dp("".join(word))


def test_normal_form_examples():
    assert normal_form(("y", "x", "y", "z", "w")) == ("x", "z")
    assert normal_form(("y", "y", "x", "y", "y", "z", "w", "w")) == ("x", "z")
    assert normal_form(("x", "z")) == ("x", "z")


def test_normal_form_contracts_each_rung():
    # nf(y * a_{k+1} * w) == nf(a_k) for the whole visible ladder
    for k in range(21):
        a_k = ("x",) + ("y",) * k + ("z",)
        lifted = ("y", "x") + ("y",) * (k + 1) + ("z", "w")
        assert normal_form(lifted) == normal_form(a_k) == a_k


@given(ladder_words)
def test_normal_form_idempotent(word):
    nf = normal_form(word)
    assert normal_form(nf) == nf


@given(ladder_words)
def test_normal_form_reachable_by_rewrites(word):
    # every contraction step is one application of a defining relation
    lad = ladder_presentation(20)
    current = word
    seen = {current}
    while current != normal_form(current):
        nxt = next(
            (
                r
                for r in tuple_rewrites(current, lad.relations)
                if len(r) < len(current) and normal_form(r) == normal_form(word)
            ),
            None,
        )
        assert nxt is not None
        assert nxt not in seen
        seen.add(nxt)
        current = nxt


@st.composite
def expanded_ladder_words(draw):
    """A ladder word whose x y^k z factors are expanded, one at a time, into
    y x y^(k+1) z w, so that contractions nest."""
    pieces = st.sampled_from(["w", "x", "y", "z", "xz", "xyz"])
    s = "".join(draw(st.lists(pieces, max_size=10)))
    for _ in range(draw(st.integers(0, 8))):
        factors = [(m.start(), m.end()) for m in re.finditer(r"xy*z", s)]
        if not factors:
            break
        i, j = draw(st.sampled_from(factors))
        s = s[:i] + "yxy" + s[i + 1 : j] + "w" + s[j:]
    return s


@given(expanded_ladder_words())
def test_normal_form_matches_leftmost_oracle(s):
    assert normal_form(s) == tuple(leftmost_normal_form(s))


def test_verification_report_clean():
    rep = verify_ladder_properties(samples=2000, max_len=10, seed=7)
    assert rep.ok
    assert rep.cancellation_hits > 0 and rep.acyclicity_hits > 0
    assert rep.psi_pairs_checked == 200 and rep.psi_failures == 0


@pytest.mark.parametrize("max_len", [0, 1, 6, 40, 5000, 100_000])
def test_getrandbits_draws_match_random_choice(max_len):
    # The verifier's draws rest on CPython's Random.choice and Random.randint
    # taking n.bit_length() bits and redrawing; this pins it on the running
    # interpreter, generator state included.  Words of up to 40 letters lie on
    # both sides of the batched draw's threshold; 100_000 draws many batches.
    for seed in range(200 if max_len < 100_000 else 6):
        fast, slow = Random(seed), Random(seed)
        bits = fast.getrandbits
        for _ in range(2):
            word = _random_ladder_word(bits, max_len)
            assert word == choice_ladder_word(slow, max_len), seed
            steps = _randbelow(bits, 4)
            assert steps == slow.randint(0, 3), seed
            probe = _random_congruent(bits, word, steps)
            assert probe == choice_congruent(slow, word, steps), seed
            assert _random_order_normal_form(bits, probe) == choice_order_normal_form(slow, probe), seed
        assert fast.getstate() == slow.getstate(), seed


@given(expanded_ladder_words(), st.integers(0, 2**32 - 1), st.integers(0, 4))
@example("yyxyyzww", 0, 0)  # one occurrence, and one again after it is contracted
@example("yxyzwyxyyzwxyzyxyzw", 0, 0)  # three occurrences side by side
@example("yxyzwyyxyyzwwyxyzw", 0, 0)  # several, one of them nested
def test_occurrence_draws_match_random_choice(s, seed, steps):
    fast, slow = Random(seed), Random(seed)
    probe = _random_congruent(fast.getrandbits, s, steps)
    assert probe == choice_congruent(slow, s, steps)
    assert _random_order_normal_form(fast.getrandbits, probe) == choice_order_normal_form(slow, probe)
    assert fast.getstate() == slow.getstate()


def test_verification_matches_choice_oracle():
    for samples, max_len, seed in (
        (0, 6, 0), (1, 0, 3), (200, 6, 3), (700, 6, 5), (400, 12, 7), (150, 40, 11), (10, 400, 2),
        (3500, 6, 19), (3500, 6, 23), (3500, 6, 29),
        # where the length draw's bit width changes, and around the batched letter draw
        (300, 0, 1), (300, 1, 2), (300, 2, 3), (300, 3, 4), (300, 7, 5),
        (200, 31, 6), (200, 32, 7), (200, 33, 8),
    ):
        rep = verify_ladder_properties(samples, max_len, seed)
        assert tuple(rep) == ladder_verification(samples, max_len, seed), (samples, max_len, seed)


@pytest.mark.parametrize("samples, max_len, seed", [(3500, 6, 31), (150, 40, 11)])
def test_verification_draws_match_the_oracle(monkeypatch, samples, max_len, seed):
    # the report cannot see a wrong step count in the psi pass: compare every
    # rewrite's (word, steps) and every random-order probe, in draw order
    seen = []

    def rewrite(bits, s, steps):
        seen.append(("rewrite", s, steps))
        return _random_congruent(bits, s, steps)

    def contract(bits, s):
        seen.append(("contract", s))
        return _random_order_normal_form(bits, s)

    monkeypatch.setattr(presentations, "_random_congruent", rewrite)
    monkeypatch.setattr(presentations, "_random_order_normal_form", contract)
    record = []
    rep = verify_ladder_properties(samples, max_len, seed)
    assert tuple(rep) == ladder_verification(samples, max_len, seed, record)
    assert seen == record


def test_verification_normalizes_no_word_its_draws_decide(monkeypatch):
    calls = []
    monkeypatch.setattr(presentations, "_normal_form", lambda s: calls.append(s) or _normal_form(s))
    verify_ladder_properties(3500, 6, 19)
    # 28,168 when every sample normalized all of its words
    assert len(calls) == 14_849


@pytest.mark.parametrize(
    "samples, max_len, message",
    [(5, -1, "max_len must be >= 0"), (-1, 6, "samples must be >= 0")],
)
def test_verification_refuses_negative_sizes(samples, max_len, message):
    with pytest.raises(ValueError, match=message):
        verify_ladder_properties(samples, max_len)


FAILURE_COUNTERS = ("cancellation_failures", "acyclicity_failures", "confluence_failures", "psi_failures")


@pytest.mark.parametrize(
    "name, fake, failing",
    [
        # the first letter is no normal form: it cancels, it is reached from
        # longer words, and random-order contraction does not land on it
        ("_normal_form", lambda s: s[:1], FAILURE_COUNTERS[:3]),
        # a rewrite that appends a factor x*z changes psi and nothing else
        ("_random_congruent", lambda bits, s, steps: s + "xz", FAILURE_COUNTERS[3:]),
    ],
    ids=["first-letter-normal-form", "factor-appending-rewrite"],
)
def test_verification_counts_each_failure(monkeypatch, name, fake, failing):
    monkeypatch.setattr(presentations, name, fake)
    rep = verify_ladder_properties(200, 6, 3)
    assert tuple(f for f in FAILURE_COUNTERS if getattr(rep, f)) == failing
    assert not rep.ok


def test_verification_handles_specific_instances():
    # congruent pair through a unit square: u = v = y, z = x*z
    assert normal_form(("x", "z", "y")) == normal_form(("x", "z", "y"))
    # no rewrite applies to y*x*z*w (the pattern needs an inner y), so the
    # word is its own normal form and no acyclicity violation is recorded
    assert normal_form(("y", "x", "z", "w")) == ("y", "x", "z", "w")
    assert normal_form(("y", "x", "z", "w")) != normal_form(("x", "z"))


# -- bounded length sets ------------------------------------------------------------------


def test_ladder_lengths_exact():
    lad = ladder_presentation(8)
    probe = bounded_length_set(lad, ("x", "z"), 9)
    assert probe.lengths == (2, 5, 8)
    assert probe.complete and probe.generators_proven_atoms
    # cross-check by exhaustive rewriting closure capped well above the horizon
    seen = {("x", "z")}
    frontier = [("x", "z")]
    while frontier:
        fresh = []
        for w in frontier:
            for r in tuple_rewrites(w, lad.relations):
                if r not in seen and len(r) <= 12:
                    seen.add(r)
                    fresh.append(r)
        frontier = fresh
    assert {len(w) for w in seen if len(w) <= 9} == {2, 5, 8}


def test_ladder_lengths_of_singleton_class():
    lad = ladder_presentation(8)
    probe = bounded_length_set(lad, ("y",), 9)
    assert probe.lengths == (1,)
    assert probe.complete


def test_sandwich_power_lengths():
    probe = bounded_length_set(sandwich_power(2), ("x", "x"), 8)
    assert set(probe.lengths) >= {2, 4, 6, 8}
    assert probe.generators_proven_atoms


def test_sandwich_xyx_lengths():
    probe = bounded_length_set(sandwich_xyx(), ("x", "y", "x"), 9)
    assert set(probe.lengths) >= {3, 5, 7, 9}


def test_one_relator_sandwich_atoms_not_proven():
    probe = bounded_length_set(sandwich_power(1), ("x",), 5)
    assert not probe.generators_proven_atoms
    assert set(probe.lengths) >= {1, 3, 5}


def test_budget_exhaustion_flags_partial_result():
    probe = bounded_length_set(sandwich_power(2), ("x", "x"), 40, budget=5)
    assert not probe.complete


def test_searches_refuse_a_negative_budget():
    # x*x = y*x*x*y has length 4, so a probe that expands nothing is incomplete
    P = sandwich_power(2)
    probe = bounded_length_set(P, ("x", "x"), 8, budget=0)
    assert (probe.lengths, probe.complete) == ((2,), False)
    for family in (P, ladder_presentation()):
        with pytest.raises(ValueError, match="budget must be >= 0"):
            bounded_length_set(family, ("x", "x"), 8, budget=-1)
    with pytest.raises(ValueError, match="budget must be >= 0"):
        congruent_bounded(P, ("x", "x"), ("y", "x", "x", "y"), budget=-1)
