"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as they
appear; the plain suite records the same outcomes as test results.
"""

import json
import time

import pytest

import factorbench as fb
from factorbench.corpus import corpus_members, scan_corpus
from factorbench.cli import main as cli_main
from factorbench.factorization import (
    IntegerFragment,
    integer_class_table,
    minimal_catalog,
)
from factorbench.power import atomicity_criterion, kappa_report
from factorbench.presentations import (
    CongruenceStatus,
    adian_check,
    bounded_length_set,
    congruent_bounded,
    normal_form,
    sandwich_power,
    sandwich_xyx,
    ladder_presentation,
    verify_ladder_properties,
)
from oracles import (
    class_count_vector,
    class_space_catalog,
    integer_class_sets,
    smallest_prime_factorization,
    tuple_chain_valid,
    word_catalog,
)


def _line(num, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[criterion {num:02d}] {name}: {status}{suffix}")


@pytest.fixture(scope="module")
def members():
    return corpus_members(max_order=3)


def test_criterion_01_exhaustive_scan(members):
    start = time.time()
    violations = scan_corpus(max_order=3)
    elapsed = time.time() - start
    ok = not violations and elapsed < 120
    _line(
        1,
        "small-monoid scan",
        ok,
        f"{len(members)} members, {len(violations)} violations, {elapsed:.1f}s",
    )
    assert not violations, violations[:5]
    assert elapsed < 120


def test_criterion_02_powerful_implies_prime(members):
    bad = []
    for name, H in members:
        if not fb.classify_arithmetic(H).atomic:
            continue
        for a in H.atoms:
            if fb.is_powerful(H, a)[0] and not fb.is_prime(H, a)[0]:
                bad.append((name, a))
    n3 = fb.null_monoid(1)
    converse_fails = fb.is_prime(n3, 1)[0] and not fb.is_powerful(n3, 1)[0]
    ok = not bad and converse_fails
    _line(2, "powerful implies prime", ok, f"{len(bad)} violations")
    assert not bad and converse_fails


def test_criterion_03_factorial_cross_check(members):
    checked = 0
    for name, H in members:
        flags = fb.factorial_battery(H)  # CrossCheckMismatch on route mismatch
        checked += 1
        if fb.property_battery(H).group:
            assert flags.factorial, name
    _line(3, "factoriality routes agree", True, f"{checked} members")


def test_criterion_04_catalog_oracle_equivalence(members):
    checked = 0
    for name, H in members:
        if H.size > 16:
            continue
        cat = minimal_catalog(H)
        width = len(H.atom_classes)
        for expected, expected_kappa in filter(
            None, (word_catalog(H, max_words=50_000), class_space_catalog(H))
        ):
            for x in H.elements():
                got = {class_count_vector(H.atom_class_of, width, w) for w in cat.classes_of(x)}
                assert got == expected[x], (
                    name,
                    x,
                )
            assert cat.kappa == expected_kappa, name
        checked += 1
    _line(4, "minimal-catalog oracle equivalence", True, f"{checked} members")


def test_criterion_05_dichotomy_and_kappa(members):
    for name, H in members:
        kappa, union = fb.kappa_and_dichotomy(H)
        assert union == tuple(range(kappa + 1)), name

    assert fb.minimal_catalog(fb.null_monoid(1)).kappa == 2
    p3 = fb.build_reduced_power_monoid(fb.cyclic(3))
    assert fb.minimal_catalog(p3).kappa == 2

    start = time.time()
    rep5 = kappa_report(fb.cyclic(5))
    elapsed = time.time() - start
    assert (rep5.kappa, rep5.bound, rep5.attains_bound) == (4, 4, True)
    assert elapsed < 60
    _line(5, "dichotomy and kappa", True, f"kappa(P1(C5))=4 in {elapsed:.1f}s")


def test_criterion_06_power_atomicity_criterion(members):
    checked = 0
    for name, K in members:
        if K.size > 6:
            continue
        atomicity_criterion(K)  # CrossCheckMismatch on disagreement
        checked += 1
    assert atomicity_criterion(fb.cyclic(2)) is False
    assert atomicity_criterion(fb.cyclic(3)) is True
    assert atomicity_criterion(fb.cyclic(5)) is True
    _line(6, "power-monoid atomicity criterion", True, f"{checked} bases")


def test_criterion_07_presentation_examples():
    start = time.time()
    checks = []

    adian_ok = all(adian_check(sandwich_power(n)).is_adian for n in range(1, 7))
    adian_ok = adian_ok and adian_check(sandwich_xyx()).is_adian
    checks.append(("cycle-free families", adian_ok))

    res = congruent_bounded(sandwich_power(1), ("x",), ("y", "x", "y"))
    chain_ok = res.status is CongruenceStatus.EQUIVALENT and len(res.chain) - 1 == 1
    checks.append(("one-step congruence x = y*x*y", chain_ok))

    probe_a = bounded_length_set(sandwich_power(2), ("x", "x"), 8)
    checks.append(
        (f"sandwich-power(2) lengths {set(probe_a.lengths)}", set(probe_a.lengths) >= {2, 4, 6, 8})
    )
    probe_b = bounded_length_set(sandwich_xyx(), ("x", "y", "x"), 9)
    checks.append(
        (f"sandwich-xyx lengths {set(probe_b.lengths)}", set(probe_b.lengths) >= {3, 5, 7, 9})
    )
    ladder = ladder_presentation(8)
    probe_c = bounded_length_set(ladder, ("x", "z"), 9)
    checks.append(
        (
            f"ladder lengths {probe_c.lengths} == (2, 5, 8), complete",
            probe_c.lengths == (2, 5, 8) and probe_c.complete,
        )
    )
    # Each relation x*y^k*z = y*x*y^(k+1)*z*w turns k+2 letters into k+5, so
    # every word congruent to x*z has length 2 (mod 3): lengths up to 9 are
    # at most {2, 5, 8}.
    stretches = {len(rhs) - len(lhs) for lhs, rhs in ladder.relations}
    checks.append((f"ladder relations change length by {stretches} == {{3}}", stretches == {3}))
    # Witnesses found by rewriting search, not by the ladder normal form.
    for witness in (("y", "x", "y", "z", "w"), ("y", "y", "x", "y", "y", "z", "w", "w")):
        res = congruent_bounded(ladder, ("x", "z"), witness)
        witness_ok = (
            res.status is CongruenceStatus.EQUIVALENT
            and res.chain[0] == ("x", "z")
            and res.chain[-1] == witness
            and tuple_chain_valid(ladder.relations, res.chain)
        )
        checks.append((f"x*z congruent to length-{len(witness)} word {'*'.join(witness)}", witness_ok))

    elapsed = time.time() - start
    checks.append((f"runtime {elapsed:.1f}s < 90s in total", elapsed < 90))

    ok = all(flag for _, flag in checks)
    for label, flag in checks:
        print(f"    - {label}: {'ok' if flag else 'FAILED'}")
    _line(7, "presentation examples", ok)
    assert ok, "failed checks: " + "; ".join(label for label, flag in checks if not flag)


def test_criterion_08_ladder_engine():
    assert normal_form(("y", "x", "y", "z", "w")) == ("x", "z")
    assert normal_form(("y", "y", "x", "y", "y", "z", "w", "w")) == ("x", "z")
    assert normal_form(("x", "z")) == ("x", "z")
    report = verify_ladder_properties(samples=10_000, max_len=12, seed=0)
    _line(
        8,
        "ladder engine",
        report.ok,
        f"{report.samples} samples, {report.cancellation_hits} cancellation hits, "
        f"{report.psi_pairs_checked} psi pairs",
    )
    assert report.ok
    assert report.psi_failures == 0


def test_criterion_09_integer_fragment():
    start = time.time()
    limit = 10_000
    non_unique = integer_class_table(limit) is not None
    classes = integer_class_sets(limit)
    sieve_mismatch = [
        n
        for n in range(2, limit + 1)
        if classes[n] != {smallest_prime_factorization(n)}
    ]
    S = IntegerFragment(limit)
    primes = [p for p in S.atoms if p <= 100]
    not_prime = [p for p in primes if not fb.is_prime(S, p)[0]]
    not_powerful = [p for p in primes if not fb.is_powerful(S, p)[0]]
    elapsed = time.time() - start
    ok = not non_unique and not sieve_mismatch and not not_prime and not not_powerful
    ok = ok and elapsed < 30
    _line(
        9,
        "integer fragment",
        ok,
        f"n <= {limit}, {len(primes)} primes, {elapsed:.1f}s",
    )
    assert not non_unique and not sieve_mismatch
    assert not not_prime and not not_powerful
    assert elapsed < 30


def test_criterion_10_determinism(tmp_path, capsys):
    n3 = fb.null_monoid(1)
    source = tmp_path / "n3.json"
    fb.save_cayley(n3, source)
    outputs = []
    for tag in ("a", "b"):
        target = tmp_path / f"{tag}.json"
        code = cli_main(["analyze", "--in", str(source), "--out", str(target)])
        assert code == 0
        outputs.append(target.read_bytes())
    identical = outputs[0] == outputs[1]

    runs = []
    for _ in range(2):
        code = cli_main(["powerset", "--cyclic", "4"])
        assert code == 0
        runs.append(capsys.readouterr().out)
    identical = identical and runs[0] == runs[1]
    _line(10, "byte-identical reports", identical)
    assert identical
    payload = json.loads(runs[0])
    assert payload["version"] == fb.__version__ and payload["input_digest"]
