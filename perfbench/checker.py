"""Independent report checker for the factorbench benchmark.

Every answer a report is compared against is computed here, from the
request's own input, without importing factorbench: brute-force units,
atoms, group and commutative flags; replayed rewriting chains; conserved
functionals; a normal form computed in a different contraction order; and
the proven kappa facts.

`check` sorts each request into one of three outcomes:
  ok         - the report passed every check;
  undecided  - a legitimate bounded non-answer: a typed cap error
               (ExplosionGuard, CapExceeded), `status: unknown` or
               `complete: false`;
  failed     - anything else: a wrong exit code, a malformed report, or a
               report that contradicts an independent answer.
"""

from __future__ import annotations

import hashlib
import json
import re
from math import gcd

from gen import Request, power_names, rewrites

# Messages of the typed cap errors, as the CLI prints them on stderr.
CAP_MESSAGES = re.compile(r"more than \d+ prefixes examined|layer iteration exceeded \d+ steps")


class Mismatch(Exception):
    """A report contradicts an independently computed answer."""


def expect(cond: bool, what: str) -> None:
    if not cond:
        raise Mismatch(what)


def check(req: Request, code, stdout: str, stderr: str) -> tuple[str, str]:
    """Return (outcome, reason) for one finished request."""
    if code == 1 and CAP_MESSAGES.search(stderr):
        return "undecided", stderr.strip()
    try:
        doc = json.loads(stdout)
        expect(code in (0, 2), f"exit code {code}: {stderr.strip()[:200]}")
        expect(doc.get("command") == req.argv[0], "command echo")
        if req.infile is not None:
            digest = hashlib.sha256(req.infile.encode()).hexdigest()
            expect(doc.get("input_digest") == digest, "input digest")
        verdict = CHECKS[req.kind.split(".", 1)[1]](req, doc["report"])
        expect(code == 0, f"exit code {code} on a passing report")
    except (Mismatch, ValueError, KeyError, TypeError, IndexError, AttributeError) as exc:
        return "failed", f"{type(exc).__name__}: {exc}"
    return verdict, ""


# -- finite monoids ---------------------------------------------------------------


def brute_units(t) -> list[int]:
    n = len(t)
    return [u for u in range(n) if any(t[u][v] == 0 == t[v][u] for v in range(n))]


def brute_atoms(t, units) -> list[int]:
    unit_set = set(units)
    nonunits = [x for x in range(len(t)) if x not in unit_set]
    products = {t[x][y] for x in nonunits for y in nonunits}
    return [a for a in nonunits if a not in products]


def _evaluate(t, index, word_text_: str) -> tuple[int, int]:
    """(product, length) of a '*'-joined word of element names."""
    if word_text_ == "e":
        return 0, 0
    x = 0
    letters = word_text_.split("*")
    for name in letters:
        x = t[x][index[name]]
    return x, len(letters)


def _witness_ok(flag: str, w, t, units) -> bool:
    n = len(t)
    rng = range(n)
    if flag == "acyclic":
        u, x, v = w
        return (u not in units or v not in units) and t[t[u][x]][v] == x
    if flag == "unit_cancellative":
        x, y = w
        return y not in units and (t[x][y] == x or t[y][x] == x)
    if flag == "cancellative":
        x, y, z = w
        return x != y and (t[x][z] == t[y][z] or t[z][x] == t[z][y])
    if flag == "normalizing":
        (a,) = w
        return {t[a][x] for x in rng} != {t[x][a] for x in rng}
    if flag == "commutative":
        x, y = w
        return t[x][y] != t[y][x]
    if flag == "reduced":
        (u,) = w
        return u != 0 and u in units
    if flag == "group":
        (x,) = w
        return x not in units
    return False


def check_monoid(req: Request, rep: dict) -> str:
    T = req.expect["monoid"]
    t, names = T.table, T.names
    n = len(t)
    index = {name: i for i, name in enumerate(names)}
    units = brute_units(t)
    unit_set = set(units)
    atoms = brute_atoms(t, units)
    expect(rep["size"] == n, "size")
    expect(rep["units"] == [names[u] for u in units], "units")
    expect(rep["atoms"] == [names[a] for a in atoms], "atoms")
    props = rep["properties"]
    group = len(units) == n
    commutative = all(t[x][y] == t[y][x] for x in range(n) for y in range(x))
    expect(props["group"] is group, "group flag")
    expect(props["commutative"] is commutative, "commutative flag")
    if group:  # a finite group is acyclic and cancellative
        for flag in ("acyclic", "unit_cancellative", "cancellative", "normalizing"):
            expect(props[flag] is True, f"{flag} flag of a group")
    witnesses = props["witnesses"]
    for flag in ("acyclic", "unit_cancellative", "cancellative", "normalizing",
                 "commutative", "reduced", "group"):
        if props[flag]:
            expect(flag not in witnesses, f"{flag} is true but has a witness")
        else:
            w = tuple(index[name] for name in witnesses[flag])
            expect(_witness_ok(flag, w, t, unit_set), f"{flag} witness {witnesses[flag]}")
    kappa = rep["kappa"]
    expect(rep["minimal_length_union"] == list(range(kappa + 1)), "minimal lengths fill 0..kappa")
    expect(len(rep["elements"]) == n, "one entry per element")
    longest = 0
    for i, entry in enumerate(rep["elements"]):
        expect(entry["element"] == names[i], "element order")
        for cls in entry["minimal_classes"]:
            x, length = _evaluate(t, index, cls["representative"])
            expect(x == i, f"minimal representative of {names[i]} evaluates elsewhere")
            expect(sum(cls["counts"]) == length, "class counts vs representative length")
            longest = max(longest, length)
    expect(kappa == longest, "kappa is the longest minimal factorization")
    if "base_size" in req.expect:
        k = req.expect["base_size"]
        expect(n == 2 ** (k - 1), "power monoid size")
        expect(units == [0], "power monoid is reduced")
        expect(kappa <= k - 1, "kappa <= |K| - 1")
        if req.expect["base_kind"] == "cyclic":
            expect(kappa == k - 1, "kappa = m - 1 for a cyclic base")
    return "ok"


def check_null(req: Request, rep: dict) -> str:
    k = req.expect["k"]
    expect(rep["size"] == k + 2, "size")
    expect(rep["units"] == ["1"], "units")
    expect(len(rep["atoms"]) == k and "1" not in rep["atoms"], "atoms")
    expect(rep["kappa"] == 2, "kappa = 2 for a null monoid")
    expect(rep["minimal_length_union"] == [0, 1, 2], "minimal lengths")
    expect(rep["properties"]["commutative"] is True, "commutative flag")
    expect(rep["properties"]["group"] is False, "group flag")
    return "ok"


def check_powerset(req: Request, rep: dict) -> str:
    K = req.expect["monoid"]
    t = K.table
    k = K.n
    criterion = all(t[x][x] != 0 and t[x][x] != x for x in range(1, k))
    expect(rep["base_size"] == k, "base size")
    expect(rep["result_size"] == 2 ** (k - 1), "result size")
    expect(rep["subsets"] == power_names(K), "subsets")
    expect(rep["bound"] == k - 1, "bound")
    expect(rep["kappa"] <= k - 1, "kappa <= |K| - 1")
    expect(rep["attains_bound"] is (rep["kappa"] == k - 1), "attains_bound")
    expect(rep["atomicity_criterion"] is criterion, "atomicity criterion")
    expect(rep["reduced"] is True, "reduced")
    if req.expect["base_kind"] == "cyclic":
        expect(rep["kappa"] == k - 1, "kappa = m - 1 for a cyclic base")
    return "ok"


def check_factorize(req: Request, rep: dict) -> str:
    T = req.expect["monoid"]
    t, names = T.table, T.names
    index = {name: i for i, name in enumerate(names)}
    x, max_len = req.expect["element"], req.expect["max_len"]
    atoms = brute_atoms(t, brute_units(t))
    atom_names = {names[a] for a in atoms}
    # Count atom words of each length ending at x, one layer at a time.
    ways = [0] * len(t)
    ways[0] = 1
    total = ways[x]
    for _ in range(max_len):
        nxt = [0] * len(t)
        for s, c in enumerate(ways):
            if c:
                row = t[s]
                for a in atoms:
                    nxt[row[a]] += c
        ways = nxt
        total += ways[x]
    words = rep["factorizations"]
    expect(rep["element"] == names[x] and rep["max_len"] == max_len, "echo")
    expect(len(words) == total, f"{len(words)} factorizations, expected {total}")
    expect(len(set(words)) == len(words), "duplicate factorization")
    for w in words:
        y, length = _evaluate(t, index, w)
        expect(y == x and length <= max_len, f"factorization {w}")
        expect(w == "e" or set(w.split("*")) <= atom_names, f"non-atom letter in {w}")
    for cls in rep["minimal_classes"]:
        y, length = _evaluate(t, index, cls["representative"])
        expect(y == x and sum(cls["counts"]) == length, "minimal class representative")
    return "ok"


# -- presentations -------------------------------------------------------------------


def parse_word(text: str) -> tuple[str, ...]:
    return () if text == "e" else tuple(text.split("*"))


def _counts(word, gens) -> list[int]:
    return [word.count(g) for g in gens]


def check_congruent(req: Request, rep: dict) -> str:
    e = req.expect
    u, v, rels, gens = e["u"], e["v"], e["relations"], e["gens"]
    status = rep["status"]
    if status == "equivalent":
        chain = [parse_word(w) for w in rep["chain"]]
        expect(chain[0] == u and chain[-1] == v, "chain endpoints")
        expect(rep["chain_length"] == len(chain) - 1, "chain length")
        for a, b in zip(chain, chain[1:]):
            expect(b in rewrites(a, rels), f"chain step {a} -> {b} is not one relation")
        expect(e["built"] != "separated", "pair built separated was found equivalent")
        return "ok"
    if status == "refuted":
        f = rep["functional"]
        expect(e["built"] != "congruent", "pair built congruent was refuted")
        for lhs, rhs in rels:
            expect(sum(f[g] * (a - b) for g, a, b in zip(gens, _counts(lhs, gens), _counts(rhs, gens))) == 0,
                   f"functional {f} not conserved by {lhs} = {rhs}")
        fu = sum(f[g] * c for g, c in zip(gens, _counts(u, gens)))
        fv = sum(f[g] * c for g, c in zip(gens, _counts(v, gens)))
        expect(fu != fv, "functional does not separate the pair")
        return "ok"
    expect(status == "unknown", f"status {status!r}")
    expect(e["built"] != "separated", "separated pair left unknown")
    return "undecided"


def check_lengths(req: Request, rep: dict) -> str:
    e = req.expect
    target, max_len = e["target"], e["max_len"]
    lengths = rep["lengths"]
    step = 0
    for lhs, rhs in e["relations"]:
        step = gcd(step, abs(len(lhs) - len(rhs)))
    expect(parse_word(rep["target"]) == target and rep["max_len"] == max_len, "echo")
    expect(lengths == sorted(set(lengths)), "lengths sorted and distinct")
    expect(all(0 <= k <= max_len for k in lengths), "length beyond max_len")
    expect(len(target) > max_len or len(target) in lengths, "target's own length missing")
    if step:
        expect(all((k - len(target)) % step == 0 for k in lengths), "length off the relation lattice")
    proven = e["family"] == "sandwich-xyx" or e["n"] >= 2
    expect(rep["generators_proven_atoms"] is proven, "generators_proven_atoms")
    return "ok" if rep["complete"] else "undecided"


def check_verify(req: Request, rep: dict) -> str:
    expect(rep["ok"] is True, "ladder verification not ok")
    expect(rep["samples"] == req.expect["samples"], "samples echo")
    for key in ("cancellation_failures", "acyclicity_failures", "confluence_failures", "psi_failures"):
        expect(rep[key] == 0, key)
    return "ok"


def ladder_normal_form(word) -> str:
    """Contract y x y^m z w -> x y^(m-1) z (m >= 1) at the rightmost
    occurrence until none is left; confluence makes the order irrelevant."""
    s = "".join(word)
    while True:
        for i in range(len(s) - 2, -1, -1):
            if s[i:i + 2] != "yx":
                continue
            j = i + 2
            while j < len(s) and s[j] == "y":
                j += 1
            if j > i + 2 and s[j:j + 2] == "zw":
                s = s[:i] + "x" + "y" * (j - i - 3) + "z" + s[j + 2:]
                break
        else:
            return s


def check_nf(req: Request, rep: dict) -> str:
    word = req.expect["word"]
    expect(parse_word(rep["input"]) == word, "input echo")
    expect("".join(parse_word(rep["normal_form"])) == ladder_normal_form(word), "normal form")
    return "ok"


# -- integers and the corpus -----------------------------------------------------------


def prime_count(bound: int) -> int:
    return sum(1 for p in range(2, bound + 1) if all(p % d for d in range(2, int(p**0.5) + 1)))


def check_ints(req: Request, rep: dict) -> str:
    e = req.expect
    expect(rep["ok"] is True, "ints not ok")
    expect(rep["limit"] == e["limit"] and rep["checked"] == e["limit"] - 1, "limit echo")
    expect(rep["primes_checked"] == prime_count(e["prime_bound"]), "primes checked")
    expect(rep["non_unique"] == rep["prime_failures"] == rep["powerful_failures"] == [], "failures")
    return "ok"


def check_corpus(req: Request, rep: dict) -> str:
    expect(rep["ok"] is True and rep["violations"] == [], "corpus violations")
    expect(rep["max_order"] == req.expect["max_order"], "max_order echo")
    return "ok"


CHECKS = {
    "cyclic_product": check_monoid,
    "gl23_product": check_monoid,
    "transformation": check_monoid,
    "analyze_power": check_monoid,
    "analyze_small": check_monoid,
    "analyze_null": check_null,
    "powerset": check_powerset,
    "factorize_power": check_factorize,
    "factorize_small": check_factorize,
    "congruent": check_congruent,
    "separated": check_congruent,
    "exhaust": check_congruent,
    "custom": check_congruent,
    "lengths": check_lengths,
    "verify": check_verify,
    "nf": check_nf,
    "ints": check_ints,
    "corpus": check_corpus,
}
