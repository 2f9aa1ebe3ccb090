"""Command-line surface: batch analysis and regression runs.

Reports are deterministic: identical configuration (including seed) yields
byte-identical output.  JSON is the machine contract; text renders the same
data.  Every report embeds the tool version and a digest of its input.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import sys

from . import __version__
from .core import (
    ENUMERATION_CAP,
    FiniteMonoid,
    cyclic,
    full_transformation,
    gl,
    json_text,
    null_monoid,
    parse_cayley,
    property_battery,
    trivial,
    two_element_with_zero,
)
from .corpus import scan_corpus
from .errors import CapExceeded, FactorbenchError
from .factorization import (
    IntegerFragment,
    classify_arithmetic,
    enumerate_factorizations,
    factorial_battery,
    integer_class_table,
    is_powerful,
    is_prime,
    kappa_and_dichotomy,
    minimal_catalog,
    primes_up_to,
)
from .power import atomicity_criterion, build_reduced_power_monoid, kappa_report
from .presentations import (
    DEFAULT_SEARCH_BUDGET,
    FAMILY_BUILDERS,
    CongruenceStatus,
    adian_check,
    bounded_length_set,
    congruent_bounded,
    format_word_text,
    normal_form,
    parse_presentation,
    parse_word_text,
    verify_ladder_properties,
)


def _digest(payload: bytes) -> str:
    return hashlib.sha256(payload).hexdigest()


def _load_monoid(ns) -> tuple[FiniteMonoid, str]:
    if ns.infile:
        with open(ns.infile, "rb") as fh:
            raw = fh.read()
        return parse_cayley(raw), _digest(raw)
    if ns.cyclic is not None:
        return cyclic(ns.cyclic), _digest(f"cyclic:{ns.cyclic}".encode())
    if ns.null is not None:
        return null_monoid(ns.null), _digest(f"null:{ns.null}".encode())
    if ns.gl is not None:
        n, m = ns.gl
        return gl(n, m), _digest(f"gl:{n},{m}".encode())
    if ns.full_transformation is not None:
        k = ns.full_transformation
        return full_transformation(k), _digest(f"full_transformation:{k}".encode())
    if ns.two_zero:
        return two_element_with_zero(), _digest(b"two_element_with_zero")
    if ns.trivial:
        return trivial(), _digest(b"trivial")
    raise FactorbenchError("no monoid given: use --in or an instance flag")


def _element_blocks(H: FiniteMonoid, xs) -> list[dict]:
    """The name, length set and minimal classes of each x in xs.  Each
    distinct LengthSet is described once, and every element with that set
    shares the one dict.  A class prints its representative's letters
    counted per atom class and the representative itself."""
    lsets = H.analysis.length_sets
    classes_of = minimal_catalog(H).classes_of
    class_of, names, width = H.atom_class_of, H.names, len(H.atom_classes)
    described: dict = {}
    blocks = []
    for x in xs:
        ls = lsets[x]
        lengths = described.get(ls)
        if lengths is None:
            lengths = described[ls] = ls.describe()
        minimal = []
        for word in classes_of(x):
            counts = [0] * width
            letters = []
            for a in word:
                counts[class_of[a]] += 1
                letters.append(names[a])
            minimal.append({"counts": counts, "representative": format_word_text(letters)})
        blocks.append({"element": names[x], "lengths": lengths, "minimal_classes": minimal})
    return blocks


def _monoid_payload(H: FiniteMonoid) -> dict:
    rep = property_battery(H)
    kappa, union_lengths = kappa_and_dichotomy(H)
    witness_names = {
        key: [H.names[i] for i in w] for key, w in rep.witnesses.items()
    }
    return {
        "size": H.size,
        "properties": {**rep._asdict(), "witnesses": witness_names},
        "classifiers": classify_arithmetic(H)._asdict(),
        "factoriality": factorial_battery(H)._asdict(),
        "atoms": [H.names[a] for a in H.atoms],
        "units": [H.names[u] for u in sorted(H.units)],
        "kappa": kappa,
        "minimal_length_union": list(union_lengths),
        "elements": _element_blocks(H, H.elements()),
    }


def _cmd_analyze(ns):
    H, digest = _load_monoid(ns)
    return 0, digest, _monoid_payload(H)


def _cmd_factorize(ns):
    H, digest = _load_monoid(ns)
    x = H.index_of(ns.element)
    words = enumerate_factorizations(H, x, ns.max_len)
    [block] = _element_blocks(H, [x])
    return 0, digest, {
        "max_len": ns.max_len,
        "factorizations": [format_word_text(H.names[a] for a in w) for w in words],
        **block,
    }


def _cmd_powerset(ns):
    K, digest = _load_monoid(ns)
    P = build_reduced_power_monoid(K)
    criterion = atomicity_criterion(K)
    report = kappa_report(K)
    payload = {
        "base_size": K.size,
        "result_size": P.size,
        "atomicity_criterion": criterion,
        "kappa": report.kappa,
        "bound": report.bound,
        "attains_bound": report.attains_bound,
        "reduced": sorted(P.units) == [0],
        "subsets": list(P.names),
    }
    return 0, digest, payload


def _resolve_presentation(ns):
    if ns.infile:
        with open(ns.infile, "rb") as fh:
            raw = fh.read()
        return parse_presentation(raw.decode("utf-8")), _digest(raw)
    if ns.family:
        builder = FAMILY_BUILDERS[ns.family]
        if ns.family == "sandwich-power":
            P = builder(ns.n)
            return P, _digest(f"family:{ns.family}:{ns.n}".encode())
        return builder(), _digest(f"family:{ns.family}".encode())
    raise FactorbenchError("no presentation given: use --family or --in")


def _cmd_present(ns):
    P, digest = _resolve_presentation(ns)
    action = ns.action
    if action in ("nf", "verify") and P.family != "ladder":
        raise FactorbenchError(f"{action} is only decided for the ladder family")
    payload: dict = {"family": P.family or "custom", "action": action}
    if action == "adian":
        chk = adian_check(P)
        payload.update(
            {
                "left_graph": [list(e) for e in chk.left_graph],
                "right_graph": [list(e) for e in chk.right_graph],
                "is_adian": chk.is_adian,
            }
        )
    elif action == "nf":
        word = parse_word_text(ns.words[0])
        payload["input"] = format_word_text(word)
        payload["normal_form"] = format_word_text(normal_form(word))
    elif action == "congruent":
        u = parse_word_text(ns.words[0])
        v = parse_word_text(ns.words[1])
        res = congruent_bounded(P, u, v, ns.budget)
        payload["status"] = res.status.value
        if res.status is CongruenceStatus.EQUIVALENT:
            payload["chain"] = [format_word_text(w) for w in res.chain]
            payload["chain_length"] = len(res.chain) - 1
        elif res.status is CongruenceStatus.REFUTED:
            payload["functional"] = dict(zip(P.generators, res.functional))
    elif action == "lengths":
        target = parse_word_text(ns.words[0])
        probe = bounded_length_set(P, target, ns.max_len, ns.budget)
        payload.update(
            {
                "target": format_word_text(target),
                "max_len": ns.max_len,
                "lengths": list(probe.lengths),
                "complete": probe.complete,
                "generators_proven_atoms": probe.generators_proven_atoms,
            }
        )
    else:  # verify
        rep = verify_ladder_properties(ns.samples, ns.max_len, ns.seed)
        payload.update(rep._asdict(), ok=rep.ok)
        return (0 if rep.ok else 2), digest, payload
    return 0, digest, payload


def _cmd_ints(ns):
    limit = ns.limit
    prime_bound = ns.prime_bound
    primes = primes_up_to(prime_bound)
    if primes and primes[-1] > limit:
        raise FactorbenchError(
            f"--prime-bound {prime_bound} admits the prime {primes[-1]}, above --limit {limit}"
        )
    S = IntegerFragment(limit)
    digest = _digest(f"ints:{limit}:{prime_bound}".encode())

    # Unique factorization: exactly one congruence class per n.
    least = integer_class_table(limit)
    non_unique = [] if least is None else [least]

    prime_failures = [p for p in primes if not is_prime(S, p)[0]]
    powerful_failures = [p for p in primes if not is_powerful(S, p)[0]]
    ok = not non_unique and not prime_failures and not powerful_failures
    payload = {
        "limit": limit,
        "prime_bound": prime_bound,
        "checked": limit - 1,
        "non_unique": non_unique,
        "primes_checked": len(primes),
        "prime_failures": prime_failures,
        "powerful_failures": powerful_failures,
        "ok": ok,
    }
    return (0 if ok else 2), digest, payload


def _cmd_corpus(ns):
    violations = scan_corpus(max_order=ns.max_order)
    digest = _digest(f"corpus:{ns.max_order}".encode())
    payload = {
        "max_order": ns.max_order,
        "violations": violations,
        "ok": not violations,
    }
    return (0 if not violations else 2), digest, payload


def _render_text(data, indent=0) -> str:
    pad = "  " * indent
    if isinstance(data, dict):
        pairs = [(f"{key}:", data[key]) for key in sorted(data)]
    else:
        pairs = [("-", value) for value in data]
    lines = []
    for head, value in pairs:
        if isinstance(value, (dict, list)) and value:
            lines.append(pad + head)
            lines.append(_render_text(value, indent + 1))
        else:
            lines.append(f"{pad}{head} {value}")
    return "\n".join(lines)


def _emit(report: dict, ns) -> None:
    if ns.fmt == "json":
        text = json_text(report) + "\n"
    else:
        text = _render_text(report) + "\n"
    if ns.out:
        with open(ns.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _add_monoid_flags(sub):
    source = sub.add_mutually_exclusive_group()
    source.add_argument("--in", dest="infile", metavar="FILE", help="Cayley table JSON")
    source.add_argument("--cyclic", type=int, metavar="N")
    source.add_argument("--null", type=int, metavar="K")
    source.add_argument("--gl", type=int, nargs=2, metavar=("N", "M"))
    source.add_argument("--full-transformation", dest="full_transformation", type=int, metavar="M")
    source.add_argument("--two-zero", dest="two_zero", action="store_true")
    source.add_argument("--trivial", dest="trivial", action="store_true")


def _add_output_flags(sub):
    sub.add_argument("--format", dest="fmt", choices=("json", "text"), default="json")
    sub.add_argument("--out", metavar="FILE")
    sub.set_defaults(leaf=sub)  # the innermost parser, whose usage line main reports leftovers with


@functools.cache  # built once per process; parse_args keeps no state in it
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="factorbench",
        description="Factorization workbench for finite monoids and presentations.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    subs = parser.add_subparsers(dest="command", required=True)
    int_flags = {
        "--max-len": {"type": int, "default": 6, "metavar": "K"},
        "--budget": {"type": int, "default": DEFAULT_SEARCH_BUDGET, "metavar": "K"},
        "--seed": {"type": int, "default": 0, "metavar": "K"},
        "--samples": {"type": int, "default": 1000, "help": "samples for verify"},
    }

    p = subs.add_parser("analyze", help="property battery, classifiers, catalog, kappa")
    _add_monoid_flags(p)
    _add_output_flags(p)

    p = subs.add_parser("factorize", help="factorizations of one element")
    p.add_argument("element", help="element name")
    _add_monoid_flags(p)
    p.add_argument("--max-len", **int_flags["--max-len"])
    _add_output_flags(p)

    p = subs.add_parser("powerset", help="reduced power monoid report")
    _add_monoid_flags(p)
    _add_output_flags(p)

    p = subs.add_parser("present", help="presentation tools")
    actions = p.add_subparsers(dest="action", required=True)
    # Each action: the number of word literals it takes and the flags it reads.
    for action, words, reads in (
        ("adian", 0, ()),
        ("nf", 1, ()),
        ("congruent", 2, ("--budget",)),
        ("lengths", 1, ("--max-len", "--budget")),
        ("verify", 0, ("--samples", "--max-len", "--seed")),
    ):
        a = actions.add_parser(action)
        if words:
            a.add_argument("words", nargs=words, metavar="WORD")
        source = a.add_mutually_exclusive_group()
        source.add_argument("--in", dest="infile", metavar="FILE", help="presentation text")
        source.add_argument("--family", choices=tuple(FAMILY_BUILDERS))
        a.add_argument("--n", type=int, default=2, help="parameter for sandwich-power")
        for flag in reads:
            a.add_argument(flag, **int_flags[flag])
        _add_output_flags(a)

    p = subs.add_parser("ints", help="integer-fragment unique factorization demo")
    p.add_argument("--limit", type=int, default=10_000)
    p.add_argument("--prime-bound", dest="prime_bound", type=int, default=100)
    _add_output_flags(p)

    p = subs.add_parser("corpus", help="run the exhaustive small-monoid scan")
    p.add_argument("--max-order", dest="max_order", type=int, default=3)
    _add_output_flags(p)

    return parser


_HANDLERS = {
    "analyze": _cmd_analyze,
    "factorize": _cmd_factorize,
    "powerset": _cmd_powerset,
    "present": _cmd_present,
    "ints": _cmd_ints,
    "corpus": _cmd_corpus,
}


def dispatch(ns) -> int:
    # Each command declares only the flags it reads.
    lowest = {
        "max_len": 0, "n": 1, "budget": 1, "seed": 0, "max_order": 0,
        "samples": 0, "limit": 1, "prime_bound": 0,
    }
    for dest, low in lowest.items():
        value = getattr(ns, dest, low)
        if value < low:
            raise ValueError(f"--{dest.replace('_', '-')} {value} is below {low}")
    # These flags size an allocation or a loop before any budget applies.
    for dest in ("max_len", "n", "limit", "prime_bound", "samples"):
        value = getattr(ns, dest, None)
        if value is not None and value > ENUMERATION_CAP:
            flag = "--" + dest.replace("_", "-")
            raise CapExceeded(f"{flag} {value} is above the cap {ENUMERATION_CAP}")
    code, digest, payload = _HANDLERS[ns.command](ns)
    report = {
        "version": __version__,
        "command": ns.command,
        "input_digest": digest,
        "report": payload,
    }
    _emit(report, ns)
    return code


def main(argv=None) -> int:
    parser = build_parser()
    ns, extras = parser.parse_known_args(argv)
    if extras:  # argparse would report a subparser's leftovers with the top-level usage
        ns.leaf.error(f"unrecognized arguments: {' '.join(extras)}")
    try:
        return dispatch(ns)
    except (FactorbenchError, OSError, ValueError) as exc:
        print(f"factorbench: {exc}", file=sys.stderr)
        return 1
    except MemoryError:
        print("factorbench: out of memory", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
