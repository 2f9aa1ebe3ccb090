#!/usr/bin/env python3
"""Run the full corpus scan and print a one-line verdict per member."""

import argparse
import sys
import time

from factorbench.corpus import corpus_members, scan_member
from factorbench.errors import FactorbenchError


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--max-order", type=int, default=3)
    args = parser.parse_args()

    start = time.time()
    total_violations = 0
    try:
        members = corpus_members(args.max_order)
    except FactorbenchError as exc:
        print(f"run_corpus: {exc}", file=sys.stderr)
        return 1
    for name, H in members:
        violations = scan_member(name, H)
        total_violations += len(violations)
        verdict = "ok" if not violations else f"{len(violations)} VIOLATIONS"
        print(f"{name:<12} |H|={H.size:<4} {verdict}")
        for v in violations:
            print(f"    {v}")
    print(f"done in {time.time() - start:.1f}s, {total_violations} violations")
    return 0 if total_violations == 0 else 2


if __name__ == "__main__":
    sys.exit(main())
