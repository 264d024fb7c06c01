#!/usr/bin/env python3
"""Cross-validate the polyphase analysis chain against the dense oracle on a
random bank ensemble, printing a worst-case summary.

Every bank gets one fusion report and one dense solve (oracle.cross_check),
which check it three ways: frame bounds against the dense spectrum extremes,
per-channel projection verdicts against dense Gram idempotence (a bank with
any disagreeing channel counts as one verdict mismatch), and the multiset
equality of the dense spectrum with the report's per-root spectra.
"""

import argparse
import sys

import numpy as np

from fbff.analysis import fusion_report
from fbff.oracle import cross_check
from fbff.signals import FilterBank, Signal


def random_bank(rng, max_rate=3, max_extra=3, max_period=4):
    m = int(rng.integers(1, max_rate + 1))
    n = int(rng.integers(m, m + max_extra + 1))
    p = int(rng.integers(2, max_period + 1))
    filters = tuple(
        Signal(rng.standard_normal(m * p) + 1j * rng.standard_normal(m * p))
        for _ in range(n)
    )
    return FilterBank(filters, m)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--count", type=int, default=200)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    rng = np.random.default_rng(args.seed)
    worst_bound = 0.0
    verdict_mismatches = 0
    union_failures = 0
    for _ in range(args.count):
        fb = random_bank(rng)
        check = cross_check(fb, fusion_report(fb, tol=1e-9), tol=1e-8)
        worst_bound = max(worst_bound, check["bound_gap"])
        verdict_mismatches += not check["channel_match"]
        union_failures += not check["spectrum_union_ok"]

    print(f"banks checked:        {args.count}")
    print(f"worst bound gap:      {worst_bound:.3e}")
    print(f"verdict mismatches:   {verdict_mismatches}")
    print(f"spectrum union fails: {union_failures}")
    ok = worst_bound <= 1e-8 and verdict_mismatches == 0 and union_failures == 0
    print("PASS" if ok else "FAIL")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
