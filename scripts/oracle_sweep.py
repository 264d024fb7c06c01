#!/usr/bin/env python3
"""Cross-validate the polyphase analysis chain against the dense oracle on a
random bank ensemble and a fixed boundary ladder, printing a worst-case
summary.

The random banks draw the rate M from 1 to 3, the channel count N from 1 to
M + 3 and the period P from 1 to 4, so undercomplete banks (N < M, lower
bound 0) and single-root banks (P = 1) are among them.

Every bank gets one fusion report and one dense solve (oracle.cross_check),
which check it three ways: frame bounds against the dense spectrum extremes,
per-channel projection verdicts against the dense translate Gram's defect (a
bank with any disagreeing channel counts as one verdict mismatch), and the
multiset equality of the dense spectrum with the report's per-root spectra.
Bound gaps are reported relative to max(1, B).

The ladder holds the Mercedes-Benz and daubechies4 banks at P = 16 with
filter 0 scaled by 1 + d, d from 1e-11 to 1e-8: its channel defect 2d + d^2
crosses the verdict tolerance 1e-9, where the two routes must still agree.
"""

import argparse
import sys

import numpy as np

from fbff.analysis import fusion_report
from fbff.constructions import named_matrix
from fbff.oracle import cross_check
from fbff.polyphase import bank_of
from fbff.signals import FilterBank


def random_bank(rng, max_rate=3, max_extra=3, max_period=4):
    m = int(rng.integers(1, max_rate + 1))
    n = int(rng.integers(1, m + max_extra + 1))
    p = int(rng.integers(1, max_period + 1))
    filters = [rng.standard_normal(m * p) + 1j * rng.standard_normal(m * p) for _ in range(n)]
    return FilterBank(filters, m)


def boundary_ladder():
    for name in ("mercedes-benz", "daubechies4"):
        fb = bank_of(named_matrix(name, 16))
        for d in np.geomspace(1e-11, 1e-8, 30):
            yield FilterBank([(1.0 + d) * fb.samples[0], *fb.samples[1:]], fb.downsample)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--count", type=int, default=200)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    rng = np.random.default_rng(args.seed)
    banks = [random_bank(rng) for _ in range(args.count)] + list(boundary_ladder())
    worst_bound = 0.0
    verdict_mismatches = 0
    union_failures = 0
    for fb in banks:
        check = cross_check(fb, fusion_report(fb, tol=1e-9), tol=1e-8)
        worst_bound = max(worst_bound, check["bound_gap"] / max(1.0, check["B_dense"]))
        verdict_mismatches += not check["channel_match"]
        union_failures += not check["spectrum_union_ok"]

    print(f"banks checked:        {len(banks)} ({args.count} random + boundary ladder)")
    print(f"worst bound gap / B:  {worst_bound:.3e}")
    print(f"verdict mismatches:   {verdict_mismatches}")
    print(f"spectrum union fails: {union_failures}")
    ok = worst_bound <= 1e-8 and verdict_mismatches == 0 and union_failures == 0
    print("PASS" if ok else "FAIL")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
