#!/usr/bin/env python3
"""Emit frequency-response CSV tables for the named banks and a designed
max-flat prototype.

The tables reproduce the response curves of the stock constructions (the
3-channel product bank, the 4-channel modulated stack) and of a freshly
designed 20-tap prototype with its modulates; plot them with any external
tool, e.g.:

    python3 scripts/make_response_tables.py --outdir out
    # then e.g. pandas / gnuplot on out/*.csv
"""

import argparse
import pathlib
import sys

from fbff.cli import write_frequency_table
from fbff.constructions import named_bank
from fbff.gabor import design_maxflat, gabor_bank


def write_table(fb, n_samples, path):
    write_frequency_table(fb, n_samples, path)
    print(f"wrote {path}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--outdir", default="out")
    parser.add_argument("--samples", type=int, default=512)
    parser.add_argument("--period", type=int, default=8)
    parser.add_argument("--half-taps", type=int, default=10, dest="half_taps")
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()

    outdir = pathlib.Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)

    for name in ("example5", "example7"):
        fb = named_bank(name, args.period)
        write_table(fb, args.samples, outdir / f"{name}_responses.csv")

    result = design_maxflat(args.half_taps, seed=args.seed, restarts=100)
    if not result.converged:
        print(
            f"design did not converge (best residual {result.residual_inf:.2e})",
            file=sys.stderr,
        )
        return 1
    print(
        f"max-flat T={args.half_taps}: restart {result.restart}, "
        f"residual {result.residual_inf:.2e}"
    )
    bank = gabor_bank(result.signal, 2, 2)
    write_table(bank, args.samples, outdir / "maxflat_responses.csv")

    taps_path = outdir / "maxflat_taps.csv"
    with open(taps_path, "w", encoding="utf-8") as fh:
        fh.write("k,value\n")
        for k, v in enumerate(result.taps):
            fh.write(f"{k},{v:.17g}\n")
    print(f"wrote {taps_path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
