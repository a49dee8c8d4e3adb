#!/usr/bin/env python3
"""Exposure of a Haar-sampled net as a function of the covering radius.

Builds one net, then estimates the exposed Haar fraction at a grid of
radii; optionally also checks the two-element product covering at each
radius on fresh samples.  Prints one JSON object per radius, and with
--out also writes the rows as CSV.

Example:
    python scripts/coverage_sweep.py --dim 2 --net-size 500 --samples 300 \
        --eps 0.2 0.4 0.6 0.9 1.2 --seed 3 --check-products
"""

import csv
import json
import sys

from prulab.cli import _COUNT, _NONNEGATIVE, _WORD, _Parser, exit_code
from prulab.linalg import RandomSeed, haar_unitary
from prulab.nets import NetSpec, cover_with_product, exposure_estimate


def main(argv: list[str] | None = None) -> None:
    # each domain is the one its library check accepts
    ap = _Parser(description=__doc__)
    ap.add_argument("--dim", type=_COUNT, default=2)
    ap.add_argument("--net-size", type=_COUNT, default=500)
    ap.add_argument("--samples", type=_COUNT, default=300)
    ap.add_argument("--eps", type=_NONNEGATIVE, nargs="+",
                    default=[0.2, 0.4, 0.6, 0.9, 1.2])
    ap.add_argument("--seed", type=_WORD, required=True)
    ap.add_argument("--check-products", action="store_true",
                    help="also report the worst pair-cover distance on 100 fresh draws")
    ap.add_argument("--out", type=str, default=None, help="CSV path (default stdout)")
    args = ap.parse_args(argv)

    seed = RandomSeed(args.seed)
    net = NetSpec.haar_sample(args.dim, args.net_size, seed.child(0))
    rows = []
    for i, eps in enumerate(args.eps):
        rep = exposure_estimate(net, eps, args.samples, seed.child(1 + i))
        row = {"eps": eps, "eta_hat": rep.eta_hat, "ci_half": rep.ci_half}
        if args.check_products:
            worst = 0.0
            for k in range(100):
                u = haar_unitary(args.dim, seed.child(10_000 + 100 * i + k))
                _, _, dist = cover_with_product(u, net)
                worst = max(worst, dist)
            row["worst_pair_cover"] = worst
            row["two_eps"] = 2 * eps
        rows.append(row)
        print(json.dumps(row))
    if args.out:
        with open(args.out, "w", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=list(rows[0].keys()))
            writer.writeheader()
            writer.writerows(rows)
    else:
        sys.stdout.flush()


if __name__ == "__main__":
    raise SystemExit(exit_code(main))
