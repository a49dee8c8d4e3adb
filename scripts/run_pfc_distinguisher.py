#!/usr/bin/env python3
"""Sweep the collision distinguisher over qubit counts.

For each n the hidden unitary is drawn fresh per trial from either the
permutation-phase-Clifford ensemble or the Haar measure, the blocked
collision test runs at its canonical parameters (t = ceil(sqrt(d)),
alpha = 1/4) and the two verdict rates are reported.

Example:
    python scripts/run_pfc_distinguisher.py --n 6 8 10 --trials 100 \
        --k-blocks 1000 --seed 7 --out pfc_sweep.json
"""

import json
import time

from prulab.cli import _COUNT, _WORD, _number, _Parser, exit_code
from prulab.distinguisher import pfc_distinguish_experiment
from prulab.linalg import RandomSeed
from prulab.util import report_dict


def main(argv: list[str] | None = None) -> None:
    # the domains of `prulab pfc-distinguish`'s flags of the same names
    ap = _Parser(description=__doc__)
    ap.add_argument("--n", type=_number(int, 1, 30), nargs="+", default=[6, 8, 10])
    ap.add_argument("--trials", type=_COUNT, default=100)
    ap.add_argument("--k-blocks", type=_COUNT, default=1000)
    ap.add_argument("--seed", type=_WORD, required=True)
    ap.add_argument("--out", type=str, default=None)
    args = ap.parse_args(argv)

    rows = []
    for n in args.n:
        t0 = time.time()
        rep = pfc_distinguish_experiment(
            n, args.trials, RandomSeed(args.seed).child(n), k_blocks=args.k_blocks
        )
        row = report_dict(rep)
        row["elapsed_s"] = round(time.time() - t0, 2)
        rows.append(row)
        print(f"n={n:3d}  haar_rate={rep.haar_rate:.3f}  pfc_rate={rep.pfc_rate:.3f}"
              f"  advantage={rep.advantage:.3f}  ({row['elapsed_s']}s)")
    if args.out:
        with open(args.out, "w") as fh:
            json.dump({"seed": args.seed, "rows": rows}, fh, indent=2)


if __name__ == "__main__":
    raise SystemExit(exit_code(main))
