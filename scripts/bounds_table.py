#!/usr/bin/env python3
"""Tabulate the two support-size lower bounds across (d, t).

Shows, in natural logs, where the volume-argument bound overtakes the
moment-counting bound; with the placeholder constant 1 the crossover sits
around d = 16 at t = 4 d^2 ln 4.

Example:
    python scripts/bounds_table.py --d 8 12 16 20 --t-mult 1 2 4
"""

import math

from prulab.bounds import D_LIMIT, log_improved_support_bound, log_prior_support_bound
from prulab.cli import _BELOW_ONE, _POSITIVE, _number, _Parser, exit_code


def main(argv: list[str] | None = None) -> None:
    # each domain is the one both bound functions accept
    ap = _Parser(description=__doc__)
    ap.add_argument("--d", type=_number(int, 2, D_LIMIT), nargs="+", default=[8, 12, 16, 20, 24])
    ap.add_argument("--t-mult", type=_POSITIVE, nargs="+", default=[1.0, 2.0, 4.0],
                    help="multiples of 4 d^2 ln 4")
    ap.add_argument("--delta", type=_BELOW_ONE, default=0.0)
    ap.add_argument("--c-design", type=_POSITIVE, default=1.0)
    args = ap.parse_args(argv)

    print(f"{'d':>4} {'t':>8} {'ln prior':>12} {'ln improved':>12}  winner")
    for d in args.d:
        for mult in args.t_mult:
            t_real = 4 * d * d * math.log(4.0) * mult
            if not math.isfinite(t_real):
                raise ValueError(f"argument --t-mult: 4 d^2 ln 4 * {mult} overflows "
                                 f"a float at d = {d}")
            t = math.ceil(t_real)
            pri = log_prior_support_bound(d, t, args.delta)
            imp = log_improved_support_bound(d, t, args.delta, args.c_design)
            winner = "improved" if imp > pri else "prior"
            # a t of more than 8 digits in e-notation, to fit its column
            t_cell = f"{t:>8}" if t < 10**8 else f"{t:>8.1e}"
            print(f"{d:>4} {t_cell} {pri:>12.2f} {imp:>12.2f}  {winner}")


if __name__ == "__main__":
    raise SystemExit(exit_code(main))
