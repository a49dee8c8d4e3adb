"""Batch experiment front end.

Each command returns rows, written as JSON with the config (the flags the
command read, output flags aside) and its content hash, or as CSV.  Every
stochastic subcommand requires --seed, so any report is reproducible bit
for bit.  Each flag declares its accepted values in its argparse type, so
a bad value is a usage error that names the flag, the bound and the value;
a list flag takes a comma list of them, one row each.  Exit codes: 0
success, 1 usage error, 2 assertion-style property violation.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import re
import sys
from pathlib import Path

from prulab.bounds import D_LIMIT, KAPPA_LIMIT
from prulab.ensembles import REFERENCE_DESIGNS, EnsembleSpec, reference_design
from prulab.linalg import (
    PropertyViolationError,
    RandomSeed,
    ResourceLimitError,
    memory_budget_bytes,
    set_memory_budget_bytes,
)
from prulab.moments import MAX_MOMENT_ORDER, diamond_design_bounds
from prulab.truncation import MAX_K
from prulab.util import config_hash, report_dict


class _Parser(argparse.ArgumentParser):
    #: on the bounds parser, the formula names, whose flags follow the name
    formulas = ()

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # argparse reads -1000 and -2.5 after a flag as its value, but -1e3,
        # -inf and -nan as a flag, which leaves the one before with no value;
        # no flag here starts with -<digit>, -.<digit>, -inf or -nan, so a
        # word that does is a value, for the flag's type to read
        self._negative_number_matcher = re.compile(r"-\.?\d|-(inf|nan)", re.IGNORECASE)

    def error(self, message):
        # main reports it as every other usage error: "error: ..." and exit 1
        raise ValueError(f"{message}\n{self.format_usage().rstrip()}")

    def parse_known_args(self, args=None, namespace=None):
        # argparse would take the flag's value for the formula name and
        # report that value as an unknown formula
        if self.formulas and args and args[0].startswith("-") and args[0] not in ("-h", "--help"):
            flag = args[0].split("=")[0]
            formula = next((a for a in args if a in self.formulas), "<formula>")
            self.error(f"{flag} goes after the formula name (prulab bounds {formula} {flag} ...)")
        # a sub-parser rejects its own leftovers, so the usage line shown is
        # that of the command or formula, not the top parser's
        namespace, extras = super().parse_known_args(args, namespace)
        if extras:
            self.error(f"unrecognized arguments: {' '.join(extras)}")
        return namespace, extras


def _number(kind: type = float, low=-math.inf, high=math.inf, *, open_low: bool = False,
            open_high: bool = False, whole: bool = False):
    """argparse type: a finite ``kind`` (int or float) from ``low`` to ``high``.

    Each end is closed unless made open, or infinite; ``whole`` asks a float
    to be a whole number.  A value outside is an ``ArgumentTypeError``,
    which argparse reports with the flag's name.
    """
    def show(bound) -> str:  # 2^-30, 2^64 and D_LIMIT by their exponents
        mantissa, exponent = math.frexp(bound)
        return f"2^{exponent - 1}" if mantissa == 0.5 and abs(exponent) > 16 else str(bound)

    open_low, open_high = open_low or low == -math.inf, open_high or high == math.inf
    domain = f"{'(' if open_low else '['}{show(low)}, {show(high)}{')' if open_high else ']'}"

    def parse(text: str):
        try:
            x = kind(text)
        except ValueError:
            noun = "an integer" if kind is int else "a number"
            raise argparse.ArgumentTypeError(f"must be {noun}, got {text!r}") from None
        if kind is float and not math.isfinite(x):
            raise argparse.ArgumentTypeError(f"must be a finite number, got {x}")
        if whole and not x.is_integer():
            raise argparse.ArgumentTypeError(f"must be a whole number, got {x}")
        if (x <= low if open_low else x < low) or (x >= high if open_high else x > high):
            raise argparse.ArgumentTypeError(f"must be in {domain}, got {x}")
        return x

    return parse


def _number_list(item):
    """argparse type: a comma list of values that each pass ``item``."""
    return lambda text: [item(v) for v in text.split(",")]


_ANY = _number()
_NONNEGATIVE = _number(low=0)
_POSITIVE = _number(low=0, open_low=True)
_UNIT = _number(low=0, high=1)
_BELOW_ONE = _number(low=0, high=1, open_high=True)
_COUNT = _number(int, 1)
_WORD = _number(int, 0, 1 << 64, open_high=True)  # an unsigned 64-bit seed


def _add_output(p: _Parser, budget: bool = True) -> None:
    p.add_argument("--out", type=str, default=None, help="output path (default stdout)")
    p.add_argument("--format", choices=("json", "csv"), default="json")
    if budget:
        # from one byte up to the largest size a float holds in bytes
        p.add_argument("--mem-budget", type=_number(low=2.0**-30, high=2.0**994, open_high=True),
                       help="working-set cap in GiB")


def _add_seed(p: _Parser) -> None:
    p.add_argument("--seed", type=_WORD, required=True, help="base seed")
    p.add_argument("--stream", type=_WORD, default=0, help="seed stream id")


def build_parser() -> _Parser:
    top = _Parser(prog="prulab", description=__doc__)
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("pfc-distinguish", help="collision test: permutation-phase-Clifford vs Haar")
    _add_output(p)
    _add_seed(p)
    p.add_argument("--n", type=_number(int, 1, 30), required=True, help="qubit count (d = 2^n)")
    p.add_argument("--t", type=_number(int, 2), default=None,
                   help="copies per block (default ceil(sqrt(d)))")
    p.add_argument("--k-blocks", type=_COUNT, default=100000)
    p.add_argument("--alpha", type=_POSITIVE, default=0.25)
    p.add_argument("--trials", type=_COUNT, required=True)

    p = sub.add_parser("design-distance", help="2->2 distance and diamond/relative bracket of an ensemble")
    _add_output(p)
    g = p.add_mutually_exclusive_group(required=True)
    g.add_argument("--ensemble-file", type=str, help="ensemble manifest JSON")
    g.add_argument("--ensemble", choices=REFERENCE_DESIGNS, help="builtin ensemble")
    p.add_argument("--t", type=_number(int, 1, MAX_MOMENT_ORDER), required=True)

    p = sub.add_parser("net-coverage", help="Monte Carlo exposure of a finite net")
    _add_output(p)
    _add_seed(p)
    g = p.add_mutually_exclusive_group(required=True)
    g.add_argument("--ensemble-file", type=str,
                   help="ensemble manifest JSON; its unitaries are the net")
    g.add_argument("--haar-net-size", type=_COUNT,
                   help="instead of a file: sample this many Haar elements")
    p.add_argument("--dim", type=_COUNT, default=None, help="dimension for --haar-net-size")
    p.add_argument("--eps", type=_number_list(_NONNEGATIVE), required=True,
                   help="comma list of radii, one row each")
    p.add_argument("--samples", type=_COUNT, required=True)
    p.add_argument("--check-products", action="store_true",
                   help="also report the worst pair-cover distance over 100 fresh Haar "
                        "draws per radius")

    p = sub.add_parser("truncate-diag", help="verify diagonal-truncation distance bounds")
    _add_output(p)
    p.add_argument("--circuit-file", type=str, required=True)
    p.add_argument("--k", type=_number(int, 0, MAX_K), required=True, help="truncation bits")

    p = sub.add_parser("bounds", help="cardinality/entropy bound calculators")
    formulas = p.add_subparsers(dest="formula", required=True)
    p.formulas = formulas.choices
    f = {}
    for name in ("prior-support", "improved-support", "rom-input-length",
                 "trivial-rompru", "scalable-check", "net-size"):
        f[name] = formulas.add_parser(name)
        f[name].add_argument("--d", type=_number(int, 2, D_LIMIT), required=True)
        _add_output(f[name], budget=False)
    # each domain is the one the formula's own function checks
    for name, t_type, delta_type in (
            ("prior-support", _number(low=0, whole=True), _UNIT),
            ("improved-support", _POSITIVE, _BELOW_ONE),
            ("rom-input-length", _NONNEGATIVE, _BELOW_ONE),
            ("scalable-check", _NONNEGATIVE, _NONNEGATIVE)):
        f[name].add_argument("--t", type=_number_list(t_type), required=True,
                             help="comma list of t values, one row each")
        f[name].add_argument("--delta", type=delta_type, default=0.0)
    for name in ("prior-support", "improved-support", "net-size"):
        f[name].add_argument("--log", action="store_true", help="report natural logs")
    f["improved-support"].add_argument("--c-design", type=_POSITIVE, default=1.0)
    f["rom-input-length"].add_argument("--eps", type=_ANY, default=0.0)
    f["rom-input-length"].add_argument("--additive-slack", type=_ANY, default=1.0)
    kappa = _number(int, 0, KAPPA_LIMIT, open_high=True)
    f["trivial-rompru"].add_argument("--kappa", type=kappa, required=True)
    f["scalable-check"].add_argument("--kappa", type=_number(int, 0), required=True)
    f["scalable-check"].add_argument("--q", type=_NONNEGATIVE, required=True)
    f["scalable-check"].add_argument("--m", type=_NONNEGATIVE, required=True)
    f["scalable-check"].add_argument("--alpha-impl", type=_NONNEGATIVE, default=0.0)
    f["scalable-check"].add_argument("--poly-budget", type=_ANY, default=2.0)
    f["net-size"].add_argument("--eps", type=_POSITIVE, required=True)
    f["net-size"].add_argument("--eta", type=_UNIT, default=0.0)
    f["net-size"].add_argument("--c-diamond", type=_POSITIVE, default=1.0)

    p = sub.add_parser("tomo-demo", help="tomography contract demo on a hidden Haar unitary")
    _add_output(p)
    _add_seed(p)
    p.add_argument("--d", type=_COUNT, required=True)
    p.add_argument("--eps", type=_POSITIVE, required=True)
    p.add_argument("--eta", type=_number(low=0, high=1, open_low=True, open_high=True),
                   required=True)

    return top


def _emit(args, rows: list[dict]) -> None:
    """Write a command's rows as CSV, a line each, or as a JSON report: its
    config (the flags the command read, output flags aside), the config's
    hash, and its result, the row itself when there is one and
    ``{"rows": [...]}`` when there are several."""
    if args.format == "csv":
        buf = io.StringIO()
        writer = csv.DictWriter(buf, fieldnames=list(rows[0].keys()))
        writer.writeheader()
        for row in rows:  # a nested report, such as a dict of notes, as JSON
            writer.writerow({k: json.dumps(v, sort_keys=True) if isinstance(v, dict) else v
                             for k, v in row.items()})
        text = buf.getvalue()
    else:
        config = {k: v for k, v in vars(args).items()
                  if k not in ("out", "format", "mem_budget") and v is not None}
        report = {
            "config": config,
            "config_hash": config_hash(config),
            "result": rows[0] if len(rows) == 1 else {"rows": rows},
        }
        text = json.dumps(report, indent=2, sort_keys=True, allow_nan=False) + "\n"
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _cmd_pfc_distinguish(args) -> list[dict]:
    from prulab.distinguisher import pfc_distinguish_experiment

    rep = pfc_distinguish_experiment(
        args.n, args.trials, RandomSeed(args.seed, args.stream), t=args.t,
        k_blocks=args.k_blocks, alpha=args.alpha)
    # only once the run has passed, so that an error's message stays first
    if args.n <= 4:
        print(f"warning: n={args.n} gives d={2**args.n}, far from the "
              "asymptotic regime the test is tuned for; ran anyway",
              file=sys.stderr)
    return [report_dict(rep)]


def _load_ensemble(path: str):
    from prulab.serialize import ensemble_from_json_dict, load_json

    return ensemble_from_json_dict(load_json(path), Path(path).parent)


def _cmd_design_distance(args) -> list[dict]:
    if args.ensemble_file is not None:
        ens = _load_ensemble(args.ensemble_file)
    else:
        ens = reference_design(args.ensemble)
    return [report_dict(diamond_design_bounds(ens, args.t))]


def _cmd_net_coverage(args) -> list[dict]:
    """Exposure at each radius: the net is seed.child(999)'s Haar sample or
    the unitaries of an ensemble file, and row i's draws come from
    seed.child(i).  --check-products adds the worst best-pair cover over
    100 Haar draws per row, taken in row order from the base seed's own
    generator, which neither of those uses."""
    from prulab.linalg import haar_unitary_rng
    from prulab.nets import cover_with_product, exposure_estimate

    if (args.dim is None) != (args.haar_net_size is None):
        raise ValueError("argument --dim: not allowed with argument --ensemble-file, "
                         "and required with argument --haar-net-size")
    seed = RandomSeed(args.seed, args.stream)
    if args.ensemble_file is not None:
        net = _load_ensemble(args.ensemble_file)
    else:
        net = EnsembleSpec.haar_sample(args.dim, args.haar_net_size, seed.child(999))
    rows = [report_dict(exposure_estimate(net, eps, args.samples, seed.child(i)))
            for i, eps in enumerate(args.eps)]
    if args.check_products:
        rng = seed.generator()
        for row in rows:
            row["worst_pair_cover"] = max(
                cover_with_product(haar_unitary_rng(net.dim, rng), net)[2] for _ in range(100))
            row["two_eps"] = 2 * row["epsilon"]
    return rows


def _cmd_truncate_diag(args) -> list[dict]:
    from prulab.serialize import circuit_from_json_dict, load_json
    from prulab.truncation import circuit_truncation_bound

    circ = circuit_from_json_dict(load_json(args.circuit_file))
    return [report_dict(circuit_truncation_bound(circ, args.k))]


def _cmd_bounds(args) -> list[dict]:
    from prulab import bounds as B

    # the flags named when a report field other than "value" is not finite
    sources = {"qm": "--q and --m", "qm_budget": "--d, --kappa and --poly-budget"}

    def finite(row: dict) -> dict:
        # the one place a calculator's natural log becomes a plain number
        if "value" in row and not args.log:
            try:
                row["value"] = math.exp(row["value"])
            except OverflowError:
                raise ValueError(f"bounds {args.formula} evaluates to inf as a float; "
                                 "pass --log for its natural log") from None
        for key, value in row.items():
            if isinstance(value, float) and not math.isfinite(value):
                if key == "value":
                    raise ValueError(f"bounds {args.formula} evaluates to {value} as a float")
                raise ValueError(f"bounds {args.formula} evaluates {key} to {value} "
                                 f"as a float; it is computed from {sources[key]}")
        return row

    def one(t_val):
        if args.formula == "prior-support":
            return {"t": t_val, "value": B.log_prior_support_bound(
                args.d, int(t_val), args.delta)}
        if args.formula == "improved-support":
            return {"t": t_val, "value": B.log_improved_support_bound(
                args.d, t_val, args.delta, args.c_design)}
        if args.formula == "rom-input-length":
            return {"t": t_val, **report_dict(B.rom_input_length_bounds(
                args.d, t_val, args.delta, args.eps, args.additive_slack))}
        if args.formula == "trivial-rompru":
            return report_dict(B.trivial_rompru_params(args.d, args.kappa))
        if args.formula == "scalable-check":
            params = B.RomPruParams(args.d, args.kappa, args.q, args.m,
                                    args.alpha_impl, t_val, args.delta)
            return report_dict(B.scalable_check(params, args.poly_budget))
        if args.formula == "net-size":
            return {"value": B.log_net_size_lower_bound(
                args.d, args.eps, args.eta, args.c_diamond)}

    return [finite(one(t_val)) for t_val in (args.t if "t" in vars(args) else [None])]


def _cmd_tomo_demo(args) -> list[dict]:
    from prulab.linalg import diamond_distance_unitaries, haar_unitary
    from prulab.tomography import ChannelOracle, naive_process_tomography

    seed = RandomSeed(args.seed, args.stream)
    hidden = haar_unitary(args.d, seed.child(0))
    oracle = ChannelOracle(hidden)
    res = naive_process_tomography(oracle, args.eps, args.eta, seed.child(1))
    err = diamond_distance_unitaries(hidden, res.u_hat)
    return [{
        "queries_used": res.queries_used,
        "achieved_diamond_error": err,
        "within_target": bool(err <= args.eps),
    }]


_DISPATCH = {
    "pfc-distinguish": _cmd_pfc_distinguish,
    "design-distance": _cmd_design_distance,
    "net-coverage": _cmd_net_coverage,
    "truncate-diag": _cmd_truncate_diag,
    "bounds": _cmd_bounds,
    "tomo-demo": _cmd_tomo_demo,
}


def main(argv: list[str] | None = None) -> int:
    """Run a command under the exit-code contract: 0 when it returns, 1 with
    ``error: ...`` on a usage or resource error (a failed allocation
    among them), 2 with ``property violation: ...`` on a failed property
    check."""
    budget = memory_budget_bytes()
    try:
        args = build_parser().parse_args(argv)
        # bounds allocates nothing under ensure_budget, so it has no --mem-budget
        if getattr(args, "mem_budget", None) is not None:
            set_memory_budget_bytes(int(args.mem_budget * (1 << 30)))
        _emit(args, _DISPATCH[args.command](args))
    except PropertyViolationError as exc:
        print(f"property violation: {exc}", file=sys.stderr)
        return 2
    except (ResourceLimitError, ValueError, OSError, MemoryError) as exc:
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 1
    finally:
        set_memory_budget_bytes(budget)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
