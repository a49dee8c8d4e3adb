"""Batch experiment front end.

Every stochastic subcommand requires --seed and emits a machine-readable
report embedding the seed and a content hash of its own config, so any
report is reproducible bit for bit.  Exit codes: 0 success, 1 usage
error, 2 assertion-style property violation (for CI gating).
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys
from pathlib import Path

from prulab.linalg import (
    PropertyViolationError,
    RandomSeed,
    ResourceLimitError,
    memory_budget_bytes,
    set_memory_budget_bytes,
)
from prulab.util import config_hash, report_dict


class _Parser(argparse.ArgumentParser):
    #: on the bounds parser, the formula names, whose flags follow the name
    formulas = ()

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


def _add_output(p: _Parser, budget: bool = True) -> None:
    p.add_argument("--out", type=str, default=None, help="output path (default stdout)")
    p.add_argument("--format", choices=("json", "csv"), default="json")
    if budget:
        p.add_argument("--mem-budget", type=float, help="working-set cap in GiB")


def _add_seed(p: _Parser) -> None:
    p.add_argument("--seed", type=int, required=True, help="base seed")
    p.add_argument("--stream", type=int, default=0, help="seed stream id")


def build_parser() -> _Parser:
    top = _Parser(prog="prulab", description=__doc__)
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("pfc-distinguish", help="collision test: permutation-phase-Clifford vs Haar")
    _add_output(p)
    _add_seed(p)
    p.add_argument("--n", type=int, required=True, help="qubit count (d = 2^n), n <= 30")
    p.add_argument("--t", type=int, default=None, help="copies per block (default ceil(sqrt(d)))")
    p.add_argument("--k-blocks", type=int, default=100000)
    p.add_argument("--alpha", type=float, default=0.25)
    p.add_argument("--trials", type=int, required=True)
    p.add_argument("--haar-mode", choices=("urn", "dense"), default="urn")
    p.add_argument("--estimator", choices=("mean", "median"), default="mean")

    p = sub.add_parser("design-distance", help="2->2 distance and diamond/relative bracket of an ensemble")
    _add_output(p)
    p.add_argument("--ensemble-file", type=str, default=None, help="ensemble manifest JSON")
    p.add_argument("--ensemble", type=str, default=None,
                   help="builtin: pauli-1 | clifford-1")
    p.add_argument("--t", type=int, required=True)

    p = sub.add_parser("net-coverage", help="Monte Carlo exposure of a finite net")
    _add_output(p)
    _add_seed(p)
    p.add_argument("--net-file", type=str, default=None, help="net manifest JSON")
    p.add_argument("--haar-net-size", type=int, default=None,
                   help="instead of a file: sample this many Haar elements")
    p.add_argument("--dim", type=int, default=None, help="dimension for --haar-net-size")
    p.add_argument("--eps", type=float, default=None)
    p.add_argument("--samples", type=int, required=True)
    p.add_argument("--sweep-eps", type=str, default=None,
                   help="comma list of eps values, used in place of --eps; "
                        "with --format csv, one row per value")

    p = sub.add_parser("truncate-diag", help="verify diagonal-truncation distance bounds")
    _add_output(p)
    p.add_argument("--circuit-file", type=str, required=True)
    p.add_argument("--k", type=int, required=True, help="truncation bits")

    p = sub.add_parser("bounds", help="cardinality/entropy bound calculators")
    formulas = p.add_subparsers(dest="formula", required=True)
    p.formulas = formulas.choices
    f = {}
    for name in ("prior-support", "improved-support", "rom-input-length",
                 "trivial-rompru", "scalable-check", "net-size"):
        f[name] = formulas.add_parser(name)
        f[name].add_argument("--d", type=int, required=True)
        _add_output(f[name], budget=False)
    for name in ("prior-support", "improved-support", "rom-input-length", "scalable-check"):
        f[name].add_argument("--t", type=float, default=None)
        f[name].add_argument("--sweep-t", type=str, default=None,
                             help="comma list of t values; with --format csv, one row per value")
        f[name].add_argument("--delta", type=float, default=0.0)
    for name in ("prior-support", "improved-support", "net-size"):
        f[name].add_argument("--log", action="store_true", help="report natural logs")
    f["improved-support"].add_argument("--c-design", type=float, default=1.0)
    f["rom-input-length"].add_argument("--eps", type=float, default=0.0)
    f["rom-input-length"].add_argument("--additive-slack", type=float, default=1.0)
    for name in ("trivial-rompru", "scalable-check"):
        f[name].add_argument("--kappa", type=int, required=True)
    f["scalable-check"].add_argument("--q", type=float, required=True)
    f["scalable-check"].add_argument("--m", type=float, required=True)
    f["scalable-check"].add_argument("--alpha-impl", type=float, default=0.0)
    f["scalable-check"].add_argument("--poly-budget", type=float, default=2.0)
    f["net-size"].add_argument("--eps", type=float, required=True)
    f["net-size"].add_argument("--eta", type=float, default=0.0)
    f["net-size"].add_argument("--c-diamond", type=float, default=1.0)

    p = sub.add_parser("tomo-demo", help="tomography contract demo on a hidden Haar unitary")
    _add_output(p)
    _add_seed(p)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--eps", type=float, required=True)
    p.add_argument("--eta", type=float, required=True)

    return top


def _emit(args, config: dict, result: dict | list[dict]) -> None:
    """Write `result`, one report or a list of rows, as JSON or CSV."""
    rows = result if isinstance(result, list) else [result]
    if args.format == "csv":
        buf = io.StringIO()
        writer = csv.DictWriter(buf, fieldnames=list(rows[0].keys()))
        writer.writeheader()
        for row in rows:
            writer.writerow(row)
        text = buf.getvalue()
    else:
        report = {
            "config": config,
            "config_hash": config_hash(config),
            "result": {"rows": rows} if isinstance(result, list) else result,
        }
        text = json.dumps(report, indent=2, sort_keys=True, allow_nan=False) + "\n"
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _seed_of(args) -> RandomSeed:
    for flag, value in (("--seed", args.seed), ("--stream", args.stream)):
        if not 0 <= value < 1 << 64:
            raise ValueError(f"{flag} must be in [0, 2^64), got {value}")
    return RandomSeed(args.seed, args.stream)


def _float_list(text: str, flag: str) -> list[float]:
    try:
        values = [float(v) for v in text.split(",")]
    except ValueError:
        raise ValueError(f"{flag} {text!r} is not a comma list of numbers") from None
    if not all(map(math.isfinite, values)):
        raise ValueError(f"{flag} {text!r} holds a value that is not finite")
    return values


def _cmd_pfc_distinguish(args) -> None:
    from prulab.distinguisher import pfc_distinguish_experiment

    if args.n < 1 or args.n > 30:
        raise ValueError(f"--n must be between 1 and 30, got {args.n}")
    for flag, value, least in (("--trials", args.trials, 1), ("--t", args.t, 2),
                               ("--k-blocks", args.k_blocks, 1)):
        if value is not None and value < least:
            raise ValueError(f"{flag} must be at least {least}, got {value}")
    if args.alpha <= 0:
        raise ValueError(f"--alpha must be positive, got {args.alpha}")
    rep = pfc_distinguish_experiment(
        args.n, args.trials, _seed_of(args), t=args.t,
        k_blocks=args.k_blocks, alpha=args.alpha, haar_mode=args.haar_mode,
        estimator=args.estimator,
    )
    # only once the run has passed, so that an error's message stays first
    if args.n <= 4:
        print(f"warning: n={args.n} gives d={2**args.n}, far from the "
              "asymptotic regime the test is tuned for; ran anyway",
              file=sys.stderr)
    config = {
        "command": "pfc-distinguish", "n": args.n, "t": rep.params.t,
        "k_blocks": args.k_blocks, "alpha": args.alpha, "trials": args.trials,
        "haar_mode": args.haar_mode, "estimator": args.estimator,
        "seed": [args.seed, args.stream],
    }
    _emit(args, config, report_dict(rep))


def _cmd_design_distance(args) -> None:
    from prulab.ensembles import reference_design
    from prulab.moments import MAX_MOMENT_ORDER, diamond_design_bounds
    from prulab.serialize import ensemble_from_json_dict, load_json

    if not 1 <= args.t <= MAX_MOMENT_ORDER:
        raise ValueError(f"--t must be in 1..{MAX_MOMENT_ORDER}, got {args.t}")
    if (args.ensemble_file is None) == (args.ensemble is None):
        raise ValueError("give exactly one of --ensemble and --ensemble-file")
    if args.ensemble_file:
        ens = ensemble_from_json_dict(load_json(args.ensemble_file),
                                      Path(args.ensemble_file).parent)
    elif args.ensemble == "pauli-1":
        ens = reference_design("pauli-1-design", 1)
    elif args.ensemble == "clifford-1":
        ens = reference_design("single-qubit-clifford-3-design")
    else:
        raise ValueError(f"unknown --ensemble {args.ensemble!r}; "
                         "choose pauli-1 or clifford-1")
    rep = diamond_design_bounds(ens, args.t)
    config = {"command": "design-distance", "t": args.t,
              "ensemble": args.ensemble or args.ensemble_file}
    _emit(args, config, report_dict(rep))


def _cmd_net_coverage(args) -> None:
    from prulab.nets import NetSpec, exposure_estimate
    from prulab.serialize import load_json, net_from_json_dict

    if args.eps is None and args.sweep_eps is None:
        raise ValueError("net-coverage needs --eps or --sweep-eps")
    eps_flag = "--sweep-eps" if args.sweep_eps is not None else "--eps"
    eps_list = (_float_list(args.sweep_eps, eps_flag)
                if args.sweep_eps is not None else [args.eps])
    if min(eps_list) < 0:
        raise ValueError(f"{eps_flag} must be nonnegative, got {min(eps_list)}")
    if args.samples < 1:
        raise ValueError(f"--samples must be at least 1, got {args.samples}")
    seed = _seed_of(args)
    if args.net_file:
        net = net_from_json_dict(load_json(args.net_file), Path(args.net_file).parent)
    elif args.haar_net_size is not None and args.dim is not None:
        if args.dim < 1:
            raise ValueError(f"--dim must be at least 1, got {args.dim}")
        if args.haar_net_size < 1:
            raise ValueError(f"--haar-net-size must be at least 1, got {args.haar_net_size}")
        net = NetSpec.haar_sample(args.dim, args.haar_net_size, seed.child(999))
    else:
        raise ValueError("give --net-file, or --haar-net-size together with --dim")
    rows = []
    for i, eps in enumerate(eps_list):
        rep = exposure_estimate(net, eps, args.samples, seed.child(i))
        rows.append(report_dict(rep))
    config = {"command": "net-coverage", "eps": eps_list, "samples": args.samples,
              "net": args.net_file or f"haar({args.dim},{args.haar_net_size})",
              "seed": [args.seed, args.stream]}
    _emit(args, config, rows if args.sweep_eps is not None else rows[0])


def _cmd_truncate_diag(args) -> None:
    from prulab.serialize import circuit_from_json_dict, load_json
    from prulab.truncation import MAX_K, circuit_truncation_bound

    if not 0 <= args.k <= MAX_K:
        raise ValueError(f"--k must be in 0..{MAX_K}, got {args.k}")
    circ = circuit_from_json_dict(load_json(args.circuit_file))
    rep = circuit_truncation_bound(circ, args.k)
    config = {"command": "truncate-diag", "circuit": args.circuit_file, "k": args.k}
    _emit(args, config, report_dict(rep))


def _cmd_bounds(args) -> None:
    from prulab import bounds as B
    from prulab.nets import net_size_lower_bound

    sweep = args.sweep_t if "t" in vars(args) else None
    t_flag = "--sweep-t" if sweep is not None else "--t"
    # the flags named when a report field other than "value" is not finite
    sources = {"m_design_1": f"--d and {t_flag}", "m_net": "--d and --eps",
               "qm": "--q and --m", "qm_budget": "--d, --kappa and --poly-budget",
               "support_size_log2": "--d and --kappa", "q_upper": "--d and --kappa"}

    def finite(row: dict) -> dict:
        for key, value in row.items():
            if isinstance(value, float) and not math.isfinite(value):
                if key == "value":
                    hint = "" if args.log else "; pass --log for its natural log"
                    raise ValueError(f"bounds {args.formula} evaluates to {value} "
                                     f"as a float{hint}")
                raise ValueError(f"bounds {args.formula} evaluates {key} to {value} "
                                 f"as a float; it is computed from {sources[key]}")
        return row

    def one(t_val):
        if args.formula == "prior-support":
            if not t_val.is_integer():
                raise ValueError(f"bounds prior-support needs an integer {t_flag}, got {t_val}")
            return {"t": t_val, "value": B.prior_support_bound(
                args.d, int(t_val), args.delta, as_log=args.log)}
        if args.formula == "improved-support":
            return {"t": t_val, "value": B.improved_support_bound(
                args.d, t_val, args.delta, args.c_design, as_log=args.log)}
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
            return {"value": net_size_lower_bound(
                args.d, args.eps, args.eta, args.c_diamond, as_log=args.log)}

    B.check_dimension(args.d, "--d")
    t_vals = [None]
    if "t" in vars(args):
        if args.t is None and sweep is None:
            raise ValueError(f"bounds {args.formula} needs --t or --sweep-t")
        t_vals = _float_list(sweep, t_flag) if sweep is not None else [args.t]
        if min(t_vals) < 0:
            raise ValueError(f"{t_flag} must be nonnegative, got {min(t_vals)}")
    if args.formula in ("improved-support", "rom-input-length") and not 0 <= args.delta < 1:
        raise ValueError(f"bounds {args.formula} needs --delta in [0, 1), got {args.delta}")
    if args.formula == "prior-support" and not 0 <= args.delta <= 1:
        raise ValueError(f"bounds prior-support needs --delta in [0, 1], got {args.delta}")
    if args.formula == "trivial-rompru" and args.kappa >= B.KAPPA_LIMIT:
        raise ValueError(f"bounds trivial-rompru needs --kappa below {B.KAPPA_LIMIT}, "
                         f"so that t = 2^kappa is a finite float, got {args.kappa}")
    config = {"command": "bounds", "formula": args.formula,
              "inputs": {k: v for k, v in vars(args).items()
                         if k not in ("command", "formula", "out", "format") and v is not None}}
    rows = [finite(one(v)) for v in t_vals]
    _emit(args, config, rows if sweep is not None else rows[0])


def _cmd_tomo_demo(args) -> None:
    from prulab.linalg import diamond_distance_unitaries, haar_unitary
    from prulab.tomography import ChannelOracle, naive_process_tomography

    if args.d < 1:
        raise ValueError(f"--d must be at least 1, got {args.d}")
    if args.eps <= 0:
        raise ValueError(f"--eps must be positive, got {args.eps}")
    if not 0 < args.eta < 1:
        raise ValueError(f"--eta must be in (0, 1), got {args.eta}")
    seed = _seed_of(args)
    hidden = haar_unitary(args.d, seed.child(0))
    oracle = ChannelOracle(hidden)
    res = naive_process_tomography(oracle, args.eps, args.eta, seed.child(1))
    err = diamond_distance_unitaries(hidden, res.u_hat)
    config = {"command": "tomo-demo", "d": args.d, "eps": args.eps,
              "eta": args.eta, "seed": [args.seed, args.stream]}
    _emit(args, config, {
        "queries_used": res.queries_used,
        "achieved_diamond_error": err,
        "within_target": bool(err <= args.eps),
    })


_DISPATCH = {
    "pfc-distinguish": _cmd_pfc_distinguish,
    "design-distance": _cmd_design_distance,
    "net-coverage": _cmd_net_coverage,
    "truncate-diag": _cmd_truncate_diag,
    "bounds": _cmd_bounds,
    "tomo-demo": _cmd_tomo_demo,
}


def main(argv: list[str] | None = None) -> int:
    budget = memory_budget_bytes()
    try:
        args = build_parser().parse_args(argv)
        for name, value in vars(args).items():
            if isinstance(value, float) and not math.isfinite(value):
                raise ValueError(f"--{name.replace('_', '-')} must be a finite number, "
                                 f"got {value}")
        # bounds allocates nothing under ensure_budget, so it has no --mem-budget
        if getattr(args, "mem_budget", None) is not None:
            nbytes = args.mem_budget * (1 << 30)
            if not 1 <= nbytes < float("inf"):
                raise ValueError(f"--mem-budget must be a finite size of at least one "
                                 f"byte, got {args.mem_budget} GiB")
            set_memory_budget_bytes(int(nbytes))
        _DISPATCH[args.command](args)
    except PropertyViolationError as exc:
        print(f"property violation: {exc}", file=sys.stderr)
        return 2
    except (ResourceLimitError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        set_memory_budget_bytes(budget)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
