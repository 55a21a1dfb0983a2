"""Command-line front end: sweeps, canned experiments, validation, audit.

Configuration resolves in three layers: built-in defaults, then a JSON
config file, then explicit flags.  Every run prints CSV (or JSON with
--json) so downstream plotting needs no code from this package.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from dataclasses import replace

from .model import SystemParams, derive_constants
from .montecarlo import McConfig
from .sweeps import (SWEEPABLE_PARAMS, SchemeSpec, SweepSpec, fig, run_sweep)
from .validation import all_passed, report_csv, run_all

_SYSTEM_FIELDS = {f.name for f in dataclasses.fields(SystemParams)}
_MC_FIELDS = {"trials", "seed", "shards"}

# Every SystemParams field has an override flag --<destination> (dashed);
# the destination is the field name unless renamed here.
_RENAMED = {"rate_bps_hz": "rate", "time_split": "beta", "quad_order": "m",
            "circuit_sensitivity_dbm": "sensitivity_dbm"}
# flag destination -> SystemParams field
_OVERRIDE_FLAGS = {_RENAMED.get(f.name, f.name): f.name
                   for f in dataclasses.fields(SystemParams)}
_FLAG_HELP = {"rate": "transmission rate in bit/s/Hz", "beta": "time allocation ratio",
              "m": "quadrature order", "sensitivity_dbm": "rectenna circuit sensitivity"}

_DEFAULT_SCHEMES = ("improved", "dynamic_ps:theta=0.5", "static_equal:rho=0.5")


def _parse_scheme(text: str) -> SchemeSpec:
    name, _, arg_part = text.partition(":")
    args = {}
    if arg_part:
        for piece in arg_part.split(","):
            key, sep, value = piece.partition("=")
            if not sep:
                raise ValueError(f"bad scheme argument {piece!r}; expected key=value")
            args[key.strip()] = float(value)
    return SchemeSpec(name.strip(), args)


def _parse_values(text: str) -> tuple:
    values = tuple(float(v) for v in text.split(",") if v.strip())
    if not values:
        raise ValueError("expected a comma-separated list of values")
    return values


def _add_common_flags(parser: argparse.ArgumentParser, *, mc: bool,
                      theta: bool) -> None:
    """Register only the flags the subcommand reads; others are usage errors."""
    parser.add_argument("--config", metavar="PATH",
                        help="JSON file with SystemParams/McConfig fields")
    if mc:
        parser.add_argument("--seed", type=int, help="simulation seed")
        parser.add_argument("--trials", type=int, help="Monte Carlo trials per point")
        parser.add_argument("--shards", type=int, help="parallel simulation shards")
    parser.add_argument("--out", metavar="PATH", help="write output here instead of stdout")
    parser.add_argument("--json", action="store_true",
                        help="emit JSON instead of CSV")
    group = parser.add_argument_group("parameter overrides")
    for dest, field in _OVERRIDE_FLAGS.items():
        group.add_argument("--" + dest.replace("_", "-"), dest=dest,
                           type=int if field == "quad_order" else float,
                           help=_FLAG_HELP.get(dest))
    if theta:
        group.add_argument("--theta", type=float, dest="theta",
                           help="broadcast weight used where a scheme omits it")


def _load_config(path: str | None) -> dict:
    if path is None:
        return {}
    with open(path, encoding="utf-8") as handle:
        data = json.load(handle)
    if not isinstance(data, dict):
        raise ValueError("config file must hold a JSON object")
    unknown = set(data) - _SYSTEM_FIELDS - _MC_FIELDS
    if unknown:
        raise ValueError(f"unknown config fields: {sorted(unknown)}")
    return data


def _resolve(args) -> tuple[SystemParams, McConfig, float, dict]:
    """Layer defaults, config file, and flags; track explicit system fields."""
    config = _load_config(args.config)
    system: dict = {k: v for k, v in config.items() if k in _SYSTEM_FIELDS}
    mc: dict = {k: v for k, v in config.items() if k in _MC_FIELDS}
    order = system.get("quad_order")
    if order is not None:
        if order != int(order):
            raise ValueError(f"quad_order must be an integer, got {order!r}")
        system["quad_order"] = int(order)
    for flag, field in _OVERRIDE_FLAGS.items():
        value = getattr(args, flag, None)
        if value is not None:
            system[field] = value
    for field in _MC_FIELDS:
        value = getattr(args, field, None)
        if value is not None:
            mc[field] = value
    params = SystemParams(**system)
    cfg = McConfig(**mc)
    theta = args.theta if getattr(args, "theta", None) is not None else 0.5
    return params, cfg, theta, system


def _emit(text: str, out_path: str | None) -> None:
    if out_path is None:
        sys.stdout.write(text)
    else:
        with open(out_path, "w", encoding="utf-8", newline="") as handle:
            handle.write(text)


def _emit_result(result, args) -> None:
    _emit(result.to_json() if args.json else result.to_csv(), args.out)


def cmd_sweep(args) -> int:
    params, cfg, theta, _ = _resolve(args)
    schemes = []
    for text in args.scheme or _DEFAULT_SCHEMES:
        scheme = _parse_scheme(text)
        if scheme.scheme_id == "dynamic_ps" and "theta" not in scheme.args:
            scheme = SchemeSpec("dynamic_ps", {"theta": theta})
        schemes.append(scheme)
    spec = SweepSpec(swept_param=args.param, values=_parse_values(args.values),
                     schemes=tuple(schemes), base=params, mc=cfg)
    _emit_result(run_sweep(spec), args)
    return 0


def cmd_fig(args) -> int:
    _, cfg, _, system = _resolve(args)
    result = fig(args.n, overrides=system or None, mc=cfg)
    _emit_result(result, args)
    return 0


def cmd_validate(args) -> int:
    results = run_all(progress=True)
    if args.json:
        payload = [{"criterion": r.index, "name": r.name,
                    "status": "PASS" if r.passed else "FAIL",
                    "measured": r.detail} for r in results]
        _emit(json.dumps(payload, indent=2) + "\n", args.out)
    else:
        _emit(report_csv(results), args.out)
    return 0 if all_passed(results) else 1


def cmd_params(args) -> int:
    params, _, theta, _ = _resolve(args)
    consts = derive_constants(params, theta)
    if args.json:
        payload = {
            "theta": theta,
            "system": dataclasses.asdict(params),
            "derived": dataclasses.asdict(consts),
        }
        _emit(json.dumps(payload, indent=2) + "\n", args.out)
        return 0
    lines = [f"resolved constants at theta = {theta!r}", "", "[system]"]
    lines += [f"{f.name} = {getattr(params, f.name)!r}"
              for f in dataclasses.fields(params)]
    lines += ["", "[derived]"]
    lines += [f"{f.name} = {getattr(consts, f.name)!r}"
              for f in dataclasses.fields(consts)]
    _emit("\n".join(lines) + "\n", args.out)
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ehrelay",
        description="Outage analysis of a three-step energy-harvesting "
                    "two-way relay network")
    sub = parser.add_subparsers(dest="command", required=True)

    p_sweep = sub.add_parser("sweep", help="sweep one parameter over schemes")
    p_sweep.add_argument("--param", required=True, choices=SWEEPABLE_PARAMS)
    p_sweep.add_argument("--values", required=True,
                         help="comma-separated sweep values")
    p_sweep.add_argument("--scheme", action="append", metavar="SPEC",
                         help="scheme spec such as improved, "
                              "dynamic_ps:theta=0.3, static_equal:rho=0.5 "
                              "(repeatable; default all three)")
    _add_common_flags(p_sweep, mc=True, theta=True)
    p_sweep.set_defaults(func=cmd_sweep)

    p_fig = sub.add_parser("fig", help="reproduce a canned experiment table")
    p_fig.add_argument("n", type=int, choices=range(3, 10),
                       help="experiment index (3-9)")
    _add_common_flags(p_fig, mc=True, theta=False)
    p_fig.set_defaults(func=cmd_fig)

    p_val = sub.add_parser("validate", help="run the acceptance criteria suite")
    p_val.add_argument("--out", metavar="PATH")
    p_val.add_argument("--json", action="store_true")
    p_val.set_defaults(func=cmd_validate)

    p_par = sub.add_parser("params", help="print resolved derived constants")
    _add_common_flags(p_par, mc=False, theta=True)
    p_par.set_defaults(func=cmd_params)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
