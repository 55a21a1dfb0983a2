"""Command-line front end: sweeps, canned experiments, validation, audit.

Configuration resolves in three layers: built-in defaults, then a JSON
config file, then explicit flags.  Every run prints CSV (or JSON with
--json) so downstream plotting needs no code from this package; `fig`
given --outdir writes one file per figure instead, all from one batch.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
import time

from .model import SchemeSpec, SystemParams, derive_constants
from .montecarlo import McConfig
from .sweeps import (FIGURES, SWEEPABLE_PARAMS, SweepSpec, _figure_spec,
                     _refuse_swept_override, run_sweep, run_sweeps)
from .validation import all_passed, report_csv, run_all

_SYSTEM_FIELDS = {f.name for f in dataclasses.fields(SystemParams)}
_MC_FIELDS = {f.name for f in dataclasses.fields(McConfig)}

# Every SystemParams field has an override flag --<destination> (dashed);
# the destination is the field name unless renamed here.
_RENAMED = {"rate_bps_hz": "rate", "time_split": "beta", "quad_order": "m",
            "circuit_sensitivity_dbm": "sensitivity_dbm"}
# flag destination -> SystemParams field
_OVERRIDE_FLAGS = {_RENAMED.get(f.name, f.name): f.name
                   for f in dataclasses.fields(SystemParams)}
_FLAG_HELP = {"rate": "transmission rate in bit/s/Hz", "beta": "time allocation ratio",
              "m": "quadrature order", "sensitivity_dbm": "rectenna circuit sensitivity"}


def _add_common_flags(parser: argparse.ArgumentParser, *, mc: bool,
                      theta: bool) -> None:
    """Register only the flags the subcommand reads; others are usage errors."""
    parser.add_argument("--config", metavar="PATH",
                        help="JSON file with SystemParams/McConfig fields")
    if mc:
        parser.add_argument("--seed", type=int, help="simulation seed")
        parser.add_argument("--trials", type=int, help="Monte Carlo trials per point")
        parser.add_argument("--shards", type=int,
                            help="simulation worker processes, at most; "
                                 "the usable cores cap them too")
    parser.add_argument("--out", metavar="PATH", help="write output here instead of stdout")
    parser.add_argument("--json", action="store_true",
                        help="emit JSON instead of CSV")
    group = parser.add_argument_group("parameter overrides")
    for dest in _OVERRIDE_FLAGS:
        group.add_argument("--" + dest.replace("_", "-"), dest=dest, type=float,
                           help=_FLAG_HELP.get(dest))
    if theta:
        group.add_argument("--theta", type=float, dest="theta",
                           help="broadcast weight of a dynamic_ps scheme given "
                                "without one, the default sweep's included")


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


def _resolve(args) -> tuple[SystemParams, McConfig, dict]:
    """Layer defaults, config file, and flags; track explicit system fields."""
    config = _load_config(args.config)
    system: dict = {k: v for k, v in config.items() if k in _SYSTEM_FIELDS}
    mc: dict = {k: v for k, v in config.items() if k in _MC_FIELDS}
    for flag, field in _OVERRIDE_FLAGS.items():
        value = getattr(args, flag, None)
        if value is not None:
            system[field] = value
    for field in _MC_FIELDS:
        value = getattr(args, field, None)
        if value is not None:
            mc[field] = value
    return SystemParams(**system), McConfig(**mc), system


def _dynamic(args) -> SchemeSpec:
    """The dynamic_ps scheme at --theta, or at its default when the flag is absent."""
    return SchemeSpec("dynamic_ps", {} if args.theta is None else {"theta": args.theta})


def _emit(text: str, out_path: str | None) -> None:
    if out_path is None:
        sys.stdout.write(text)
    else:
        with open(out_path, "w", encoding="utf-8", newline="") as handle:
            handle.write(text)


def _emit_result(result, args, out_path: str | None) -> None:
    _emit(result.to_json() if args.json else result.to_csv(), out_path)


def cmd_sweep(args) -> int:
    params, cfg, system = _resolve(args)
    given = set(system) | ({"theta"} if args.theta is not None else set())
    _refuse_swept_override(f"--param {args.param}", args.param, given)
    schemes, fixed = [], []
    for text in args.scheme or ("improved", "dynamic_ps", "static_equal:rho=0.5"):
        scheme = SchemeSpec.parse(text)
        # parse refuses an argument without "=", so a text with none gives none.
        if scheme.scheme_id == "dynamic_ps" and "=" not in text:
            scheme = _dynamic(args)
        elif scheme.scheme_id == "dynamic_ps" and args.param == "theta":
            fixed.append(text)
        schemes.append(scheme)
    if fixed:
        raise ValueError(f"a theta sweep's values set theta, so no --scheme may set it: "
                         f"got {fixed}")
    values = []
    for i, text in enumerate(args.values.split(",")):
        try:
            values.append(float(text))
        except ValueError:
            problem = " is empty" if not text.strip() else f"={text!r} is not a number"
            raise ValueError(f"values[{i}]{problem}") from None
    spec = SweepSpec(swept_param=args.param, values=tuple(values),
                     schemes=tuple(schemes), base=params)
    _emit_result(run_sweep(spec, cfg), args, args.out)
    return 0


def cmd_fig(args) -> int:
    if len(set(args.n)) < len(args.n):
        raise ValueError(f"each figure may be given once, got {args.n}")
    if args.outdir is None and len(args.n) > 1:
        raise ValueError("several figures need --outdir")
    if args.outdir is not None and args.out is not None:
        raise ValueError("--out and --outdir exclude each other")
    _, cfg, system = _resolve(args)
    specs = [_figure_spec(n, system) for n in args.n]
    if args.outdir is None:
        _emit_result(run_sweeps(specs, cfg)[0], args, args.out)
        return 0
    os.makedirs(args.outdir, exist_ok=True)
    start = time.perf_counter()
    results = run_sweeps(specs, cfg)
    seconds = time.perf_counter() - start
    for n, result in zip(args.n, results):
        path = os.path.join(args.outdir, f"fig{n}.{'json' if args.json else 'csv'}")
        _emit_result(result, args, path)
        print(f"fig{n}: {len(result.rows)} rows -> {path}", file=sys.stderr)
    print(f"{len(specs)} figures in one batch: {seconds:.3f}s", file=sys.stderr)
    return 0


def cmd_validate(args) -> int:
    results = run_all()
    for r in results:
        print(f"[{r.index:2d}] {'PASS' if r.passed else 'FAIL'} {r.name} ({r.seconds:.1f}s)",
              file=sys.stderr)
    if args.json:
        payload = [{"criterion": r.index, "name": r.name,
                    "status": "PASS" if r.passed else "FAIL",
                    "measured": r.detail} for r in results]
        _emit(json.dumps(payload, indent=2) + "\n", args.out)
    else:
        _emit(report_csv(results), args.out)
    return 0 if all_passed(results) else 1


def cmd_params(args) -> int:
    params, _, _ = _resolve(args)
    theta = _dynamic(args).args["theta"]
    payload = {"theta": theta, "system": dataclasses.asdict(params),
               "derived": dataclasses.asdict(derive_constants(params, theta))}
    if args.json:
        _emit(json.dumps(payload, indent=2) + "\n", args.out)
        return 0
    lines = [f"resolved constants at theta = {theta!r}"]
    for section in ("system", "derived"):
        lines += ["", f"[{section}]"]
        lines += [f"{name} = {value!r}" for name, value in payload[section].items()]
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
                              "(repeatable; default improved, dynamic_ps "
                              "and static_equal:rho=0.5)")
    _add_common_flags(p_sweep, mc=True, theta=True)
    p_sweep.set_defaults(func=cmd_sweep)

    p_fig = sub.add_parser("fig", help="reproduce canned experiment tables")
    p_fig.add_argument("n", type=int, nargs="+", choices=tuple(FIGURES),
                       help="experiment index; several need --outdir")
    _add_common_flags(p_fig, mc=True, theta=False)
    p_fig.add_argument("--outdir", metavar="DIR",
                       help="write fig<n>.csv (.json with --json) here for "
                            "each n, all simulated in one batch")
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
