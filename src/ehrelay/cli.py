"""Command-line front end: sweeps, canned experiments, validation, audit.

Every input comes from argv, read over the built-in defaults; an argument
@FILE stands for the arguments FILE holds, one a line, and where one flag
is given twice the later one wins.  Each input has one name: the override
flag of a SystemParams field is the field's name, dashed, and --param takes
the field's name.  Every run prints its result to stdout as CSV (params: a
listing), so downstream plotting needs no code from this package; `fig`
given --outdir writes one CSV file per figure instead, all from one batch.
A simulation runs on every usable core (the affinity mask, so `taskset -c 0`
keeps it in one process), and its output is the same on any core count.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys
import time

from .model import SchemeSpec, SystemParams, derive_constants
from .montecarlo import McConfig
from .sweeps import (_FIG_SCHEMES, FIGURES, SWEEPABLE_PARAMS, SweepSpec, _figure_spec,
                     _refuse_swept_override, run_sweep, run_sweeps)
from .validation import all_passed, report_csv, run_all

# Every SystemParams field has the override flag --<field> (dashed).
_OVERRIDE_FLAGS = tuple(f.name for f in dataclasses.fields(SystemParams))


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, allow_abbrev=False, **kwargs):
        """No flag is read from a prefix: --out names no --outdir."""
        super().__init__(*args, allow_abbrev=allow_abbrev, **kwargs)

    def convert_arg_line_to_args(self, arg_line: str) -> list:
        """A preset line is one argument; a blank line is none."""
        return [arg_line] if arg_line.strip() else []


def _add_common_flags(parser: argparse.ArgumentParser, *, mc: bool) -> None:
    """Register only the flags the subcommand reads; others are usage errors."""
    if mc:
        parser.add_argument("--seed", type=int, help="simulation seed")
        parser.add_argument("--trials", type=int, help="Monte Carlo trials per point")
    group = parser.add_argument_group("parameter overrides")
    for field in _OVERRIDE_FLAGS:
        group.add_argument("--" + field.replace("_", "-"), type=float)


def _resolve(args) -> tuple[SystemParams, McConfig, dict]:
    """Overlay the defaults with the flags given; return the system fields set."""
    system = {field: getattr(args, field) for field in _OVERRIDE_FLAGS
              if getattr(args, field) is not None}
    mc = {name: getattr(args, name) for name in ("trials", "seed")
          if getattr(args, name, None) is not None}
    return SystemParams(**system), McConfig(**mc, shards=os.cpu_count() or 1), system


def cmd_sweep(args) -> int:
    params, cfg, system = _resolve(args)
    _refuse_swept_override(f"--param {args.param}", args.param, system)
    texts = args.scheme or ()
    schemes = tuple(map(SchemeSpec.parse, texts)) or _FIG_SCHEMES
    # parse refuses an argument without "=", so a text with none gives none.
    fixed = [text for text, scheme in zip(texts, schemes)
             if args.param == "theta" and scheme.scheme_id == "dynamic_ps" and "=" in text]
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
                     schemes=schemes, base=params)
    sys.stdout.write(run_sweep(spec, cfg).to_csv())
    return 0


def cmd_fig(args) -> int:
    if len(set(args.n)) < len(args.n):
        raise ValueError(f"each figure may be given once, got {args.n}")
    if args.outdir is None and len(args.n) > 1:
        raise ValueError("several figures need --outdir")
    _, cfg, system = _resolve(args)
    specs = [_figure_spec(n, system) for n in args.n]
    if args.outdir is None:
        sys.stdout.write(run_sweeps(specs, cfg)[0].to_csv())
        return 0
    os.makedirs(args.outdir, exist_ok=True)
    start = time.perf_counter()
    results = run_sweeps(specs, cfg)
    seconds = time.perf_counter() - start
    for n, result in zip(args.n, results):
        path = os.path.join(args.outdir, f"fig{n}.csv")
        with open(path, "w", encoding="utf-8", newline="") as handle:
            handle.write(result.to_csv())
        print(f"fig{n}: {len(result.rows)} rows -> {path}", file=sys.stderr)
    print(f"{len(specs)} figures in one batch: {seconds:.3f}s", file=sys.stderr)
    return 0


def cmd_validate(args) -> int:
    results = run_all()
    for r in results:
        print(f"[{r.index:2d}] {'PASS' if r.passed else 'FAIL'} {r.name} ({r.seconds:.1f}s)",
              file=sys.stderr)
    sys.stdout.write(report_csv(results))
    return 0 if all_passed(results) else 1


def cmd_params(args) -> int:
    params, _, _ = _resolve(args)
    theta = args.theta
    lines = [f"resolved constants at theta = {theta!r}"]
    for section, values in (("system", params), ("derived", derive_constants(params, theta))):
        lines += ["", f"[{section}]"]
        lines += [f"{name} = {value!r}" for name, value in dataclasses.asdict(values).items()]
    sys.stdout.write("\n".join(lines) + "\n")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="ehrelay", fromfile_prefix_chars="@",
        description="Outage analysis of a three-step energy-harvesting "
                    "two-way relay network. An argument @FILE stands for the "
                    "arguments FILE holds, one a line, blank lines skipped; a "
                    "later argument wins.")
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
    _add_common_flags(p_sweep, mc=True)
    p_sweep.set_defaults(func=cmd_sweep)

    p_fig = sub.add_parser("fig", help="reproduce canned experiment tables")
    p_fig.add_argument("n", type=int, nargs="+", choices=tuple(FIGURES),
                       help="experiment index; several need --outdir")
    _add_common_flags(p_fig, mc=True)
    p_fig.add_argument("--outdir", metavar="DIR",
                       help="write fig<n>.csv here for each n, all simulated "
                            "in one batch")
    p_fig.set_defaults(func=cmd_fig)

    p_val = sub.add_parser("validate", help="run the acceptance criteria suite")
    p_val.set_defaults(func=cmd_validate)

    p_par = sub.add_parser("params", help="print resolved derived constants")
    _add_common_flags(p_par, mc=False)
    p_par.add_argument("--theta", type=float, default=SchemeSpec("dynamic_ps").args["theta"],
                       help="broadcast weight of the dynamic-PS part (default %(default)s)")
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
