"""Command-line interface.

Exit codes: 0 = all experiment assertions passed, 1 = an assertion failed,
2 = usage error.
"""

from __future__ import annotations

import argparse
import sys

from . import schedule
from .harness import REGISTRY, ExperimentConfig


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="coverlab",
        description="Cover-time, excursion, and Galton-Watson barrier experiments",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, runner in REGISTRY.items():
        p = sub.add_parser(name, help=(runner.__doc__ or "").strip().splitlines()[0])
        p.add_argument("--n", type=int, nargs="*", default=None, help="torus side(s)")
        p.add_argument("--trials", type=int, default=0, help="trial count (0 = default)")
        p.add_argument("--seed", type=int, default=0, help="master seed")
        p.add_argument("--out", type=str, default=None, help="CSV output path")
        p.add_argument(
            "--schedule",
            type=str,
            default="toy:4,2",
            help="radii schedule: 'strict' or 'toy:L,ell'",
        )
        p.add_argument(
            "--params",
            type=str,
            default=None,
            help="alpha,beta,gamma,delta,cstar (comma separated)",
        )
        p.add_argument("--kappa-plus", type=float, default=2.0)
        p.add_argument("--kappa-minus", type=float, default=2.0)
        p.add_argument("--budget-mult", type=float, default=1.0)
        p.add_argument("--workers", type=int, default=None)
    return parser


def _params_from_arg(arg: str | None, n: int) -> schedule.ParamSet | None:
    if arg is None:
        return None
    try:
        alpha, beta, gamma, delta, cstar = (float(v) for v in arg.split(","))
    except ValueError as exc:
        raise ValueError(
            "--params needs five comma-separated numbers alpha,beta,gamma,delta,cstar "
            f"(got {arg!r})"
        ) from exc
    return schedule.ParamSet(
        n=n, alpha=alpha, beta=beta, gamma=gamma, delta=delta, c_star=cstar
    )


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    n_values = tuple(args.n) if args.n else ()
    try:
        cfg = ExperimentConfig(
            name=args.command,
            n_values=n_values,
            trials=args.trials,
            seed=args.seed,
            out=args.out,
            schedule_spec=args.schedule,
            params=_params_from_arg(args.params, n_values[0] if n_values else 64),
            kappa_plus=args.kappa_plus,
            kappa_minus=args.kappa_minus,
            budget_mult=args.budget_mult,
            workers=args.workers,
        )
        result = REGISTRY[args.command](cfg)
    except ValueError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    for check in result.checks:
        status = "pass" if check.passed else "FAIL"
        print(f"[{status}] {check.name}: {check.detail}")
    if cfg.out:
        print(f"wrote {cfg.out}")
    return 0 if result.all_passed else 1


if __name__ == "__main__":
    sys.exit(main())
