"""Command-line interface.

Exit codes: 0 = all experiment assertions passed, 1 = an assertion failed,
2 = usage error.
"""

from __future__ import annotations

import argparse
import sys

from . import schedule
from .harness import REGISTRY, ExperimentConfig


# the flags each subcommand reads besides --trials, --seed and --out; each
# dest is the ExperimentConfig field it sets, and any other flag is a usage error
_N_ONE = ("--n", dict(dest="n_values", type=int, nargs=1, help="torus side"))
_N_MANY = ("--n", dict(dest="n_values", type=int, nargs="+", help="torus sides"))
_WORKERS = ("--workers", dict(type=int, help="worker processes for the trial map"))
_CURVES = (
    ("--schedule", dict(dest="schedule_spec", help="radii schedule: 'strict' or 'toy:L,ell'")),
    ("--params", dict(help="alpha,beta,gamma,delta,cstar (comma separated)")),
    ("--kappa-plus", dict(type=float, help="kappa of the upper curve a+")),
    ("--kappa-minus", dict(type=float, help="kappa of the lower curve a-")),
)
FLAGS = {
    "cover": (_N_MANY, _WORKERS),
    "excursion": (_N_ONE, _WORKERS),
    "transfer": (_WORKERS,),
    "gw-check": (),
    "barrier": (),
    "curves": (_N_ONE, _WORKERS, *_CURVES),
    "oracle-check": (_WORKERS,),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="coverlab",
        description="Cover-time, excursion, and Galton-Watson barrier experiments",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, runner in REGISTRY.items():
        p = sub.add_parser(name, help=(runner.__doc__ or "").strip().splitlines()[0])
        p.add_argument("--trials", type=int, default=0, help="trial count (0 = default)")
        p.add_argument("--seed", type=int, default=0, help="master seed")
        p.add_argument("--out", type=str, default=None, help="CSV output path")
        for flag, kwargs in FLAGS[name]:
            p.add_argument(flag, **kwargs)
    return parser


def _params_from_arg(arg: str, n: int) -> schedule.ParamSet:
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
    fields = {k: v for k, v in vars(args).items() if v is not None}
    name = fields.pop("command")
    if "n_values" in fields:
        fields["n_values"] = tuple(fields["n_values"])
    try:
        if "params" in fields:
            n = fields.get("n_values", (64,))[0]
            fields["params"] = _params_from_arg(fields["params"], n)
        cfg = ExperimentConfig(name=name, **fields)
        result = REGISTRY[name](cfg)
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
