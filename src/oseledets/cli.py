"""Batch front end: run experiments, write reports, run the invariant battery.

Subcommands:

- ``osl onestep --spec nu.json``: sample an i.i.d. window, estimate
  exponents and splitting directions, and report truncated angle-tail
  means; writes ``onestep_report.json`` and ``onestep_tail.csv``.
- ``osl flexible --spec eta.json --mode bounded|lowcost``: build a
  prescribed-splitting cocycle over a renewal skyscraper and verify it;
  writes ``flexible_report.json`` and ``flexible_steps.csv``.
- ``osl verify [fast|all]``: run the named invariant battery.

Reports are deterministic: the same config and seed give byte-identical
JSON (no timestamps; floats as shortest round-trip decimal strings, exact
on reload).  Every report embeds the config and seed that produced it.

Exit codes: 0 success, 1 battery failure, 2 infeasible construction
(the witness bipartition is printed), 64 usage error.  The environment
variable ``OSL_DEFAULT_SEED`` supplies the seed when ``--seed`` is absent.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import estimation, flexible, gl2
from .cocycle import MatrixDistribution, sample_onestep
from .flexible import EtaSpec
from .scalars import BadTerm, float_str

DEFAULT_THRESHOLDS = (4.0, 8.0, 16.0, 32.0)
SAMPLE_CHUNKS = 8  # fixed, so reports do not depend on --jobs


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would exit(2); the contract is 64
        raise _UsageError(message)


@dataclass(frozen=True)
class RunConfig:
    """One resolved invocation; everything a report needs to be rerun."""

    command: str
    spec: str | None = None
    steps: int = 1
    trials: int = 1
    seed: int = 0
    thresholds: tuple[float, ...] = DEFAULT_THRESHOLDS
    out: str = "."
    mode: str | None = None
    epsilon: float | None = None
    budget: float | None = None
    rates: tuple[float, float] = (0.5, -0.5)
    jobs: int = 1
    suite: str | None = None

    def __post_init__(self):
        if self.steps < 1:
            raise _UsageError("steps must be >= 1")
        if self.trials < 1:
            raise _UsageError("trials must be >= 1")
        if not 0 <= self.seed < 2**64:
            raise _UsageError("seed must be a 64-bit nonnegative integer")
        if self.jobs < 1:
            raise _UsageError("jobs must be >= 1")
        try:
            estimation.check_thresholds(self.thresholds)
        except BadTerm as err:
            raise _UsageError(str(err)) from None

    def to_obj(self) -> dict:
        # plumbing (the output directory, --jobs) stays out of the report:
        # same experiment -> same bytes anywhere
        obj = {"command": self.command, "seed": str(self.seed)}
        if self.spec is not None:
            obj["spec"] = self.spec
        if self.command in ("onestep", "flexible"):
            obj["steps"] = self.steps
        if self.command == "onestep":
            obj["trials"] = self.trials
            obj["thresholds"] = [float_str(t) for t in self.thresholds]
        if self.command == "flexible":
            obj["mode"] = self.mode
            obj["rates"] = [float_str(r) for r in self.rates]
            if self.budget is not None:
                obj["budget"] = float_str(self.budget)
            if self.epsilon is not None:
                obj["epsilon"] = float_str(self.epsilon)
        if self.command == "verify":
            obj["suite"] = self.suite
        return obj


def _write_report(out_dir: str, name: str, obj: dict) -> Path:
    path = Path(out_dir) / name
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(obj, sort_keys=True, indent=2) + "\n")
    return path


def _write_text(out_dir: str, name: str, text: str) -> Path:
    path = Path(out_dir) / name
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text)
    return path


def _read_spec(path: str) -> str:
    try:
        return Path(path).read_text()
    except OSError as err:
        raise _UsageError(f"cannot read spec {path}: {err}") from err


# ---------------------------------------------------------------------------
# onestep


def _angle_chunk(args) -> np.ndarray:
    nu_json, n, depth, seed, neglog = args
    nu = MatrixDistribution.from_json(nu_json)
    if neglog:
        return estimation.triangular_gap_neglog_samples(nu, n, depth=depth, seed=seed)
    return estimation.oseledets_angle_samples(nu, n, depth, seed=seed)


def _angle_tail(nu: MatrixDistribution, config: RunConfig):
    """Tail report from config.trials stationary gap-angle samples.

    Triangular families with positively supported laws run in the log
    domain, which keeps heavy tails representable; everything else samples
    matrix products directly.  Trials are split over a fixed number of
    chunks with derived seeds, so the result is byte-identical for any --jobs.
    """
    neglog = estimation.log_domain_supported(nu)
    chunks = SAMPLE_CHUNKS if config.trials >= SAMPLE_CHUNKS else 1
    sizes = [
        config.trials // chunks + (1 if i < config.trials % chunks else 0)
        for i in range(chunks)
    ]
    child = np.random.SeedSequence(config.seed).generate_state(chunks, dtype=np.uint64)
    depth = 512 if neglog else 256
    work = [
        (nu.to_json(), n, depth, int(s), neglog) for n, s in zip(sizes, child)
    ]
    if config.jobs > 1:
        from concurrent.futures import ProcessPoolExecutor  # lazy: ~11 ms of import

        with ProcessPoolExecutor(max_workers=min(config.jobs, chunks)) as pool:
            parts = list(pool.map(_angle_chunk, work))
    else:
        parts = [_angle_chunk(w) for w in work]
    samples = np.concatenate(parts)
    if neglog:
        return estimation.angle_tail_report_neglog(samples, config.thresholds)
    return estimation.angle_tail_report(samples, config.thresholds)


def cmd_onestep(config: RunConfig) -> int:
    try:
        nu = MatrixDistribution.from_json(_read_spec(config.spec))
    except (ValueError, KeyError, TypeError) as err:
        raise _UsageError(f"malformed matrix law spec: {err}") from err
    window = sample_onestep(nu, config.steps, config.seed)
    lam = estimation.lyapunov_estimates(window)
    gap = lam.top - lam.bottom
    if gap > 1e-3:
        depth = min(config.steps, max(8, estimation.suggested_depth(gap, 1e-8)))
    else:
        depth = min(config.steps, 256)
    e1 = estimation.estimate_E1_backward(window, depth)
    e2 = estimation.estimate_E2_forward(window, depth)
    theta = float(gl2.line_angle(e1, e2))
    tail = _angle_tail(nu, config)
    obj = {
        "config": config.to_obj(),
        "seed": str(config.seed),
        "lambda_hat": {"top": float_str(lam.top), "bottom": float_str(lam.bottom)},
        "directions": {
            "depth": depth,
            "expanding_line": float_str(e1),
            "contracting_line": float_str(e2),
            "gap_angle": float_str(theta),
        },
        "angle_tail": tail.to_obj(),
    }
    report = _write_report(config.out, "onestep_report.json", obj)
    csv = _write_text(config.out, "onestep_tail.csv", tail.to_csv())
    print(f"exponents ({lam.top!r}, {lam.bottom!r})")
    print(f"splitting gap angle {theta!r} at depth {depth}")
    print(f"angle-tail verdict {tail.verdict} ({tail.sample_count} samples)")
    print(f"wrote {report}")
    print(f"wrote {csv}")
    return 0


# ---------------------------------------------------------------------------
# flexible


def cmd_flexible(config: RunConfig) -> int:
    try:
        eta = EtaSpec.from_json(_read_spec(config.spec))
    except (ValueError, KeyError, TypeError) as err:
        raise _UsageError(f"malformed mixture spec: {err}") from err
    r1, r2 = config.rates
    if (why := flexible.rate_limit_error(eta, r1, r2)) is not None:
        raise _UsageError(why)
    try:
        window = flexible.simulate_flexible(
            eta, r1, r2, config.mode, config.steps, config.seed,
            budget=config.budget, epsilon=config.epsilon,
        )
    except flexible.UnboundedGap as err:
        print(f"infeasible: {err}", file=sys.stderr)
        if err.witness is not None:
            a, b = err.witness
            print(
                f"witness bipartition: pieces {list(a)} | pieces {list(b)}",
                file=sys.stderr,
            )
        return 2
    rep = flexible.verify_flexible(window, eta, r1, r2, mode=config.mode)
    obj = {"config": config.to_obj(), "seed": str(config.seed), "report": rep.to_obj()}
    report = _write_report(config.out, "flexible_report.json", obj)
    csv = _write_text(config.out, "flexible_steps.csv", rep.to_csv())
    print(f"mode {rep.mode}  steps {rep.steps}  rates ({r1!r}, {r2!r})")
    print(f"exponents ({rep.lambda_hat[0]!r}, {rep.lambda_hat[1]!r})")
    print(
        f"tv distance {rep.tv_distance!r}  ks {rep.ks_theta!r}  "
        f"agreement {rep.agreement_fraction!r}"
    )
    if config.mode == "lowcost":
        print(f"mean step cost {rep.mean_cost!r} (epsilon {config.epsilon!r})")
    else:
        print(f"max step cost {rep.max_cost!r} (budget {config.budget!r})")
    print(f"wrote {report}")
    print(f"wrote {csv}")
    return 0


# ---------------------------------------------------------------------------
# verify


def cmd_verify(config: RunConfig) -> int:
    from . import verify  # lazy: only this command runs the battery

    results = verify.run_suite(config.suite)
    return 0 if all(r.ok for r in results) else 1


# ---------------------------------------------------------------------------
# argument plumbing


def _csv_floats(text: str) -> tuple[float, ...]:
    try:
        return tuple(float(tok) for tok in text.split(","))
    except ValueError as err:
        raise _UsageError(f"not a comma-separated float list: {text!r}") from err


def _resolve_seed(value) -> int:
    if value is not None:
        return value
    env = os.environ.get("OSL_DEFAULT_SEED")
    if env is None:
        return 0
    try:
        return int(env)
    except ValueError as err:
        raise _UsageError(f"OSL_DEFAULT_SEED is not an integer: {env!r}") from err


def _build_parser() -> _Parser:
    parser = _Parser(prog="osl", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    one = sub.add_parser("onestep", help="i.i.d. window: exponents, directions, tails")
    one.add_argument("--spec", required=True, help="matrix law JSON")
    one.add_argument("--steps", type=int, default=4096,
                     help="window half-width (spans [-steps, steps))")
    one.add_argument("--trials", type=int, default=20000,
                     help="stationary angle samples for the tail report")
    one.add_argument("--seed", type=int, default=None)
    one.add_argument("--out", default=".", help="report directory")
    one.add_argument("--thresholds", type=_csv_floats,
                     default=DEFAULT_THRESHOLDS,
                     help="truncation thresholds, comma separated")
    one.add_argument("--jobs", type=int, default=1,
                     help="worker processes for angle sampling")

    flex = sub.add_parser("flexible", help="prescribed-splitting construction")
    flex.add_argument("--spec", required=True, help="mixture JSON")
    flex.add_argument("--mode", required=True, choices=("bounded", "lowcost"))
    flex.add_argument("--steps", type=int, default=100000)
    flex.add_argument("--seed", type=int, default=None)
    flex.add_argument("--out", default=".", help="report directory")
    flex.add_argument("--budget", type=float, default=None,
                      help="per-step cost bound b (bounded mode)")
    flex.add_argument("--epsilon", type=float, default=None,
                      help="mean cost bound (lowcost mode)")
    flex.add_argument("--rates", type=_csv_floats, default=(0.5, -0.5),
                      help="target exponents r1,r2 with r1 > r2")

    ver = sub.add_parser("verify", help="run the named invariant battery")
    ver.add_argument("suite", nargs="?", default="fast", choices=("fast", "all"))

    return parser


def _config_from_args(args) -> RunConfig:
    seed = _resolve_seed(getattr(args, "seed", None))
    if args.command == "onestep":
        return RunConfig(
            command="onestep", spec=args.spec, steps=args.steps,
            trials=args.trials, seed=seed, thresholds=tuple(args.thresholds),
            out=args.out, jobs=args.jobs,
        )
    if args.command == "flexible":
        rates = tuple(args.rates)
        if len(rates) != 2:
            raise _UsageError("rates must be exactly r1,r2")
        if not all(map(math.isfinite, rates)):
            raise _UsageError("rates must be finite")
        if not rates[0] > rates[1]:
            raise _UsageError("rates must satisfy r1 > r2")
        try:
            min_steps = 2 * flexible.direction_depth(*rates) + 10
        except OverflowError:  # r1 - r2 so small that the depth is infinite
            raise _UsageError("rates r1,r2 are too close for direction estimates") from None
        if args.steps < min_steps:
            raise _UsageError(
                f"steps must be >= {min_steps} for direction estimates at rates "
                f"{rates[0]!r},{rates[1]!r}"
            )
        # written as "not > 0" so that nan fails too
        if args.mode == "bounded" and not (args.budget is not None and args.budget > 0):
            raise _UsageError("bounded mode needs a positive --budget")
        if args.mode == "lowcost" and not (args.epsilon is not None and args.epsilon > 0):
            raise _UsageError("lowcost mode needs a positive --epsilon")
        return RunConfig(
            command="flexible", spec=args.spec, steps=args.steps, seed=seed,
            out=args.out, mode=args.mode, epsilon=args.epsilon,
            budget=args.budget, rates=(float(rates[0]), float(rates[1])),
        )
    return RunConfig(command="verify", seed=seed, suite=args.suite)


_COMMANDS = {"onestep": cmd_onestep, "flexible": cmd_flexible, "verify": cmd_verify}


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        config = _config_from_args(args)
        return _COMMANDS[config.command](config)
    except _UsageError as err:
        print(f"usage error: {err}", file=sys.stderr)
        return 64
    except SystemExit as err:  # argparse --help
        return 0 if err.code in (0, None) else int(err.code)


if __name__ == "__main__":
    sys.exit(main())
