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
from pathlib import Path

import numpy as np

from . import estimation, flexible, gl2
from .cocycle import MatrixDistribution, sample_onestep
from .flexible import EtaSpec
from .scalars import BadTerm, encode

DEFAULT_THRESHOLDS = (4.0, 8.0, 16.0, 32.0)
SAMPLE_CHUNKS = 8  # fixed, so reports do not depend on --jobs


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would exit(2); the contract is 64
        raise _UsageError(message)


def _config(args) -> dict:
    """The report's config block: every parsed option but the plumbing (the
    output directory, --jobs), so the same experiment gives the same bytes anywhere."""
    obj = {k: v for k, v in vars(args).items() if k not in ("out", "jobs") and v is not None}
    return encode({**obj, "seed": str(args.seed)})


def _write_report(out_dir: str, name: str, obj: dict) -> Path:
    path = Path(out_dir) / name
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(obj, sort_keys=True, indent=2) + "\n")
    return path


def _write_text(out_dir: str, name: str, parts) -> Path:
    """Write an iterable of text parts, each whole; a lazy iterable keeps
    only one part in memory."""
    path = Path(out_dir) / name
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w") as f:
        f.writelines(parts)
    return path


def _load(path: str, parse, what: str):
    """parse(text of the spec file); an unreadable or malformed one is a usage error."""
    try:
        return parse(Path(path).read_text())
    except OSError as err:
        raise _UsageError(f"cannot read spec {path}: {err}") from err
    except (ValueError, KeyError, TypeError, OverflowError) as err:
        raise _UsageError(f"malformed {what}: {err}") from err


# ---------------------------------------------------------------------------
# onestep


def _angle_tail(nu: MatrixDistribution, args):
    """Tail report from args.trials stationary -log sin(gap angle) samples
    (``estimation.gap_neglog_samples``).  Trials are split over a fixed
    number of chunks with derived seeds, so the result is byte-identical
    for any --jobs."""
    chunks = SAMPLE_CHUNKS if args.trials >= SAMPLE_CHUNKS else 1
    sizes = [
        args.trials // chunks + (1 if i < args.trials % chunks else 0)
        for i in range(chunks)
    ]
    child = np.random.SeedSequence(args.seed).generate_state(chunks, dtype=np.uint64)
    work = ([nu] * chunks, sizes, child.tolist())
    if args.jobs > 1:
        from concurrent.futures import ProcessPoolExecutor  # lazy: ~11 ms of import

        with ProcessPoolExecutor(max_workers=min(args.jobs, chunks)) as pool:
            parts = list(pool.map(estimation.gap_neglog_samples, *work))
    else:
        parts = list(map(estimation.gap_neglog_samples, *work))
    return estimation.angle_tail_report_neglog(np.concatenate(parts), args.thresholds)


def cmd_onestep(args) -> int:
    nu = _load(args.spec, MatrixDistribution.from_json, "matrix law spec")
    window = sample_onestep(nu, args.steps, args.seed)
    lam = estimation.lyapunov_estimates(window)
    gap = lam.top - lam.bottom
    if gap > 1e-3:
        depth = min(args.steps, max(8, estimation.suggested_depth(gap, 1e-8)))
    else:
        depth = min(args.steps, 256)
    e1 = estimation.estimate_E1_backward(window, depth)
    e2 = estimation.estimate_E2_forward(window, depth)
    theta = float(gl2.line_angle(e1, e2))
    tail = _angle_tail(nu, args)
    obj = encode({
        "config": _config(args),
        "seed": str(args.seed),
        "lambda_hat": {"top": lam.top, "bottom": lam.bottom},
        "directions": {
            "depth": depth,
            "expanding_line": e1,
            "contracting_line": e2,
            "gap_angle": theta,
        },
        "angle_tail": tail,
    })
    report = _write_report(args.out, "onestep_report.json", obj)
    csv = _write_text(args.out, "onestep_tail.csv", [tail.to_csv()])
    print(f"exponents ({lam.top!r}, {lam.bottom!r})")
    print(f"splitting gap angle {theta!r} at depth {depth}")
    print(f"angle-tail verdict {tail.verdict} ({tail.sample_count} samples)")
    print(f"wrote {report}")
    print(f"wrote {csv}")
    return 0


# ---------------------------------------------------------------------------
# flexible


def cmd_flexible(args) -> int:
    eta = _load(args.spec, EtaSpec.from_json, "mixture spec")
    r1, r2 = args.rates
    if (why := flexible.rate_limit_error(eta, r1, r2)) is not None:
        raise _UsageError(why)
    try:
        blocks = flexible.simulate_blocks(
            eta, r1, r2, args.mode, args.steps, args.seed,
            budget=args.budget, epsilon=args.epsilon,
        )
    except flexible.BuildTooLarge as err:
        raise _UsageError(str(err)) from None
    except flexible.UnboundedGap as err:
        print(f"infeasible: {err}", file=sys.stderr)
        if err.witness is not None:
            a, b = err.witness
            print(
                f"witness bipartition: pieces {list(a)} | pieces {list(b)}",
                file=sys.stderr,
            )
        return 2
    # each block is verified as it is built, so no window is ever held; the
    # report keeps its step columns, and the CSV holds one part at a time
    rep = flexible.verify_flexible(blocks, eta, r1, r2, mode=args.mode, steps=args.steps)
    obj = encode({"config": _config(args), "seed": str(args.seed), "report": rep})
    report = _write_report(args.out, "flexible_report.json", obj)
    rows = range(0, max(len(rep.step_cost), 1), flexible.STEP_BLOCK)  # 0 rows: the header
    parts = (rep.to_csv(lo, lo + flexible.STEP_BLOCK) for lo in rows)
    csv = _write_text(args.out, "flexible_steps.csv", parts)
    print(f"mode {rep.mode}  steps {rep.steps}  rates ({r1!r}, {r2!r})")
    print(f"exponents ({rep.lambda_hat[0]!r}, {rep.lambda_hat[1]!r})")
    print(
        f"tv distance {rep.tv_distance!r}  ks {rep.ks_theta!r}  "
        f"agreement {rep.agreement_fraction!r}"
    )
    if args.mode == "lowcost":
        print(f"mean step cost {rep.mean_cost!r} (epsilon {args.epsilon!r})")
    else:
        print(f"max step cost {rep.max_cost!r} (budget {args.budget!r})")
    print(f"wrote {report}")
    print(f"wrote {csv}")
    return 0


# ---------------------------------------------------------------------------
# verify


def cmd_verify(args) -> int:
    from . import verify  # lazy: only this command runs the battery

    results = verify.run_suite(args.suite)
    return 0 if all(r.ok for r in results) else 1


# ---------------------------------------------------------------------------
# argument plumbing


def _csv_floats(text: str) -> tuple[float, ...]:
    try:
        return tuple(float(tok) for tok in text.split(","))
    except ValueError as err:
        raise _UsageError(f"not a comma-separated float list: {text!r}") from err


def _checked(parse, ok, message: str):
    """An argparse type: parse the text, then a usage error unless ok(value)."""

    def convert(text):
        value = parse(text)
        if not ok(value):
            raise _UsageError(message)
        return value

    convert.__name__ = parse.__name__  # argparse names it in "invalid int value"
    return convert


def _count(name: str):
    return _checked(int, lambda n: n >= 1, f"{name} must be >= 1")


_seed = _checked(int, lambda s: 0 <= s < 2**64, "seed must be a 64-bit nonnegative integer")


def _thresholds(text: str) -> tuple[float, ...]:
    try:
        return estimation.check_thresholds(_csv_floats(text))
    except BadTerm as err:
        raise _UsageError(str(err)) from None


def _rates(text: str) -> tuple[float, float]:
    rates = _csv_floats(text)
    if len(rates) != 2:
        raise _UsageError("rates must be exactly r1,r2")
    if not all(map(math.isfinite, rates)):
        raise _UsageError("rates must be finite")
    if not rates[0] > rates[1]:
        raise _UsageError("rates must satisfy r1 > r2")
    return rates


def _build_parser() -> _Parser:
    parser = _Parser(prog="osl", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    one = sub.add_parser("onestep", help="i.i.d. window: exponents, directions, tails")
    one.add_argument("--spec", required=True, help="matrix law JSON")
    one.add_argument("--steps", type=_count("steps"), default=4096,
                     help="window half-width (spans [-steps, steps))")
    one.add_argument("--trials", type=_count("trials"), default=20000,
                     help="stationary angle samples for the tail report")
    one.add_argument("--seed", type=_seed, default=None)
    one.add_argument("--out", default=".", help="report directory")
    one.add_argument("--thresholds", type=_thresholds,
                     default=DEFAULT_THRESHOLDS,
                     help="truncation thresholds, comma separated")
    one.add_argument("--jobs", type=_count("jobs"), default=1,
                     help="worker processes for angle sampling")

    flex = sub.add_parser("flexible", help="prescribed-splitting construction")
    flex.add_argument("--spec", required=True, help="mixture JSON")
    flex.add_argument("--mode", required=True, choices=("bounded", "lowcost"))
    flex.add_argument("--steps", type=_count("steps"), default=100000)
    flex.add_argument("--seed", type=_seed, default=None)
    flex.add_argument("--out", default=".", help="report directory")
    flex.add_argument("--budget", type=float, default=None,
                      help="per-step cost bound b (bounded mode)")
    flex.add_argument("--epsilon", type=float, default=None,
                      help="mean cost bound (lowcost mode)")
    flex.add_argument("--rates", type=_rates, default=(0.5, -0.5),
                      help="target exponents r1,r2 with r1 > r2")

    ver = sub.add_parser("verify", help="run the named invariant battery")
    ver.add_argument("suite", nargs="?", default="fast", choices=("fast", "all"))

    return parser


def _parse(argv):
    """The parsed arguments, after the checks that read two options or the
    environment; each option's own check is its argparse type."""
    args = _build_parser().parse_args(argv)
    if args.command == "verify":
        return args
    if args.seed is None:
        env = os.environ.get("OSL_DEFAULT_SEED", "0")
        try:
            args.seed = _seed(env)
        except ValueError:
            raise _UsageError(f"OSL_DEFAULT_SEED is not an integer: {env!r}") from None
    if args.command == "flexible":
        r1, r2 = args.rates
        try:
            min_steps = 2 * flexible.direction_depth(r1, r2) + 10
        except OverflowError:  # r1 - r2 so small that the depth is infinite
            raise _UsageError("rates r1,r2 are too close for direction estimates") from None
        if args.steps < min_steps:
            raise _UsageError(
                f"steps must be >= {min_steps} for direction estimates at rates {r1!r},{r2!r}"
            )
        flag = "budget" if args.mode == "bounded" else "epsilon"
        bound = getattr(args, flag)
        if not (bound is not None and bound > 0):  # "not > 0", so that nan fails too
            raise _UsageError(f"{args.mode} mode needs a positive --{flag}")
    return args


_COMMANDS = {"onestep": cmd_onestep, "flexible": cmd_flexible, "verify": cmd_verify}


def main(argv=None) -> int:
    try:
        args = _parse(argv)
        return _COMMANDS[args.command](args)
    except _UsageError as err:
        print(f"usage error: {err}", file=sys.stderr)
        return 64
    except SystemExit as err:  # argparse --help
        return 0 if err.code in (0, None) else int(err.code)


if __name__ == "__main__":
    sys.exit(main())
