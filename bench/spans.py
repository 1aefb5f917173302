"""Per-layer spans for the traced benchmark run.

``install()`` wraps the public functions of each ``oseledets`` layer in
every module namespace that binds them (``estimation``, ``flexible`` and
``cli`` import several with ``from ... import``), so a call is recorded
whichever name it goes through.  Each wrapper records a span (name,
start, end, parent) in memory and adds the call's work count, read from
its arguments or its result.  ``Tracer.dump`` writes them out once, after
``osl`` returns.  ``layer_metrics`` turns a dump into the per-layer
metrics named in ``BENCHMARK.json``.

Wrappers return what they wrap unchanged, so a traced run writes the same
report bytes as an untraced one.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time


def _bytes_of_path(args, result):
    return result.stat().st_size


def _matrix_steps(args, result):
    return 2 * args["trials"] * args["depth"]


def _neglog_terms(args, result):
    return args["trials"] * args["depth"]


def _draws(args, result):
    return 1 if args["n"] is None else args["n"]


def _csv_rows(args, result):
    return result.count("\n") - 1


# (module, attribute, span name, count name, count function); a dotted
# attribute is a method, wrapped on its class
TARGETS = (
    ("oseledets.cli", "_write_report", "cli.write", "cli.bytes_written", _bytes_of_path),
    ("oseledets.cli", "_write_text", "cli.write", "cli.bytes_written", _bytes_of_path),
    ("oseledets.estimation", "oseledets_angle_samples", "estimation.angle_samples",
     "estimation.angle_matrix_steps", _matrix_steps),
    ("oseledets.estimation", "triangular_gap_neglog_samples", "estimation.neglog_samples",
     "estimation.neglog_terms", _neglog_terms),
    ("oseledets.estimation", "angle_tail_report", "estimation.tail_report", None, None),
    ("oseledets.estimation", "angle_tail_report_neglog", "estimation.tail_report", None, None),
    ("oseledets.estimation", "lyapunov_estimates", "estimation.lyapunov", None, None),
    ("oseledets.estimation", "estimate_E1_backward", "estimation.directions", None, None),
    ("oseledets.estimation", "estimate_E2_forward", "estimation.directions", None, None),
    ("oseledets.cocycle", "MatrixDistribution.sample_matrices", "cocycle.sample_matrices",
     "cocycle.matrices_drawn", lambda a, r: a["n"]),
    ("oseledets.cocycle", "product_scaled", "cocycle.product_scaled",
     "cocycle.product_factors", lambda a, r: len(a["mats"])),
    ("oseledets.scalars", "ScalarDist.sample", "scalars.sample", "scalars.draws", _draws),
    ("oseledets.gl2", "singular_lines", "gl2.singular_lines", None, None),
    ("oseledets.gl2", "projective_action", "gl2.projective_action", None, None),
    ("oseledets.skyscraper", "renewal_trajectory", "skyscraper.renewal_trajectory", None, None),
    ("oseledets.skyscraper", "trajectory_labels", "skyscraper.trajectory_labels", None, None),
    ("oseledets.flexible", "simulate_flexible", "flexible.simulate", None, None),
    ("oseledets.flexible", "verify_flexible", "flexible.verify", None, None),
    ("oseledets.flexible", "step_costs", "flexible.step_costs", None, None),
    ("oseledets.flexible", "ConstructionReport.to_csv", "flexible.report_csv",
     "flexible.csv_rows", _csv_rows),
)

# per-layer time metric -> (span name, "self" or "total").  Self time is a
# span's duration minus what its child spans cover; total time counts the
# outermost span of each nest once.
TIME_METRICS = {
    "cli.write_s": ("cli.write", "total"),
    "estimation.angle_samples_s": ("estimation.angle_samples", "self"),
    "estimation.neglog_samples_s": ("estimation.neglog_samples", "self"),
    "estimation.tail_report_s": ("estimation.tail_report", "total"),
    "estimation.lyapunov_s": ("estimation.lyapunov", "total"),
    "estimation.directions_s": ("estimation.directions", "total"),
    "cocycle.sample_matrices_s": ("cocycle.sample_matrices", "total"),
    "cocycle.product_scaled_s": ("cocycle.product_scaled", "total"),
    "scalars.sample_s": ("scalars.sample", "total"),
    "gl2.singular_lines_s": ("gl2.singular_lines", "total"),
    "gl2.projective_action_s": ("gl2.projective_action", "total"),
    "skyscraper.renewal_trajectory_s": ("skyscraper.renewal_trajectory", "total"),
    "skyscraper.trajectory_labels_s": ("skyscraper.trajectory_labels", "total"),
    "flexible.simulate_s": ("flexible.simulate", "self"),
    "flexible.verify_s": ("flexible.verify", "self"),
    "flexible.step_costs_s": ("flexible.step_costs", "total"),
    "flexible.report_csv_s": ("flexible.report_csv", "total"),
}

COUNT_METRICS = tuple(sorted({t[3] for t in TARGETS if t[3] is not None}))


class Tracer:
    """Spans and counts of one process, kept in memory until ``dump``."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.counts = {name: 0 for name in COUNT_METRICS}
        self._stack: list[int] = []

    def wrap(self, fn, span, count, count_fn):
        sig = inspect.signature(fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = self._stack[-1] if self._stack else -1
            index = len(self.spans)
            record = [span, time.perf_counter(), None, parent]
            self.spans.append(record)
            self._stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = time.perf_counter()
                self._stack.pop()
            if count is not None:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                self.counts[count] += int(count_fn(bound.arguments, result))
            return result

        return wrapper

    def dump(self, path: str, import_s: float) -> None:
        with open(path, "w") as fh:
            json.dump({"import_s": import_s, "spans": self.spans, "counts": self.counts}, fh)


def install() -> Tracer:
    """Wrap every target in every loaded ``oseledets`` namespace binding it."""
    tracer = Tracer()
    modules = [m for name, m in sys.modules.items() if name.split(".")[0] == "oseledets"]
    for mod_name, attr, span, count, count_fn in TARGETS:
        owner_name, _, method = attr.partition(".")
        owner = getattr(sys.modules[mod_name], owner_name)
        if method:
            setattr(owner, method, tracer.wrap(getattr(owner, method), span, count, count_fn))
            continue
        wrapped = tracer.wrap(owner, span, count, count_fn)
        for mod in modules:
            for name, value in list(vars(mod).items()):
                if value is owner:
                    setattr(mod, name, wrapped)
    return tracer


def layer_metrics(dump: dict) -> dict[str, float]:
    """Per-layer metrics of one traced process, keyed by metric name."""
    spans = dump["spans"]
    covered = [0.0] * len(spans)  # time each span's direct children cover
    for name, start, end, parent in spans:
        if parent >= 0:
            covered[parent] += end - start

    def nested_in_same(index):
        parent = spans[index][3]
        while parent >= 0:
            if spans[parent][0] == spans[index][0]:
                return True
            parent = spans[parent][3]
        return False

    out = {"cli.import_s": dump["import_s"]}
    for metric, (span, mode) in TIME_METRICS.items():
        total = 0.0
        for i, (name, start, end, _) in enumerate(spans):
            if name != span:
                continue
            if mode == "self":
                total += end - start - covered[i]
            elif not nested_in_same(i):
                total += end - start
        out[metric] = total
    out.update(dump["counts"])
    return out
