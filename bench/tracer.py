"""Spans around crimecast's public functions, recorded from outside the package.

`Tracer.install()` replaces each function named in `TARGETS` by a timing
wrapper, in its defining module and in every other crimecast module that
bound it by name (`cli` does `from .arima import fit_arima`), and replaces
the listed methods on their classes. Each call appends one span
`[name, start, end, parent, pass_id, error]` to an in-memory list; nothing
is written until `dump()`.

`layer_metrics()` turns the spans of one pass into the per-layer metrics:
self time (a span's duration minus the part its child spans cover) summed
per layer and per function group, call counts, and the counters the hooks
record (records loaded, states resolved, fits converged, ...).
"""

from __future__ import annotations

import functools
import importlib
import statistics
import sys
import time
import warnings
from collections import defaultdict
from contextlib import contextmanager

# (module, attribute or Class.method, metric group). A group names the
# function-level metric `<layer>.<group>.s`; None counts only in `<layer>.s`.
TARGETS = (
    ("signals", "load_articles", "load_articles"),
    ("signals", "aggregate_quarterly", "aggregate"),
    ("signals", "aggregate_by_state", "aggregate"),
    ("signals", "write_articles", "write"),
    ("signals", "write_signals_csv", "write"),
    ("signals", "write_state_signals_csv", "write"),
    ("geo", "load_gazetteer", "load_gazetteer"),
    ("geo", "resolve_state", "resolve_state"),
    ("detector", "classify_corpus", "classify_corpus"),
    ("detector", "train_baseline", "train_baseline"),
    ("detector", "evaluate", "evaluate"),
    ("detector", "BaselineModel.from_json", None),
    ("detector", "BaselineModel.to_json", None),
    ("series", "load_series_csv", "load_series_csv"),
    ("series", "decompose_additive", "transform"),
    ("series", "deseasonalize", "transform"),
    ("series", "difference", "transform"),
    ("series", "write_series_csv", "write"),
    ("series", "write_decomposition_csv", "write"),
    ("stattests", "adf_test", None),
    ("stattests", "ljung_box", None),
    ("stattests", "durbin_watson", None),
    ("stattests", "hausman_test", None),
    ("stattests", "levene_test", None),
    ("stattests", "paired_t_test", None),
    ("stattests", "cohens_kappa", None),
    ("arima", "fit_arima", "fit_arima"),
    ("arima", "select_orders", "select_orders"),
    ("arima", "suggest_orders_acf", None),
    ("arima", "forecast_arima", None),
    ("arima", "fit_summary", None),
    ("regression", "build_model_spec", None),
    ("regression", "Dataset.from_csv", "dataset"),
    ("regression", "Dataset.align", "dataset"),
    ("regression", "Dataset.window", "dataset"),
    ("regression", "fit_ols", "fit_ols"),
    ("regression", "forecast_regression", "forecast_regression"),
    ("panel", "PanelDataset.from_csv", "load"),
    ("panel", "PanelDataset.from_rows", "load"),
    ("panel", "balance_panel", "balance"),
    ("panel", "PanelDataset.restricted", "balance"),
    ("panel", "fit_fixed_effects", "fit_fixed_effects"),
    ("panel", "fit_random_effects", "fit_random_effects"),
    ("panel", "forecast_panel", "forecast_panel"),
    ("evaluation", "rmse", None),
    ("evaluation", "mape", None),
    ("evaluation", "compare_models", None),
    ("evaluation", "ForecastReport.write_json", None),
    ("evaluation", "ForecastReport.write_long_csv", None),
)
LAYERS = ("cli", "signals", "geo", "detector", "series", "stattests", "arima", "regression", "panel", "evaluation")
GROUPS = {f"{module}.{attr.split('.')[-1]}": group for module, attr, group in TARGETS}

# Per-layer metrics and units, in the order they are reported. `s` metrics
# are self time per pass; counts are per pass; ratios are per pass.
METRICS = (
    ("cli.import_s", "s"), ("cli.self_s", "s"), ("cli.startup_s", "s"), ("cli.commands", "count"),
    ("signals.s", "s"), ("signals.load_articles.s", "s"), ("signals.load_articles.calls", "count"),
    ("signals.records_loaded", "count"), ("signals.aggregate.s", "s"), ("signals.write.s", "s"),
    ("geo.s", "s"), ("geo.resolve_state.s", "s"), ("geo.resolve_state.calls", "count"),
    ("geo.resolve_state.us_per_call", "us"), ("geo.resolved_ratio", "1"), ("geo.load_gazetteer.s", "s"),
    ("detector.s", "s"), ("detector.classify_corpus.s", "s"), ("detector.records_classified", "count"),
    ("detector.positive_ratio", "1"), ("detector.train_baseline.s", "s"), ("detector.evaluate.s", "s"),
    ("series.s", "s"), ("series.load_series_csv.s", "s"), ("series.transform.s", "s"), ("series.write.s", "s"),
    ("stattests.s", "s"), ("stattests.calls", "count"),
    ("arima.s", "s"), ("arima.fit_arima.s", "s"), ("arima.fit_arima.calls", "count"),
    ("arima.select_orders.s", "s"), ("arima.converged_ratio", "1"),
    ("regression.s", "s"), ("regression.fit_ols.s", "s"), ("regression.forecast_regression.s", "s"),
    ("regression.dataset.s", "s"),
    ("panel.s", "s"), ("panel.load.s", "s"), ("panel.balance.s", "s"), ("panel.fit_fixed_effects.s", "s"),
    ("panel.fit_random_effects.s", "s"), ("panel.forecast_panel.s", "s"), ("panel.re_sigma2u_truncated", "count"),
    ("evaluation.s", "s"),
) + tuple((f"{layer}.errors", "count") for layer in LAYERS) + (
    ("trace.overhead_ratio", "1"), ("trace.accounted_ratio", "1"),
)
COUNT_METRICS = tuple(name for name, unit in METRICS if unit == "count")


class Tracer:
    """In-memory span store plus the wrappers that fill it."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: dict[tuple[int, str], float] = defaultdict(float)
        self.pass_id = 0
        self.warning_registry: dict = {}
        self._stack: list[int] = []
        self._installed: list[tuple[object, str, object]] = []

    def _open(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, self.pass_id, 0])
        self._stack.append(index)
        return index

    def _close(self, index: int, error: bool) -> None:
        span = self.spans[index]
        span[2] = time.perf_counter()
        span[5] = int(error)
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        index = self._open(name)
        error = True
        try:
            yield
            error = False
        finally:
            self._close(index, error)

    def count(self, key: str, n: float = 1) -> None:
        self.counts[(self.pass_id, key)] += n

    def wrap(self, name: str, fn):
        hook = _HOOKS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = self._open(name)
            error = True
            try:
                result = fn(*args, **kwargs) if hook is None else hook(self, fn, args, kwargs)
                error = False
                return result
            finally:
                self._close(index, error)

        return traced

    def install(self) -> None:
        """Wrap every target; call after `import crimecast.cli`."""
        package = [m for n, m in sorted(sys.modules.items()) if n == "crimecast" or n.startswith("crimecast.")]
        for module_name, attr, _ in TARGETS:
            module = importlib.import_module(f"crimecast.{module_name}")
            name = f"{module_name}.{attr.split('.')[-1]}"
            if "." in attr:
                cls_name, method = attr.split(".")
                cls = getattr(module, cls_name)
                raw = cls.__dict__[method]
                if isinstance(raw, classmethod):
                    replacement = classmethod(self.wrap(name, raw.__func__))
                else:
                    replacement = self.wrap(name, raw)
                self._installed.append((cls, method, raw))
                setattr(cls, method, replacement)
                continue
            original = getattr(module, attr)
            wrapper = self.wrap(name, original)
            for owner in package:
                for key, value in list(vars(owner).items()):
                    if value is original:
                        self._installed.append((owner, key, original))
                        setattr(owner, key, wrapper)

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._installed):
            setattr(owner, key, original)
        self._installed.clear()

    def dump(self) -> dict:
        return {"spans": self.spans, "counts": [[p, k, v] for (p, k), v in self.counts.items()]}


def _hook_load_articles(tracer, fn, args, kwargs):
    result = fn(*args, **kwargs)
    tracer.count("signals.records_loaded", len(result))
    return result


def _hook_resolve_state(tracer, fn, args, kwargs):
    result = fn(*args, **kwargs)
    if result.state != "UNKNOWN":
        tracer.count("geo.resolved")
    return result


def _hook_classify_corpus(tracer, fn, args, kwargs):
    labeled, scores = fn(*args, **kwargs)
    tracer.count("detector.records_classified", len(labeled))
    tracer.count("detector.positives", sum(1 for r in labeled if r.predicted_label == "hate_crime"))
    return labeled, scores


def _hook_fit_arima(tracer, fn, args, kwargs):
    result = fn(*args, **kwargs)
    tracer.count("arima.converged", int(bool(result.converged)))
    return result


def _hook_fit_random_effects(tracer, fn, args, kwargs):
    # Count the sigma2_u truncation warnings, then hand each caught warning
    # back to the warnings machinery, which shows it once per location as
    # it would have without the catch.
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.count("panel.re_sigma2u_truncated",
                         sum(1 for w in caught if "sigma2_u" in str(w.message)))
    for w in caught:
        warnings.warn_explicit(w.message, w.category, w.filename, w.lineno, registry=tracer.warning_registry)
    return result


_HOOKS = {
    "signals.load_articles": _hook_load_articles,
    "geo.resolve_state": _hook_resolve_state,
    "detector.classify_corpus": _hook_classify_corpus,
    "arima.fit_arima": _hook_fit_arima,
    "panel.fit_random_effects": _hook_fit_random_effects,
}


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    own = [end - start for _, start, end, *_ in spans]
    for name, start, end, parent, *_ in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def layer_metrics(spans: list[list], counts: dict[str, float], pass_wall: float) -> dict[str, float]:
    """Per-layer metrics of one pass from its spans and counters.

    `spans` use parent indices into the same list. `cli.*` spans are the
    benchmark's root spans: `cli.process` (a whole child process on cold
    workloads), `cli.import` and `cli.main`.
    """
    own = self_times(spans)
    by_name: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    errors: dict[str, int] = defaultdict(int)
    for span, self_s in zip(spans, own):
        name = span[0]
        by_name[name] += self_s
        calls[name] += 1
        errors[name.split(".")[0]] += span[5]

    def total(prefix: str = "", group: str | None = None) -> float:
        return sum(v for n, v in by_name.items()
                   if n.startswith(prefix) and (group is None or GROUPS.get(n) == group))

    m: dict[str, float] = {
        "cli.self_s": by_name["cli.main"],
        "cli.startup_s": by_name["cli.process"],
        "cli.commands": calls["cli.main"],
    }
    for layer in LAYERS[1:]:
        m[f"{layer}.s"] = total(layer + ".")
    for name, unit in METRICS:
        parts = name.split(".")
        if len(parts) == 3 and parts[2] == "s" and parts[0] in LAYERS[1:]:
            m[name] = total(parts[0] + ".", parts[1])
    resolve_calls = calls["geo.resolve_state"]
    fits = calls["arima.fit_arima"]
    classified = counts.get("detector.records_classified", 0)
    m.update({
        "signals.load_articles.calls": calls["signals.load_articles"],
        "signals.records_loaded": counts.get("signals.records_loaded", 0),
        "geo.resolve_state.calls": resolve_calls,
        "geo.resolve_state.us_per_call": 1e6 * by_name["geo.resolve_state"] / resolve_calls if resolve_calls else 0.0,
        "geo.resolved_ratio": counts.get("geo.resolved", 0) / resolve_calls if resolve_calls else 0.0,
        "detector.records_classified": classified,
        "detector.positive_ratio": counts.get("detector.positives", 0) / classified if classified else 0.0,
        "stattests.calls": sum(c for n, c in calls.items() if n.startswith("stattests.")),
        "arima.fit_arima.calls": fits,
        "arima.converged_ratio": counts.get("arima.converged", 0) / fits if fits else 0.0,
        "panel.re_sigma2u_truncated": counts.get("panel.re_sigma2u_truncated", 0),
        "trace.accounted_ratio": sum(own) / pass_wall,
    })
    for layer in LAYERS:
        m[f"{layer}.errors"] = errors[layer]
    return m


def median_metrics(per_pass: list[dict[str, float]]) -> tuple[dict[str, float], list[str]]:
    """Median of each metric over passes, and the counts that did not repeat."""
    merged = {name: statistics.median(p[name] for p in per_pass) for name in per_pass[0]}
    unstable = [name for name in COUNT_METRICS if name in merged and len({p[name] for p in per_pass}) > 1]
    return merged, unstable
