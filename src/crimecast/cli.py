"""Batch command-line driver for the full pipeline and its stages.

Subcommands: detect, signals, decompose, diagnose, fit-forecast,
evaluate-detector. Configuration comes from a single JSON file with a few
flag overrides; every command is deterministic given the config and seed.
Exit codes: 0 success, 1 model/estimation failure, 2 input/config error.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Sequence

from . import detector as detector_mod
from . import evaluation, geo, signals as signals_mod, stattests
from .arima import ArimaSpec, fit_arima, fit_summary, forecast_arima, select_orders, suggest_orders_acf
from .evaluation import ModelEntry, compare_models
from .exceptions import CrimecastError
from .panel import PanelDataset, balance_panel, fit_fixed_effects, fit_random_effects, forecast_panel
from .regression import Dataset, build_model_spec, fit_ols, forecast_regression
from .reporting import write_json
from .series import (
    MISSING,
    Quarter,
    TimeSeries,
    decompose_additive,
    deseasonalize,
    difference,
    load_series_csv,
    write_decomposition_csv,
    write_series_csv,
)

EXIT_OK = 0
EXIT_MODEL_ERROR = 1
EXIT_INPUT_ERROR = 2

NATIONAL_MODELS = (1, 2, 3, 4, 5)
PANEL_MODELS = (6, 7)


class UsageError(CrimecastError):
    """Configuration or input problem; maps to exit code 2."""


@dataclass(frozen=True)
class PipelineConfig:
    output_dir: Path
    seed: int = 0
    articles: Path | None = None
    gazetteer: Path | None = None
    covariates: Path | None = None
    fbi_series: Path | None = None
    panel: Path | None = None
    fit_start: Quarter = Quarter(2007, 1)
    fit_end: Quarter = Quarter(2018, 4)
    holdout_start: Quarter = Quarter(2019, 1)
    holdout_end: Quarter = Quarter(2019, 4)
    models: tuple[int, ...] = (1, 2, 3, 4, 5)
    arima_order: str | tuple[int, int, int] = "drift"
    arima_max_p: int = 2
    arima_max_q: int = 2
    detector_source: str = "precomputed"
    detector_model: Path | None = None
    detector_train: Path | None = None
    decomposition_period: int = 4
    panel_dependent: str = "fbi_num"
    panel_min_coverage: float = 1.0
    # Optional [variable, lag] lists replacing the default Model 2/4 terms.
    panel_terms_model6: tuple[tuple[str, int], ...] | None = None
    panel_terms_model7: tuple[tuple[str, int], ...] | None = None
    diagnose_lags: int = 10

    def __post_init__(self) -> None:
        if self.holdout_start <= self.fit_end:
            raise UsageError("holdout range must start after the fit range ends")
        if self.fit_end < self.fit_start or self.holdout_end < self.holdout_start:
            raise UsageError("fit and holdout ranges must be nonempty")
        unknown = [m for m in self.models if m not in NATIONAL_MODELS + PANEL_MODELS]
        if unknown:
            raise UsageError(f"unknown model ids {unknown}; expected 1..7")
        if self.detector_source not in ("precomputed", "baseline"):
            raise UsageError("detector source must be 'precomputed' or 'baseline'")


def _parse_quarter(value: str) -> Quarter:
    try:
        return Quarter.parse(value)
    except CrimecastError as exc:
        raise UsageError(str(exc)) from exc


def load_config(path: str | Path, overrides: dict | None = None) -> PipelineConfig:
    """Read the JSON config; relative paths resolve against the config file."""
    path = Path(path)
    try:
        raw = json.loads(path.read_text())
    except OSError as exc:
        raise UsageError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise UsageError(f"config {path} is not valid JSON: {exc}") from exc
    if overrides:
        raw.update({k: v for k, v in overrides.items() if v is not None})
    base = path.parent

    def path_of(key: str) -> Path | None:
        value = raw.get(key)
        return None if value is None else (base / str(value)).resolve()

    def quarter_of(key: str, default: Quarter) -> Quarter:
        value = raw.get(key)
        return default if value is None else _parse_quarter(str(value))

    models_raw = raw.get("models", list(NATIONAL_MODELS))
    if isinstance(models_raw, str):
        models_raw = [m for m in models_raw.replace(",", " ").split() if m]
    try:
        models = tuple(int(m) for m in models_raw)
    except (TypeError, ValueError) as exc:
        raise UsageError(f"models must be a list of integers, got {models_raw!r}") from exc

    def terms_of(key: str) -> tuple[tuple[str, int], ...] | None:
        value = raw.get(key)
        if value is None:
            return None
        try:
            return tuple((str(name), int(k)) for name, k in value)
        except (TypeError, ValueError) as exc:
            raise UsageError(f"{key} must be a list of [variable, lag] pairs") from exc

    order_raw = raw.get("arima_order", "drift")
    if isinstance(order_raw, (list, tuple)):
        if len(order_raw) != 3:
            raise UsageError("arima_order list must be [p, d, q]")
        order: str | tuple[int, int, int] = tuple(int(v) for v in order_raw)
    else:
        order = str(order_raw)
        if order not in ("drift", "ar1", "auto"):
            raise UsageError("arima_order must be 'drift', 'ar1', 'auto', or [p, d, q]")

    output_dir = raw.get("output_dir", "out")
    try:
        return PipelineConfig(
            output_dir=(base / str(output_dir)).resolve(),
            seed=int(raw.get("seed", 0)),
            articles=path_of("articles"),
            gazetteer=path_of("gazetteer"),
            covariates=path_of("covariates"),
            fbi_series=path_of("fbi_series"),
            panel=path_of("panel"),
            fit_start=quarter_of("fit_start", Quarter(2007, 1)),
            fit_end=quarter_of("fit_end", Quarter(2018, 4)),
            holdout_start=quarter_of("holdout_start", Quarter(2019, 1)),
            holdout_end=quarter_of("holdout_end", Quarter(2019, 4)),
            models=models,
            arima_order=order,
            arima_max_p=int(raw.get("arima_max_p", 2)),
            arima_max_q=int(raw.get("arima_max_q", 2)),
            detector_source=str(raw.get("detector_source", "precomputed")),
            detector_model=path_of("detector_model"),
            detector_train=path_of("detector_train"),
            decomposition_period=int(raw.get("decomposition_period", 4)),
            panel_dependent=str(raw.get("panel_dependent", "fbi_num")),
            panel_min_coverage=float(raw.get("panel_min_coverage", 1.0)),
            panel_terms_model6=terms_of("panel_terms_model6"),
            panel_terms_model7=terms_of("panel_terms_model7"),
            diagnose_lags=int(raw.get("diagnose_lags", 10)),
        )
    except (TypeError, ValueError) as exc:
        raise UsageError(f"bad config value: {exc}") from exc


def _require(path: Path | None, what: str) -> Path:
    if path is None:
        raise UsageError(f"config is missing the {what} path")
    if not path.exists():
        raise UsageError(f"{what} file not found: {path}")
    return path


def _load_articles(config: PipelineConfig) -> list[signals_mod.ArticleRecord]:
    path = _require(config.articles, "articles")
    try:
        return signals_mod.load_articles(path)
    except CrimecastError as exc:
        raise UsageError(str(exc)) from exc


def _labeled_articles(config: PipelineConfig) -> tuple[list[signals_mod.ArticleRecord], dict[str, float]]:
    """Articles with predicted labels, from the configured detector source."""
    records = _load_articles(config)
    if config.detector_source == "precomputed":
        missing = [r.id for r in records if r.predicted_label is None]
        if missing:
            raise UsageError(
                f"precomputed labels requested but {len(missing)} records lack predicted_label "
                f"(first: {missing[0]!r})"
            )
        return records, {}
    model_path = config.detector_model
    if model_path is None:
        raise UsageError("detector source 'baseline' needs a detector_model path")
    if not model_path.exists():
        if config.detector_train is None:
            raise UsageError(f"detector model not found: {model_path}")
        train_path = _require(config.detector_train, "detector training corpus")
        try:
            corpus = signals_mod.load_articles(train_path)
        except CrimecastError as exc:
            raise UsageError(str(exc)) from exc
        model = detector_mod.train_baseline(corpus, seed=config.seed)
        model.to_json(model_path)
    else:
        model = detector_mod.BaselineModel.from_json(model_path)
    labeled, scores = detector_mod.classify_corpus(model, records)
    return labeled, scores


def _resolved_articles(
    config: PipelineConfig, records: list[signals_mod.ArticleRecord]
) -> list[signals_mod.ArticleRecord]:
    """Fill in missing state fields through the gazetteer (the bundled
    mini-gazetteer when none is configured)."""
    if all(r.state is not None for r in records):
        return records
    if config.gazetteer is None:
        path = geo.bundled_gazetteer_path()
    else:
        path = _require(config.gazetteer, "gazetteer")
    try:
        gaz = geo.load_gazetteer(path)
    except CrimecastError as exc:
        raise UsageError(str(exc)) from exc
    out = []
    for record in records:
        if record.state is not None:
            out.append(record)
        else:
            resolution = geo.resolve_state(record.text(), gaz)
            out.append(signals_mod.with_state(record, resolution.state))
    return out


def _test_dict(result: stattests.TestResult) -> dict:
    return {
        "statistic": result.statistic,
        "p_value": result.p_value,
        "dof_or_lags": result.dof_or_lags,
        "detail": result.detail,
    }


def cmd_detect(config: PipelineConfig) -> None:
    labeled, scores = _labeled_articles(config)
    out = config.output_dir
    out.mkdir(parents=True, exist_ok=True)
    signals_mod.write_articles(labeled, out / "articles_labeled.jsonl")
    positives = sum(1 for r in labeled if r.predicted_label == signals_mod.LABEL_POSITIVE)
    summary = {
        "source": config.detector_source,
        "total": len(labeled),
        "hate_crime": positives,
        "not_hate_crime": len(labeled) - positives,
    }
    write_json(summary, out / "detection_summary.json")
    print(f"detect: labeled {len(labeled)} articles ({positives} hate_crime)")


def cmd_signals(config: PipelineConfig) -> None:
    labeled, _ = _labeled_articles(config)
    out = config.output_dir
    out.mkdir(parents=True, exist_ok=True)
    span = (config.fit_start, config.holdout_end)
    if not labeled:
        empty = signals_mod.QuarterlySignals(span[0], (), (), ())
        signals_mod.write_signals_csv(empty, out / "signals_national.csv")
        signals_mod.write_state_signals_csv(signals_mod.StateSignals(empty, {}, 0.0), out / "signals_by_state.csv")
        print("signals: no records; wrote header-only CSVs")
        return
    resolved = _resolved_articles(config, labeled)
    state_signals = signals_mod.aggregate_by_state(resolved, span)
    signals_mod.write_signals_csv(state_signals.national, out / "signals_national.csv")
    signals_mod.write_state_signals_csv(state_signals, out / "signals_by_state.csv")
    print(
        f"signals: {len(state_signals.by_state)} states, "
        f"unknown share {state_signals.unknown_share:.4f}"
    )


def _load_dependent(config: PipelineConfig) -> tuple[TimeSeries, TimeSeries, object]:
    """Load the national series and return (observed, deseasonalized, decomposition)."""
    fbi_path = _require(config.fbi_series, "fbi_series")
    try:
        observed = load_series_csv(fbi_path, name="fbi_num")
    except CrimecastError as exc:
        raise UsageError(str(exc)) from exc
    decomp = decompose_additive(observed, config.decomposition_period)
    deseasonalized = deseasonalize(observed, decomp)
    return observed, deseasonalized, decomp


def cmd_decompose(config: PipelineConfig) -> None:
    observed, deseasonalized, decomp = _load_dependent(config)
    out = config.output_dir
    out.mkdir(parents=True, exist_ok=True)
    write_series_csv(observed, out / "fbi_quarterly.csv")
    write_decomposition_csv(observed, decomp, out / "decomposition.csv")
    write_series_csv(deseasonalized, out / "fbi_num_noseasonnal.csv")
    print(f"decompose: period {config.decomposition_period}, {len(observed)} quarters")


def cmd_diagnose(config: PipelineConfig) -> None:
    observed, deseasonalized, decomp = _load_dependent(config)
    differenced = difference(deseasonalized, 1)
    irregular = decomp.irregular
    irregular_core = irregular.window(irregular.defined_start, irregular.defined_end)
    max_lag = max(min(config.diagnose_lags, len(observed) - 12), 0)
    lags = min(config.diagnose_lags, len(irregular_core) - 2)
    suggestion = suggest_orders_acf(differenced, config.arima_max_p, config.arima_max_q)
    model1 = fit_arima(deseasonalized, _model1_spec(config, deseasonalized))
    payload = {
        "adf": {
            "fbi_num": _test_dict(stattests.adf_test(observed, max_lag, "constant")),
            "fbi_num_noseasonnal": _test_dict(stattests.adf_test(deseasonalized, max_lag, "constant")),
            "d_fbi_num_noseasonnal": _test_dict(stattests.adf_test(differenced, max_lag, "constant")),
        },
        "ljung_box_irregular": _test_dict(stattests.ljung_box(irregular_core, lags)),
        "acf_pacf_order_suggestion": {"p": suggestion[0], "q": suggestion[1]},
        "model1_residual_durbin_watson": stattests.durbin_watson(model1.residuals.values),
    }
    out = config.output_dir
    out.mkdir(parents=True, exist_ok=True)
    write_json(payload, out / "diagnostics.json")
    print("diagnose: wrote diagnostics.json")


def _model1_spec(config: PipelineConfig, fit_series: TimeSeries) -> ArimaSpec:
    order = config.arima_order
    if order == "drift":
        return ArimaSpec(0, 1, 0, include_constant=True)
    if order == "ar1":
        return ArimaSpec(1, 0, 0, include_constant=True)
    if order == "auto":
        selected = select_orders(difference(fit_series, 1), config.arima_max_p, config.arima_max_q)
        return ArimaSpec(selected.p, 1, selected.q, include_constant=True)
    p, d, q = order  # explicit [p, d, q]
    return ArimaSpec(p, d, q, include_constant=True)


def _mask_after(series: TimeSeries, last: Quarter) -> TimeSeries:
    """Replace values after `last` with missing markers (trailing edge)."""
    cut = last - series.start + 1
    if cut >= len(series):
        return series
    values = series.values[:cut] + (MISSING,) * (len(series) - cut)
    return TimeSeries(series.name, series.start, values)


def _national_report(
    config: PipelineConfig, labeled: list[signals_mod.ArticleRecord]
) -> evaluation.ForecastReport:
    requested = sorted(m for m in config.models if m in NATIONAL_MODELS)
    observed, deseasonalized, decomp = _load_dependent(config)
    span_start, span_end = config.fit_start, config.holdout_end
    if deseasonalized.start > span_start or deseasonalized.end < span_end:
        raise UsageError(
            f"fbi series covers {deseasonalized.start}..{deseasonalized.end}, "
            f"need {span_start}..{span_end}"
        )
    dependent = deseasonalized.window(span_start, span_end)
    fit_series = dependent.window(config.fit_start, config.fit_end)
    actual = dependent.window(config.holdout_start, config.holdout_end)
    horizon = len(actual)

    out = config.output_dir
    out.mkdir(parents=True, exist_ok=True)
    write_series_csv(observed, out / "fbi_quarterly.csv")
    write_decomposition_csv(observed, decomp, out / "decomposition.csv")

    entries: list[ModelEntry] = []
    regression_models = [m for m in requested if m >= 2]
    if regression_models:
        cov_path = _require(config.covariates, "covariates")
        try:
            covariates = Dataset.from_csv(cov_path)
        except CrimecastError as exc:
            raise UsageError(str(exc)) from exc
        series_pool = [dependent] + list(covariates.series)
        if any(m in (3, 4, 5) for m in regression_models):
            national = signals_mod.aggregate_quarterly(labeled, (span_start, span_end))
            series_pool += [national.news_series(), national.events_series(), national.index_series()]
        full = Dataset.align(series_pool)
        if full.start > span_start or full.end < span_end:
            raise UsageError(
                f"covariates cover {full.start}..{full.end}, need {span_start}..{span_end}"
            )
        full = full.window(span_start, span_end)
        fit_data = full.window(config.fit_start, config.fit_end)
        forecast_data = Dataset(
            tuple(
                _mask_after(ts, config.fit_end) if ts.name == dependent.name else ts
                for ts in full.series
            )
        )

    for model_id in requested:
        if model_id == 1:
            spec = _model1_spec(config, fit_series)
            fit = fit_arima(fit_series, spec)
            write_json(fit_summary(fit), out / "arima_model1.json")
            forecast = forecast_arima(fit, fit_series, horizon, mode="dynamic")
            entries.append(ModelEntry("Model 1", fit.adj_r_squared, fit.log_likelihood, forecast))
        else:
            spec = build_model_spec(model_id)
            fit = fit_ols(fit_data, spec)
            forecast = forecast_regression(fit, forecast_data, (config.holdout_start, config.holdout_end))
            entries.append(ModelEntry(f"Model {model_id}", fit.adj_r_squared, fit.log_likelihood, forecast))

    report = compare_models(entries, actual)
    report.write_json(out / "report.json")
    report.write_long_csv(out / "predictions_long.csv")
    return report


def _panel_report(config: PipelineConfig, labeled: list[signals_mod.ArticleRecord]) -> dict:
    requested = sorted(m for m in config.models if m in PANEL_MODELS)
    panel_path = _require(config.panel, "panel")
    try:
        panel = PanelDataset.from_csv(panel_path)
    except CrimecastError as exc:
        raise UsageError(str(exc)) from exc

    resolved = _resolved_articles(config, labeled)
    span = (config.fit_start, config.holdout_end)
    state_signals = signals_mod.aggregate_by_state(resolved, span)

    # Join the per-state quarterly signals onto the panel rows; a state
    # without signals in a quarter gets zeros.
    by_state = state_signals.by_state.items()
    panel = panel.with_unit_series(
        {
            "news_num": {state: sig.news_series() for state, sig in by_state},
            "event_detected_num": {state: sig.events_series() for state, sig in by_state},
            "hate_reported_index": {state: sig.index_series() for state, sig in by_state},
        }
    )

    balanced, balance_report = balance_panel(
        panel, config.panel_min_coverage, span=span, dependent=config.panel_dependent
    )
    fit_panel = balanced.restricted(balanced.units(), (config.fit_start, config.fit_end))
    holdout_span = (config.holdout_start, config.holdout_end)

    model_rows = []
    hausman_results = {}
    prediction_stacks: dict[int, list[float]] = {}
    actual_stack: list[float] = []
    for model_id in requested:
        spec = replace(build_model_spec(2 if model_id == 6 else 4), dependent=config.panel_dependent)
        override = config.panel_terms_model6 if model_id == 6 else config.panel_terms_model7
        if override is not None:
            spec = replace(spec, terms=override)
        fe = fit_fixed_effects(fit_panel, spec)
        try:
            re = fit_random_effects(fit_panel, spec)
            hausman = stattests.hausman_test(
                fe.slopes, fe.slope_cov, re.slopes, re.slope_cov
            )
            hausman_results[model_id] = _test_dict(hausman) | {
                "decision": "fixed" if hausman.p_value < 0.05 else "random"
            }
        except CrimecastError as exc:
            hausman_results[model_id] = {"error": str(exc)}
        forecasts = forecast_panel(fe, balanced, holdout_span)
        preds: list[float] = []
        actuals: list[float] = []
        for unit in balanced.units():
            fc = forecasts[unit]
            for h, q in enumerate(fc.quarters()):
                preds.append(fc.point_values[h])
                actuals.append(balanced.value(unit, q, config.panel_dependent))
        prediction_stacks[model_id] = preds
        if not actual_stack:
            actual_stack = actuals
        model_rows.append(
            {
                "Models": f"Model {model_id}",
                "R-Squared": fe.overall_r_squared,
                "Log Likelihood": fe.log_likelihood,
                "RMSE": evaluation.rmse(actuals, preds),
                "MAPE": evaluation.mape(actuals, preds),
            }
        )

    payload: dict = {
        "holdout": {"start": str(config.holdout_start), "end": str(config.holdout_end)},
        "balance": {
            "dropped": list(balance_report.dropped),
            "retained_units": len(balance_report.retained),
            "retained_share": balance_report.retained_share,
        },
        "unknown_state_share": state_signals.unknown_share,
        "models": model_rows,
        "hausman": {f"Model {mid}": hausman_results[mid] for mid in requested},
    }
    if len(requested) == 2:
        a, b = (prediction_stacks[m] for m in requested)
        payload["levene"] = _test_dict(stattests.levene_test(a, b))
        payload["paired_t"] = _test_dict(stattests.paired_t_test(a, b))
        payload["means"] = {
            "actual": sum(actual_stack) / len(actual_stack),
            f"Model {requested[0]}": sum(a) / len(a),
            f"Model {requested[1]}": sum(b) / len(b),
        }
    out = config.output_dir
    out.mkdir(parents=True, exist_ok=True)
    write_json(payload, out / "panel_report.json")
    return payload


def cmd_fit_forecast(config: PipelineConfig) -> None:
    national_requested = [m for m in config.models if m in NATIONAL_MODELS]
    panel_requested = [m for m in config.models if m in PANEL_MODELS]
    if not national_requested and not panel_requested:
        raise UsageError("no models requested")
    # Articles are loaded and labeled once, for both reports.
    labeled: list[signals_mod.ArticleRecord] = []
    if panel_requested or any(m in (3, 4, 5) for m in national_requested):
        labeled, _ = _labeled_articles(config)
    if national_requested:
        report = _national_report(config, labeled)
        print(f"fit-forecast: wrote report.json with {len(report.rows)} national model rows")
    if panel_requested:
        payload = _panel_report(config, labeled)
        print(f"fit-forecast: wrote panel_report.json with {len(payload['models'])} panel model rows")


def cmd_evaluate_detector(config: PipelineConfig) -> None:
    records = _load_articles(config)
    gold = [r for r in records if r.gold_label is not None]
    if not gold:
        raise UsageError("no records carry gold labels")
    missing = [r.id for r in gold if r.predicted_label is None]
    if missing:
        raise UsageError(f"{len(missing)} gold-labeled records lack predictions (first: {missing[0]!r})")
    metrics = detector_mod.evaluate(gold, gold)
    payload = {
        "Precision": metrics.precision,
        "Recall": metrics.recall,
        "F1": metrics.f1,
        "counts": {
            "tp": metrics.counts.tp,
            "fp": metrics.counts.fp,
            "tn": metrics.counts.tn,
            "fn": metrics.counts.fn,
        },
    }
    out = config.output_dir
    out.mkdir(parents=True, exist_ok=True)
    write_json(payload, out / "detector_metrics.json")
    print(f"evaluate-detector: P={metrics.precision:.4f} R={metrics.recall:.4f} F1={metrics.f1:.4f}")


_COMMANDS = {
    "detect": cmd_detect,
    "signals": cmd_signals,
    "decompose": cmd_decompose,
    "diagnose": cmd_diagnose,
    "fit-forecast": cmd_fit_forecast,
    "evaluate-detector": cmd_evaluate_detector,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="crimecast",
        description="Quarterly crime-trend forecasting with news-derived event signals.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        cmd = sub.add_parser(name)
        cmd.add_argument("--config", required=True, help="path to the JSON pipeline config")
        cmd.add_argument("--output-dir", default=None, help="override the output directory")
        cmd.add_argument("--seed", type=int, default=None, help="override the config seed")
        cmd.add_argument("--models", default=None, help="comma-separated model ids, e.g. 1,2,4")
        cmd.add_argument("--articles", default=None)
        cmd.add_argument("--fbi-series", dest="fbi_series", default=None)
        cmd.add_argument("--covariates", default=None)
        cmd.add_argument("--panel", default=None)
        cmd.add_argument("--gazetteer", default=None)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)

    def absolute(value: str | None) -> str | None:
        # Flag paths resolve against the working directory, config-file paths
        # against the config's own directory.
        return None if value is None else str(Path(value).resolve())

    overrides = {
        "output_dir": absolute(args.output_dir),
        "seed": args.seed,
        "models": args.models,
        "articles": absolute(args.articles),
        "fbi_series": absolute(args.fbi_series),
        "covariates": absolute(args.covariates),
        "panel": absolute(args.panel),
        "gazetteer": absolute(args.gazetteer),
    }
    try:
        config = load_config(args.config, overrides)
        _COMMANDS[args.command](config)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    except CrimecastError as exc:
        print(f"model error: {exc}", file=sys.stderr)
        return EXIT_MODEL_ERROR
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
