"""The stages of the pipeline and the six commands that run them.

Each command runs the stages it needs, in order: load → label → resolve →
aggregate → fit → report; the statistics live in the library modules. A
stage raises UsageError on an input problem, which `cli` maps to exit 2.
"""

from __future__ import annotations

import os
import shutil
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Iterator

import numpy as np

from . import detector as detector_mod
from . import evaluation, geo, signals as signals_mod, stattests
from .arima import ArimaSpec, fit_arima, fit_summary, forecast_arima, select_orders, suggest_orders_acf
from .evaluation import ForecastReport, compare_models, score_model
from .exceptions import CrimecastError, EmptyPanelError, InvalidArgumentError, UsageError
from .panel import PanelDataset, balance_panel, fit_fixed_effects, fit_random_effects, forecast_panel, within
from .regression import DEPENDENT_NAME, PANEL_DEPENDENT, Dataset, build_model_spec, fit_ols, forecast_regression
from .reporting import write_json
from .series import (
    SEASONAL_PERIOD,
    Quarter,
    decompose_additive,
    deseasonalize,
    difference,
    load_series_csv,
    write_decomposition_csv,
    write_series_csv,
)

if TYPE_CHECKING:
    from .cli import PipelineConfig

NATIONAL_MODELS = (1, 2, 3, 4, 5)
EVENT_MODELS = (3, 4, 5)
PANEL_MODELS = (6, 7)
# Model 1 readings of `arima_order` other than an explicit [p, d, q]; "auto"
# searches (p, q) with d = 1.
ARIMA_READINGS = {"drift": (0, 1, 0), "ar1": (1, 0, 0), "auto": None}
DIAGNOSE_LAGS = 10
# The fewest bytes of an article file that the corpus pass gives a forked
# worker: below this, the fork and the merge cost more than the range saves.
_MIN_RANGE_BYTES = 1 << 20


# ------------------------------------------------------------------ stages


def _input(path: Path | None, what: str) -> Path:
    """`path` of a required input file; a missing one is an input error."""
    if path is None:
        raise UsageError(f"config is missing the {what} path")
    if not path.exists():
        raise UsageError(f"{what} file not found: {path}")
    return path


def _load(loader, path: Path | None, what: str, **kwargs):
    """`loader(path)` for a required input file; input problems exit 2."""
    try:
        return loader(_input(path, what), **kwargs)
    except CrimecastError as exc:
        raise UsageError(str(exc)) from exc
    except OSError as exc:  # a directory, say
        raise UsageError(f"cannot read {what} {path}: {exc}") from exc


def _detector(config: PipelineConfig) -> detector_mod.BaselineModel:
    """The baseline detector, trained and saved first when its model file is
    missing and a training corpus is configured."""
    path = config.detector_model
    if path is not None and not path.exists() and config.detector_train is not None:
        corpus = _load(signals_mod.load_articles, config.detector_train, "detector_train")
        model = detector_mod.train_baseline(corpus, seed=config.seed)
        model.to_json(path)
        return model
    return _load(detector_mod.BaselineModel.from_json, path, "detector_model")


def _articles(path: Path, start: int, end: int | None) -> Iterator[signals_mod.Corpus]:
    """`read_articles` chunks; a fault in the file is a UsageError when its chunk is read."""
    try:
        yield from signals_mod.read_articles(path, start, end)
    except CrimecastError as exc:
        raise UsageError(str(exc)) from exc
    except OSError as exc:  # a directory, say
        raise UsageError(f"cannot read articles {path}: {exc}") from exc


def _labeled(
    config: PipelineConfig,
    chunks: Iterator[signals_mod.Corpus],
    model: detector_mod.BaselineModel | None,
    resolve: bool,
) -> Iterator[signals_mod.Corpus]:
    """The article chunks labeled by `model`, or by their precomputed labels
    without one; with `resolve`, missing states come from the gazetteer (by
    default the bundled one). A fault of this stage (missing labels, the
    gazetteer, a blank text, in that order) is held until the chunks have
    been read without a fault."""
    missing, first, gaz, fault = 0, None, None, None
    vocabulary = model.vocabulary if model is not None else {}
    index = geo.token_index(vocabulary, None)  # the pass's token ids, built again with the gazetteer
    for chunk in chunks:
        if model is None and None in chunk.predicted:
            missing += chunk.predicted.count(None)
            first = first or chunk.ids[chunk.predicted.index(None)]
        if missing or fault:
            continue
        try:
            if resolve and gaz is None and None in chunk.states:
                gaz = _load(geo.load_gazetteer, config.gazetteer or geo.bundled_gazetteer_path(), "gazetteer")
                index = geo.token_index(vocabulary, gaz)
            if model is not None:
                chunk = detector_mod.classify_corpus(model, chunk, gaz, index)[0]
            elif gaz is not None:
                chunk = chunk._replace(states=[s for *_, states in geo.token_batches(chunk, index, True) for s in states])
        except CrimecastError as exc:  # the gazetteer's UsageError, or a blank text
            fault = exc if isinstance(exc, UsageError) else UsageError(f"{config.articles}: {exc}")
        else:
            yield chunk
    if missing:
        raise UsageError(f"precomputed labels requested but {missing} records lack predicted_label (first: {first!r})")
    if fault:
        raise fault


# A corpus pass folds the chunks of each range r of the article file into a
# compact result: `fold(r, chunks)`.
Fold = Callable[[int, Iterator[signals_mod.Corpus]], object]


def _corpus_pass(config: PipelineConfig, fold: Fold, label: bool = True, resolve: bool = False) -> list:
    """`fold(r, chunks)` of each line range r of the articles file, in file
    order: the chunks `read_articles` reads from the range, labeled
    (`_labeled`) unless `label` is false. The baseline model is ready before
    the file is read. A small file is one range, folded here; a large one is
    split (`_line_ranges`) and its ranges folded at once (`_split_pass`).
    When a range faults, the whole file is folded here as one range, which
    raises the fault as the serial pass does."""
    path = _input(config.articles, "articles")
    model = _detector(config) if label and config.detector_source == "baseline" else None

    def chunks(start: int = 0, end: int | None = None) -> Iterator[signals_mod.Corpus]:
        read = _articles(path, start, end)
        return _labeled(config, read, model, resolve) if label else read

    ranges = _line_ranges(path)
    if len(ranges) > 1 and (folds := _split_pass(ranges, fold, chunks)) is not None:
        return folds
    return [fold(0, chunks())]


def _line_ranges(path: Path) -> list[tuple[int, int | None]]:
    """The byte ranges of the corpus pass over `path`, each starting at a
    line start: one per usable CPU when each holds at least
    `_MIN_RANGE_BYTES` and processes can fork, else the whole file."""
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    try:
        size = path.stat().st_size
        n = min(cpus, size // _MIN_RANGE_BYTES) if hasattr(os, "fork") else 1
        if n < 2:
            return [(0, None)]
        starts = [0]
        with path.open("rb") as fh:
            for k in range(1, n):
                fh.seek(size * k // n - 1)
                fh.readline()
                if starts[-1] < fh.tell() < size:
                    starts.append(fh.tell())
    except OSError:  # the serial pass reports it
        return [(0, None)]
    return list(zip(starts, [*starts[1:], None]))


def _split_pass(ranges: list[tuple[int, int | None]], fold: Fold, chunks) -> list | None:
    """The fold of each range, range 0 folded here and each other in a
    forked worker at the same time; None when a range faults, a worker dies
    or two ids share a hash (an id in two ranges, or a rare collision)."""
    import multiprocessing

    # Its fork start flushes stdout and stderr before each fork, so that no
    # worker writes out what the command had buffered.
    context = multiprocessing.get_context("fork")
    workers = []
    try:
        for r, (start, end) in enumerate(ranges[1:], start=1):
            receiver, sender = context.Pipe(duplex=False)
            worker = context.Process(target=_send_fold, args=(sender, fold, r, chunks(start, end)))
            workers.append((worker, receiver))
            with sender:  # the worker's end; the pipe reads EOF once the worker has closed it
                worker.start()
        folds = [_fold_range(fold, 0, chunks(*ranges[0]))]
        for worker, receiver in workers:
            if folds[-1] is None:
                break
            folds.append(_receive(worker, receiver))
    except OSError:  # a worker could not be started, or its pipe broke
        return None
    finally:
        for worker, receiver in workers:
            if worker.pid is not None:  # started; a joined worker ignores the kill
                worker.kill()
                worker.join()
            receiver.close()
    if None in folds:
        return None
    hashes = np.sort(np.concatenate([h for _, h in folds]))  # np.unique can take 50 bytes an id
    if np.any(hashes[1:] == hashes[:-1]):
        return None
    return [result for result, _ in folds]


def _fold_range(fold: Fold, r: int, chunks: Iterator[signals_mod.Corpus]) -> tuple | None:
    """`fold(r, chunks)` with the int64 `hash()` of each id of the chunks,
    or None when the range faults."""
    hashes = [np.zeros(0, np.int64)]

    def hashed() -> Iterator[signals_mod.Corpus]:
        for chunk in chunks:
            hashes.append(np.fromiter(map(hash, chunk.ids), np.int64, len(chunk)))
            yield chunk

    try:
        return fold(r, hashed()), np.concatenate(hashes)
    except (CrimecastError, OSError):  # the serial pass raises it again, in its order
        return None


def _send_fold(sender, fold: Fold, r: int, chunks: Iterator[signals_mod.Corpus]) -> None:
    """A forked worker: sends `_fold_range` of its range to the parent."""
    sender.send(_fold_range(fold, r, chunks))


def _receive(worker, receiver) -> tuple | None:
    """What a worker sent, once it has exited normally; None otherwise."""
    try:
        folded = receiver.recv()
    except EOFError:  # the worker died before it sent
        return None
    worker.join()
    return folded if worker.exitcode == 0 else None


def _span(config: PipelineConfig) -> tuple[Quarter, Quarter]:
    return config.fit_start, config.holdout_end


def _check_span(path: Path, covers: str, first: Quarter, last: Quarter, span: tuple[Quarter, Quarter]) -> None:
    """Input data in `path` over first..last that does not cover the span is an input error."""
    if first > span[0] or last < span[1]:
        raise UsageError(f"{path}: {covers} {first}..{last}, need {span[0]}..{span[1]}")


def _check_predictors(data: PanelDataset, terms, span, path: Path) -> None:
    """A blank predictor cell of the span in `path` is an input error."""
    try:
        data.predictors(terms, span)
    except InvalidArgumentError as exc:
        raise UsageError(f"{path}: {exc}") from exc


def _national_series(config: PipelineConfig) -> tuple[Quarter, np.ndarray, np.ndarray, tuple[np.ndarray, ...]]:
    """Load the national series and return its first quarter, its observed
    and deseasonalized values and its (trend, seasonal, irregular)
    decomposition. A gap, a blank edge or a short series in the file is an
    input error."""
    start, observed = _load(load_series_csv, config.fbi_series, "fbi_series", name="fbi_num")
    if np.isnan(observed).any():
        raise UsageError(f"{config.fbi_series}: series 'fbi_num' has missing values")
    try:
        components = decompose_additive(observed)
    except InvalidArgumentError as exc:
        raise UsageError(f"{config.fbi_series}: {exc}") from exc
    return start, observed, deseasonalize(observed, components[1]), components


def _write_decomposition(config: PipelineConfig, start: Quarter, observed: np.ndarray, components: tuple) -> None:
    write_series_csv(start, observed, config.output_dir / "fbi_quarterly.csv")
    write_decomposition_csv(start, observed, components, config.output_dir / "decomposition.csv")


def _model1_spec(config: PipelineConfig, fit_series: np.ndarray) -> ArimaSpec:
    order = ARIMA_READINGS.get(config.arima_order, config.arima_order)
    if order is None:  # "auto"
        selected = select_orders(difference(fit_series), config.arima_max_p, config.arima_max_q)
        order = (selected.p, 1, selected.q)
    return ArimaSpec(*order)


def _regression_data(
    config: PipelineConfig, dependent: np.ndarray, national: PanelDataset | None
) -> tuple[Dataset, Dataset]:
    """The span's dataset of the covariates, the dependent over the span
    (which replaces a covariate of its name) and the national signals, and
    its fit-range window."""
    covariates = _load(Dataset.from_csv, config.covariates, "covariates")
    span = _span(config)
    _check_span(config.covariates, "covariates cover", covariates.start, covariates.end, span)
    full = covariates.window(*span).joined(Dataset.align(span[0], {DEPENDENT_NAME: dependent}))
    if national is not None:
        full = full.joined(national)
    return full.window(config.fit_start, config.fit_end), full


def _national_report(
    config: PipelineConfig, model_ids: list[int], national: PanelDataset | None
) -> ForecastReport:
    start, observed, deseasonalized, components = _national_series(config)
    span = _span(config)
    _check_span(config.fbi_series, "fbi series covers", start, start + (len(observed) - 1), span)
    _write_decomposition(config, start, observed, components)
    dependent = deseasonalized[span[0] - start : span[1] - start + 1]
    fit_series = dependent[: config.fit_end - span[0] + 1]
    holdout = (config.holdout_start, config.holdout_end)
    actual = dependent[config.holdout_start - span[0] :]

    regression_ids = [m for m in model_ids if m != 1]
    if regression_ids:
        fit_data, forecast_data = _regression_data(config, dependent, national)
        for model_id in regression_ids:
            _check_predictors(forecast_data, build_model_spec(model_id).terms, holdout, config.covariates)

    rows: list[evaluation.ModelRow] = []
    if 1 in model_ids:
        fit = fit_arima(fit_series, _model1_spec(config, fit_series))
        write_json(fit_summary(fit), config.output_dir / "arima_model1.json")
        if not fit.converged:
            order = f"({fit.spec.p},{fit.spec.d},{fit.spec.q})"
            raise CrimecastError(f"the Model 1 ARIMA{order} fit did not converge; see arima_model1.json")
        # The forecast runs on from fit_end, so a holdout that starts later drops the first steps.
        ahead = forecast_arima(fit, fit_series, config.holdout_end - config.fit_end)
        predicted = ahead[config.holdout_start - config.fit_end - 1 :]
        rows.append(score_model("Model 1", fit.adj_r_squared, fit.log_likelihood, actual, predicted))
    for model_id in regression_ids:
        fit = fit_ols(fit_data, build_model_spec(model_id))
        predicted = forecast_regression(fit, forecast_data, holdout)
        rows.append(score_model(f"Model {model_id}", fit.adj_r_squared, fit.log_likelihood, actual, predicted))

    report = compare_models(rows, config.holdout_start, actual)
    report.write_json(config.output_dir / "report.json")
    report.write_long_csv(config.output_dir / "predictions_long.csv")
    return report


def _panel_report(config: PipelineConfig, model_ids: list[int], state_signals: signals_mod.StateSignals) -> dict:
    # A panel state without signals in a quarter gets zeros.
    panel = _load(PanelDataset.from_csv, config.panel, "panel").joined(state_signals.by_state)
    specs = {model_id: build_model_spec(model_id) for model_id in model_ids}
    for name in [PANEL_DEPENDENT, *(name for spec in specs.values() for name, _ in spec.terms)]:
        if name not in panel.names:
            raise UsageError(f"{config.panel} has no variable {name!r}")
    span = _span(config)
    _check_span(config.panel, "panel covers", panel.start, panel.end, span)
    # Every retained state has the dependent at each quarter of the span.
    try:
        balanced, balance = balance_panel(panel, span, PANEL_DEPENDENT)
        kept = len(balanced.unit_names)
    except EmptyPanelError:
        kept = 0
    if kept < 2:
        raise UsageError(f"{config.panel}: panel models need 2 states with {PANEL_DEPENDENT} over the span, got {kept}")
    fit_panel = balanced.restricted(balanced.unit_names, (config.fit_start, config.fit_end))
    # Every term has lag 0 or 1, and the fit uses the rows from fit_start + 1.
    for spec in specs.values():
        _check_predictors(balanced, spec.terms, (config.fit_start + 1, config.holdout_end), config.panel)
    # Each model's predictions are stacked unit by unit (units in order), over
    # the holdout quarters, against the same stack of actual values.
    holdout = (config.holdout_start, config.holdout_end)
    actual = balanced.predictors([(PANEL_DEPENDENT, 0)], holdout)[:, :, 0].ravel().tolist()

    rows: list[evaluation.ModelRow] = []
    hausman = {}
    for model_id, spec in specs.items():
        name = f"Model {model_id}"
        step = within(fit_panel, spec)
        fe = fit_fixed_effects(step)
        try:
            hausman[name] = evaluation.hausman_decision(fe, fit_random_effects(step))
        except CrimecastError as exc:
            hausman[name] = {"error": str(exc)}
        predicted = forecast_panel(fe, balanced, holdout).ravel().tolist()
        rows.append(score_model(name, fe.overall_r_squared, fe.log_likelihood, actual, predicted))

    payload = {
        "holdout": {"start": str(config.holdout_start), "end": str(config.holdout_end)},
        "balance": {
            "dropped": list(balance.dropped),
            "retained_units": len(balance.retained),
            "retained_share": balance.retained_share,
        },
        "unknown_state_share": state_signals.unknown_share,
        "models": [row.to_dict() for row in rows],
        "hausman": hausman,
    }
    if len(rows) == 2:
        payload |= evaluation.compare_predictions(*rows, actual)
    write_json(payload, config.output_dir / "panel_report.json")
    return payload


# ------------------------------------------------------------------ commands


def cmd_detect(config: PipelineConfig) -> None:
    partial = config.output_dir / f".articles_labeled.jsonl.{os.getpid()}.tmp"

    def part(r: int) -> Path:
        """Where range r writes its lines; the parts follow range 0's in order."""
        return partial if r == 0 else partial.with_name(f"{partial.name}.{r}")

    def fold(r: int, chunks: Iterator[signals_mod.Corpus]) -> tuple[int, int]:
        total = positives = 0
        with part(r).open("w") as fh:
            for chunk in chunks:
                signals_mod.write_articles(chunk, fh)
                total, positives = total + len(chunk), positives + chunk.predicted.count(signals_mod.LABEL_POSITIVE)
        return total, positives

    try:
        counts = _corpus_pass(config, fold)
        with partial.open("ab") as fh:
            for r in range(1, len(counts)):
                with part(r).open("rb") as src:
                    shutil.copyfileobj(src, fh)
        os.replace(partial, config.output_dir / "articles_labeled.jsonl")
    finally:
        for path in config.output_dir.glob(f"{partial.name}*"):
            path.unlink(missing_ok=True)
    total, positives = map(sum, zip(*counts))
    summary = {
        "source": config.detector_source,
        "total": total,
        "hate_crime": positives,
        "not_hate_crime": total - positives,
    }
    write_json(summary, config.output_dir / "detection_summary.json")
    print(f"detect: labeled {total} articles ({positives} hate_crime)")


def _tally(config: PipelineConfig, resolve: bool) -> signals_mod.Tally:
    """The tally of the labeled articles; with `resolve`, each has a state."""
    folds = _corpus_pass(config, lambda r, chunks: signals_mod.tally(chunks), resolve=resolve)
    return signals_mod.merge_tallies(folds)


def cmd_signals(config: PipelineConfig) -> None:
    signals = signals_mod.aggregate_by_state(_tally(config, resolve=True), _span(config))
    signals_mod.write_signals_csv(signals.national, config.output_dir / "signals_national.csv")
    signals_mod.write_state_signals_csv(signals, config.output_dir / "signals_by_state.csv")
    if not signals.national.unit_names:
        print("signals: no records; wrote header-only CSVs")
    else:
        print(f"signals: {len(signals.by_state.unit_names)} states, unknown share {signals.unknown_share:.4f}")


def cmd_decompose(config: PipelineConfig) -> None:
    start, observed, deseasonalized, components = _national_series(config)
    _write_decomposition(config, start, observed, components)
    write_series_csv(start, deseasonalized, config.output_dir / "fbi_num_noseasonnal.csv")
    print(f"decompose: period {SEASONAL_PERIOD}, {len(observed)} quarters")


def cmd_diagnose(config: PipelineConfig) -> None:
    _, observed, deseasonalized, (_, _, irregular) = _national_series(config)
    differenced = difference(deseasonalized)
    irregular = irregular[~np.isnan(irregular)]  # the decomposition leaves two quarters blank at each end
    max_lag = max(min(DIAGNOSE_LAGS, len(observed) - 12), 0)
    p, q = suggest_orders_acf(differenced, config.arima_max_p, config.arima_max_q)
    model1 = fit_arima(deseasonalized, _model1_spec(config, deseasonalized))
    payload = {
        "adf": {
            name: stattests.adf_test(s, max_lag)._asdict()
            for name, s in (("fbi_num", observed), (DEPENDENT_NAME, deseasonalized), ("d_" + DEPENDENT_NAME, differenced))
        },
        "ljung_box_irregular": stattests.ljung_box(irregular, min(DIAGNOSE_LAGS, len(irregular) - 2))._asdict(),
        "acf_pacf_order_suggestion": {"p": p, "q": q},
        "model1_residual_durbin_watson": stattests.durbin_watson(model1.residuals),
        "model1_converged": model1.converged,
        "model1_ma_boundary": model1.ma_boundary,
    }
    write_json(payload, config.output_dir / "diagnostics.json")
    print("diagnose: wrote diagnostics.json")


def cmd_fit_forecast(config: PipelineConfig) -> None:
    if not config.models:
        raise UsageError("no models requested")
    national_ids = sorted(m for m in config.models if m in NATIONAL_MODELS)
    panel_ids = sorted(m for m in config.models if m in PANEL_MODELS)
    # The articles are read, labeled and tallied once for both reports; the
    # event models' national signals sum the same counts either way.
    event_models = any(m in EVENT_MODELS for m in national_ids)
    tally = _tally(config, resolve=bool(panel_ids)) if panel_ids or event_models else None
    state_signals = signals_mod.aggregate_by_state(tally, _span(config)) if panel_ids else None
    national = signals_mod.aggregate_quarterly(tally, _span(config)) if event_models else None
    if national_ids:
        report = _national_report(config, national_ids, national)
        print(f"fit-forecast: wrote report.json with {len(report.rows)} national model rows")
    if panel_ids:
        payload = _panel_report(config, panel_ids, state_signals)
        print(f"fit-forecast: wrote panel_report.json with {len(payload['models'])} panel model rows")


def cmd_evaluate_detector(config: PipelineConfig) -> None:
    def fold(r: int, chunks: Iterator[signals_mod.Corpus]) -> tuple[bytearray, bytearray, str | None]:
        gold, predicted, first = bytearray(), bytearray(), None
        for chunk in chunks:
            gold += bytes(map(signals_mod.LABEL_CODES.index, chunk.gold))
            predicted += bytes(map(signals_mod.LABEL_CODES.index, chunk.predicted))
            if first is None and None in chunk.predicted:
                first = next((i for i, g, p in zip(chunk.ids, chunk.gold, chunk.predicted) if g and not p), None)
        return gold, predicted, first

    gold, predicted, firsts = zip(*_corpus_pass(config, fold, label=False))
    gold, predicted = (np.frombuffer(b"".join(codes), np.uint8) for codes in (gold, predicted))
    first, scored = next(filter(None, firsts), None), gold > 0  # scored: the gold-labeled articles
    if not scored.any():
        raise UsageError("no records carry gold labels")
    if first is not None:
        missing = np.count_nonzero(scored & (predicted == 0))
        raise UsageError(f"{missing} gold-labeled records lack predictions (first: {first!r})")
    names = np.array(signals_mod.LABEL_CODES)
    metrics = detector_mod.evaluate(names[predicted[scored]], names[gold[scored]])
    payload = {"Precision": metrics.precision, "Recall": metrics.recall, "F1": metrics.f1, "counts": metrics.counts._asdict()}
    write_json(payload, config.output_dir / "detector_metrics.json")
    print(f"evaluate-detector: P={metrics.precision:.4f} R={metrics.recall:.4f} F1={metrics.f1:.4f}")


COMMANDS = {
    "detect": cmd_detect,
    "signals": cmd_signals,
    "decompose": cmd_decompose,
    "diagnose": cmd_diagnose,
    "fit-forecast": cmd_fit_forecast,
    "evaluate-detector": cmd_evaluate_detector,
}
