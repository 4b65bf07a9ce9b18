import ast
import contextlib
import csv
import gc
import io
import json
import os
import re
import subprocess
import sys
import warnings
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import crimecast
from crimecast import arima, geo, pipeline, regression, signals
from crimecast.cli import EXIT_INPUT_ERROR, EXIT_MODEL_ERROR, EXIT_OK, PipelineConfig, UsageError, load_config, main
from crimecast.signals import load_articles

from conftest import FIXTURES, GAZETTEER, GOLDEN, PARSE_PATHS

CONFIG = FIXTURES / "config.json"


def run(command, *extra):
    return main([command, "--config", str(CONFIG), *extra])


def absolute_config(**changes):
    """The fixture config with absolute input paths, updated by `changes`."""
    raw = json.loads(CONFIG.read_text())
    for key in ("articles", "gazetteer", "covariates", "fbi_series", "panel", "detector_train"):
        raw[key] = str((FIXTURES / raw[key]).resolve())
    raw.update(changes)
    return raw


# The command and flags of most config cases, and the inputs a case may
# name by a path relative to its config: an article without a gold label,
# and the covariates without their last column, uner_quar.
MODEL_1 = ("fit-forecast", "--models", "1")
BESIDE_CONFIG = {
    "unlabeled.jsonl": json.dumps({"id": "u1", "date": "2010-01-01", "title": "t", "body": "b"}) + "\n",
    "no_uner_quar.csv": "".join(line.rsplit(",", 1)[0] + "\n" for line in (FIXTURES / "covariates.csv").read_text().splitlines()),
}

# Keys of earlier configs, each with a value it used to accept.
REMOVED_KEYS = {
    "decomposition_period": 4,
    "panel_dependent": "fbi_num",
    "panel_min_coverage": 1.0,
    "panel_terms_model6": [["population", 0]],
    "panel_terms_model7": [["population", 0]],
}


class TestConfig:
    def test_paths_resolve_against_config_dir(self):
        config = load_config(CONFIG)
        assert config.articles == (FIXTURES / "articles.jsonl").resolve()

    def test_holdout_must_follow_fit(self, tmp_path):
        bad = json.loads(CONFIG.read_text())
        bad["holdout_start"] = "2018Q4"
        path = tmp_path / "c.json"
        path.write_text(json.dumps(bad))
        with pytest.raises(UsageError):
            load_config(path)

    @pytest.mark.parametrize(
        "raw, named, argv",
        [(*case, MODEL_1) for case in [
            (absolute_config(arima_order=[1, "a", 0]), "'arima_order'"),
            ([absolute_config()], "must be a JSON object"),
            (absolute_config(arima_order=[-1, 1, 0]), "'arima_order'"),
            (absolute_config(arima_order="auto", arima_max_p=9), "'arima_max_p'"),
            (absolute_config(holdout_strat="2019Q1"), "'holdout_strat'"),
            (absolute_config(seed=1.5), "'seed'"),
            (absolute_config(arima_order=[1.7, 1, 0]), "'arima_order'"),
            (absolute_config(arima_order="auto", arima_max_q=1.5), "'arima_max_q'"),
            (absolute_config(seed=-1), "'seed'"),
            (absolute_config(fbi_series=[str(FIXTURES / "fbi.csv")]), "config key 'fbi_series': must be a string"),
            (absolute_config(gazetteer=True), "config key 'gazetteer': must be a string"),
            (absolute_config(fit_start=2007), "config key 'fit_start': must be a string"),
            (absolute_config(seed="5"), "config key 'seed': '5' is not an integer"),
            (absolute_config(arima_order=["1", 1, 0]), "config key 'arima_order': '1' is not an integer"),
        ]] + [
            (None, "error: cannot read config {dir}/c.json: [Errno 2] No such file or directory: '{dir}/c.json'", MODEL_1),
            (absolute_config(articles=None), "error: config is missing the articles path", ("signals",)),
            (absolute_config(models=[]), "error: no models requested", ("fit-forecast",)),
            (absolute_config(), "error: no models requested", ("fit-forecast", "--models", ",")),
            (absolute_config(arima_order="bogus"),
             "error: config key 'arima_order': must be 'drift', 'ar1', 'auto' or [p, d, q]", MODEL_1),
            (absolute_config(detector_source="x"),
             "error: config key 'detector_source': must be 'precomputed' or 'baseline'", MODEL_1),
            (absolute_config(fit_start="2019Q1", fit_end="2018Q4"), "error: fit and holdout ranges must be nonempty", MODEL_1),
            (absolute_config(covariates="no_uner_quar.csv"),
             "error: {dir}/no_uner_quar.csv: dataset has no variable 'uner_quar'", ("fit-forecast", "--models", "2")),
            (absolute_config(articles="unlabeled.jsonl"), "error: no records carry gold labels", ("evaluate-detector",)),
        ],
        ids=[
            "non-integer-order",
            "list-root",
            "negative-order",
            "grid-bound-above-5",
            "unknown-key",
            "fractional-seed",
            "fractional-order",
            "fractional-grid-bound",
            "negative-seed",
            "list-path",
            "bool-path",
            "number-quarter",
            "string-seed",
            "string-order",
            "no-config-file",
            "no-articles-path",
            "no-models",
            "no-models-flag",
            "unknown-order-reading",
            "unknown-detector-source",
            "empty-fit-range",
            "covariates-without-uner-quar",
            "no-gold-labels",
        ],
    )
    def test_malformed_config_exits_2_naming_key(self, tmp_path, capsys, raw, named, argv):
        """A bad config, or one whose command cannot run on its inputs, exits
        2 with a message naming the key or the fault; `{dir}` in it is the
        config's directory. A config of None is a file that does not exist."""
        path = tmp_path / "c.json"
        if raw is not None:
            path.write_text(json.dumps(raw))
        for name, text in BESIDE_CONFIG.items():
            (tmp_path / name).write_text(text)
        command, *extra = argv
        code = main([command, "--config", str(path), "--output-dir", str(tmp_path / "out"), *extra])
        err = capsys.readouterr().err
        assert code == EXIT_INPUT_ERROR
        assert named.replace("{dir}", str(tmp_path)) in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("value", [{"1": 1, "2": 0}, 3, True], ids=["object", "number", "bool"])
    def test_models_must_be_a_list_or_a_string(self, tmp_path, value):
        path = tmp_path / "c.json"
        path.write_text(json.dumps(absolute_config(models=value)))
        with pytest.raises(UsageError, match="config key 'models': must be a list of model ids or a comma-separated string"):
            load_config(path)

    @pytest.mark.parametrize(
        "key, value, year",
        [
            ("fit_start", "-1000000000Q1", -1000000000),
            ("fit_start", "-100000000000000000000Q1", -100000000000000000000),
            ("fit_start", "0Q4", 0),
            ("holdout_end", "10000Q1", 10000),
        ],
        ids=["int32-overflow", "c-long-overflow", "year-0", "year-10000"],
    )
    def test_quarter_year_outside_1_to_9999_exits_2_naming_key(self, tmp_path, capsys, key, value, year):
        path = tmp_path / "c.json"
        path.write_text(json.dumps(absolute_config(**{key: value})))
        code = main(["signals", "--config", str(path), "--output-dir", str(tmp_path / "out")])
        assert code == EXIT_INPUT_ERROR
        assert capsys.readouterr().err == f"error: config key {key!r}: year must be in 1..9999, got {year}\n"

    def test_seed_flag_is_gone(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            run("detect", "--output-dir", str(tmp_path), "--seed", "1")
        assert exc.value.code == EXIT_INPUT_ERROR
        assert "unrecognized arguments: --seed 1" in capsys.readouterr().err

    @pytest.mark.parametrize("key, value", REMOVED_KEYS.items(), ids=list(REMOVED_KEYS))
    def test_removed_key_exits_2_as_unknown(self, tmp_path, capsys, key, value):
        path = tmp_path / "c.json"
        path.write_text(json.dumps(absolute_config(**{key: value})))
        code = main(["decompose", "--config", str(path), "--output-dir", str(tmp_path / "out")])
        assert code == EXIT_INPUT_ERROR
        assert f"error: config {path}: unknown key {key!r}" in capsys.readouterr().err

    @pytest.mark.parametrize("variable", ["fbi_num", "population"], ids=["dependent", "term"])
    def test_variable_missing_from_panel_exits_2_naming_key(self, tmp_path, capsys, variable):
        rows = list(csv.reader((FIXTURES / "panel.csv").read_text().splitlines()))
        column = rows[0].index(variable)
        without = tmp_path / "panel.csv"
        without.write_text("".join(",".join(r[:column] + r[column + 1 :]) + "\n" for r in rows))
        out = tmp_path / "out"
        code = run("fit-forecast", "--output-dir", str(out), "--models", "6", "--panel", str(without))
        err = capsys.readouterr().err
        assert code == EXIT_INPUT_ERROR
        assert f"error: {without.resolve()} has no variable {variable!r}" in err
        assert not (out / "panel_report.json").exists()

    def test_readme_config_block_lists_every_key(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        block = readme.split("```jsonc\n", 1)[1].split("```", 1)[0]
        keys = re.findall(r'"(\w+)":', re.sub(r"//.*", "", block))
        assert sorted(keys) == sorted(PipelineConfig._fields)

    def test_missing_file_exits_2(self, tmp_path):
        raw = json.loads(CONFIG.read_text())
        raw["fbi_series"] = "does_not_exist.csv"
        path = tmp_path / "c.json"
        path.write_text(json.dumps(raw))
        code = main(["decompose", "--config", str(path), "--output-dir", str(tmp_path / "out")])
        assert code == EXIT_INPUT_ERROR

    def test_bad_config_json_exits_2(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        assert main(["detect", "--config", str(path)]) == EXIT_INPUT_ERROR

    def test_non_utf8_config_exits_2_naming_path_line(self, tmp_path, capsys):
        path = tmp_path / "c.json"
        path.write_bytes(b'{\n  "seed": "\xff"\n}\n')
        assert main(["detect", "--config", str(path)]) == EXIT_INPUT_ERROR
        assert f"error: {path}:2: not UTF-8 text" in capsys.readouterr().err

    def test_unknown_model_id_exits_2(self, tmp_path):
        assert run("fit-forecast", "--output-dir", str(tmp_path), "--models", "9") == EXIT_INPUT_ERROR

    def test_repeated_model_id_exits_2(self, tmp_path, capsys):
        assert run("fit-forecast", "--output-dir", str(tmp_path), "--models", "2,2,4,6,6") == EXIT_INPUT_ERROR
        assert capsys.readouterr().err == "error: config key 'models': repeated model id 2\n"
        assert not (tmp_path / "report.json").exists()


WEIGHT = ": vocabulary weight of 'hate' must be a finite number"


def split_first_number(line: str) -> str:
    """The line with its first decimal number split into two cells."""
    return line.replace(".", ",", 1)


def with_huge_last_cell(line: str) -> str:
    """The line with 200,000 digits appended to its last cell."""
    return line + "9" * 200_000


def with_huge_quoted_state(line: str) -> str:
    """The line with its state replaced by a quoted 200,000-character cell."""
    return '"' + "x" * 200_000 + '"' + line[line.index(",") :]


def with_quarter_9(line: str) -> str:
    state, year, _, rest = line.split(",", 3)
    return f"{state},{year},9,{rest}"


def with_last_cell_abc(line: str) -> str:
    return line.rsplit(",", 1)[0] + ",abc"


class TestMalformedInput:
    """A malformed number or JSON line exits 2 and names `path:line`. `main`
    runs in process, so an exception escaping it fails the test."""

    @pytest.mark.parametrize(
        "flag, name, lineno, bad",
        [
            ("--fbi-series", "fbi.csv", 5, "abc"),
            ("--fbi-series", "fbi.csv", 20, "inf"),
            ("--covariates", "covariates.csv", 7, "1e400"),
            ("--panel", "panel.csv", 3, "abc"),
            ("--panel", "panel.csv", 30, "nan"),
            ("--articles", "articles.jsonl", 4, "[1, 2]"),
            ("--articles", "articles.jsonl", 9, '"text"'),
        ],
    )
    def test_corrupt_cell_exits_2_naming_path_line(self, tmp_path, capsys, flag, name, lineno, bad):
        lines = (FIXTURES / name).read_text().splitlines()
        if name.endswith(".jsonl"):
            lines[lineno - 1] = bad
        else:
            cells = lines[lineno - 1].split(",")
            cells[-1] = bad
            lines[lineno - 1] = ",".join(cells)
        corrupt = tmp_path / name
        corrupt.write_text("\n".join(lines) + "\n")
        code = run(
            "fit-forecast", "--output-dir", str(tmp_path / "out"), "--models", "1,2,3,4,5,6,7", flag, str(corrupt)
        )
        err = capsys.readouterr().err
        assert code == EXIT_INPUT_ERROR
        assert f"{corrupt.resolve()}:{lineno}: " in err
        assert "Traceback" not in err

    def test_repeated_panel_row_names_path_line(self, tmp_path, capsys):
        lines = (FIXTURES / "panel.csv").read_text().splitlines()
        repeated = tmp_path / "panel.csv"
        repeated.write_text("\n".join(lines + [lines[1]]) + "\n")
        code = run("fit-forecast", "--output-dir", str(tmp_path / "out"), "--models", "6,7", "--panel", str(repeated))
        err = capsys.readouterr().err
        assert code == EXIT_INPUT_ERROR
        assert f"{repeated.resolve()}:{len(lines) + 1}: duplicate observation for CA 2007Q1" in err


    @pytest.mark.parametrize("row", ["Atlantis\tZZ\t2", "Atlantis\tCA"], ids=["unknown-state", "two-fields"])
    def test_malformed_gazetteer_row_exits_2_naming_path_line(self, tmp_path, capsys, row):
        lines = GAZETTEER.read_text().splitlines() + [row]
        corrupt = tmp_path / "gazetteer.tsv"
        corrupt.write_text("\n".join(lines) + "\n")
        code = run("signals", "--output-dir", str(tmp_path / "out"), "--gazetteer", str(corrupt))
        err = capsys.readouterr().err
        assert code == EXIT_INPUT_ERROR
        assert f"error: {corrupt.resolve()}:{len(lines)}: " in err
        assert "Traceback" not in err

    def test_covariate_interior_gap_exits_2(self, tmp_path, capsys):
        lines = (FIXTURES / "covariates.csv").read_text().splitlines()
        cells = lines[10].split(",")
        cells[-1] = ""
        lines[10] = ",".join(cells)
        gappy = tmp_path / "covariates.csv"
        gappy.write_text("\n".join(lines) + "\n")
        code = run("fit-forecast", "--output-dir", str(tmp_path / "out"), "--models", "2", "--covariates", str(gappy))
        err = capsys.readouterr().err
        assert code == EXIT_INPUT_ERROR
        assert f"error: {gappy.resolve()}: series 'uner_quar' has interior missing values" in err
        assert "Traceback" not in err

    def test_fbi_interior_gap_exits_2_naming_file(self, tmp_path, capsys):
        lines = (FIXTURES / "fbi.csv").read_text().splitlines()
        lines[10] = lines[10].rsplit(",", 1)[0] + ","
        gappy = tmp_path / "fbi.csv"
        gappy.write_text("\n".join(lines) + "\n")
        code = run("decompose", "--output-dir", str(tmp_path / "out"), "--fbi-series", str(gappy))
        err = capsys.readouterr().err
        assert code == EXIT_INPUT_ERROR
        assert f"error: {gappy.resolve()}: series 'fbi_num' has interior missing values" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "command, flag, name, lineno",
        [
            ("signals", "--articles", "articles.jsonl", 3),
            ("signals", "--gazetteer", "gazetteer.tsv", 5),
            ("decompose", "--fbi-series", "fbi.csv", 7),
        ],
        ids=["articles", "gazetteer", "fbi"],
    )
    def test_non_utf8_input_exits_2_naming_path_line(self, tmp_path, capsys, command, flag, name, lineno):
        source = GAZETTEER if name == "gazetteer.tsv" else FIXTURES / name
        lines = source.read_bytes().splitlines()
        lines[lineno - 1] = lines[lineno - 1][:4] + b"\xff" + lines[lineno - 1][4:]
        corrupt = tmp_path / name
        corrupt.write_bytes(b"\n".join(lines) + b"\n")
        code = run(command, "--output-dir", str(tmp_path / "out"), flag, str(corrupt))
        err = capsys.readouterr().err
        assert code == EXIT_INPUT_ERROR
        assert f"error: {corrupt.resolve()}:{lineno}: not UTF-8 text" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "payload, problem",
        [
            ({"bias": 0.0, "threshold": 0.5}, " lacks the key 'vocabulary'"),
            ([1, 2], " must hold a JSON object"),
            ('{"vocabulary": {"hate": 1.0}, "bias": 1%s, "threshold": 0.5}' % ("0" * 400), ": int too large to convert to float"),
            ('{"vocabulary": {"hate": 1.0}, "bias": 0.0, "threshold": 1%s}' % ("0" * 400), ": int too large to convert to float"),
            ('{"vocabulary": {"hate": 1.0}, "bias": NaN, "threshold": 0.5}', ": bias must be finite"),
            ('{"vocabulary": {"hate": 1.0}, "bias": Infinity, "threshold": 0.5}', ": bias must be finite"),
            ('{"vocabulary": {"hate": 1.0}, "bias": -Infinity, "threshold": 0.5}', ": bias must be finite"),
            ('{"vocabulary": {"hate": 1.0}, "bias": 1e999, "threshold": 0.5}', ": bias must be finite"),
            ('{"vocabulary": {"hate": 1%s}, "bias": 0.0, "threshold": 0.5}' % ("0" * 400), WEIGHT),
            ('{"vocabulary": {"hate": "x"}, "bias": 0.0, "threshold": 0.5}', WEIGHT),
            ('{"vocabulary": {"hate": null}, "bias": 0.0, "threshold": 0.5}', WEIGHT),
            ('{"vocabulary": {"hate": true}, "bias": 0.0, "threshold": 0.5}', WEIGHT),
            ('{"vocabulary": {"hate": NaN}, "bias": 0.0, "threshold": 0.5}', WEIGHT),
            ('{"vocabulary": {"hate": -1e999}, "bias": 0.0, "threshold": 0.5}', WEIGHT),
            ('{"vocabulary": {"hate": 1.0}, "bias": true, "threshold": 0.5}', ": bias must be a JSON number"),
            ('{"vocabulary": {"hate": 1.0}, "bias": "0.5", "threshold": 0.5}', ": bias must be a JSON number"),
            ('{"vocabulary": {"hate": 1.0}, "bias": null, "threshold": 0.5}', ": bias must be a JSON number"),
            ('{"vocabulary": {"hate": 1.0}, "bias": 0.0, "threshold": true}', ": threshold must be a JSON number"),
            ('{"vocabulary": {"hate": 1.0}, "bias": 0.0, "threshold": "0.5"}', ": threshold must be a JSON number"),
            ('{"vocabulary": {"hate": 1.0}, "bias": 0.0, "threshold": null}', ": threshold must be a JSON number"),
            ('{"vocabulary": [["hate", 1.0]], "bias": 0.0, "threshold": 0.5}', ": vocabulary must be a JSON object"),
            ('{"vocabulary": "hate", "bias": 0.0, "threshold": 0.5}', ": vocabulary must be a JSON object"),
            ('{"vocabulary": null, "bias": 0.0, "threshold": 0.5}', ": vocabulary must be a JSON object"),
            ('{"vocabulary": {}, "bias": 0.0, "threshold": 0.5, "metadata": [["seed", 1]]}', ": metadata must be a JSON object"),
            ('{"vocabulary": {}, "bias": 0.0, "threshold": 0.5, "metadata": "seed"}', ": metadata must be a JSON object"),
            ('{"vocabulary": {}, "bias": 0.0, "threshold": 0.5, "metadata": null}', ": metadata must be a JSON object"),
        ],
        ids=[
            "no-vocabulary", "json-array", "bias-401-digits", "threshold-401-digits", "bias-nan", "bias-inf",
            "bias-minus-inf", "bias-1e999", "weight-401-digits", "weight-string", "weight-null", "weight-true",
            "weight-nan", "weight-minus-1e999", "bias-true", "bias-string", "bias-null", "threshold-true",
            "threshold-string", "threshold-null", "vocabulary-list", "vocabulary-string", "vocabulary-null",
            "metadata-list", "metadata-string", "metadata-null",
        ],
    )
    def test_malformed_detector_model_exits_2_naming_file(self, tmp_path, capsys, payload, problem):
        model = tmp_path / "model.json"
        model.write_text(payload if isinstance(payload, str) else json.dumps(payload))  # a str is the file's text
        config = tmp_path / "c.json"
        config.write_text(json.dumps(absolute_config(detector_source="baseline", detector_model=str(model))))
        code = main(["detect", "--config", str(config), "--output-dir", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert code == EXIT_INPUT_ERROR
        assert f"error: model file {model}{problem}" in err
        assert "Traceback" not in err

    def test_article_without_text_exits_2_naming_file_and_id(self, tmp_path, capsys):
        articles = tmp_path / "articles.jsonl"
        articles.write_text(
            (FIXTURES / "articles.jsonl").read_text()
            + json.dumps({"id": "blank", "date": "2010-01-01", "title": "", "body": "", "predicted_label": "hate_crime"})
            + "\n"
        )
        code = run("signals", "--output-dir", str(tmp_path / "out"), "--articles", str(articles))
        err = capsys.readouterr().err
        assert code == EXIT_INPUT_ERROR
        assert f"error: {articles.resolve()}: article 'blank': text must be nonempty" in err

    def test_article_without_text_exits_2_on_the_baseline_path(self, tmp_path, capsys):
        articles = tmp_path / "articles.jsonl"
        articles.write_text(
            (FIXTURES / "articles.jsonl").read_text()
            + json.dumps({"id": "blank", "date": "2010-01-01", "title": " ", "body": ""})
            + "\n"
        )
        config = tmp_path / "c.json"
        baseline = absolute_config(detector_source="baseline", detector_model=str(tmp_path / "m.json"))
        config.write_text(json.dumps(baseline))
        code = main(["signals", "--config", str(config), "--output-dir", str(tmp_path), "--articles", str(articles)])
        err = capsys.readouterr().err
        assert code == EXIT_INPUT_ERROR
        assert f"error: {articles.resolve()}: article 'blank': text must be nonempty" in err

    def test_huge_panel_year_exits_2_naming_path_line(self, tmp_path, capsys):
        lines = (FIXTURES / "panel.csv").read_text().splitlines()
        cells = lines[3].split(",")
        cells[1] = "99999999999999999999"
        lines[3] = ",".join(cells)
        panel = tmp_path / "panel.csv"
        panel.write_text("\n".join(lines) + "\n")
        code = run("fit-forecast", "--output-dir", str(tmp_path / "out"), "--models", "6,7", "--panel", str(panel))
        err = capsys.readouterr().err
        assert code == EXIT_INPUT_ERROR
        assert f"error: {panel.resolve()}:4: malformed row" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "edits, fault",
        [
            ({2: split_first_number}, "2: malformed row"),
            ({4: with_huge_last_cell}, "4: field larger than field limit (131072)"),
            ({4: with_huge_quoted_state}, "4: field larger than field limit (131072)"),
            ({3: with_quarter_9, 4: with_huge_last_cell}, "3: malformed row"),
            ({3: with_last_cell_abc, 4: with_huge_last_cell}, "3: not a finite number: 'abc'"),
            ({4: with_huge_last_cell, 5: split_first_number}, "4: field larger than field limit (131072)"),
        ],
        ids=["long-row", "huge-cell", "huge-quoted-state", "malformed-before", "bad-value-before", "long-row-after"],
    )
    def test_panel_row_fault_exits_2_naming_path_line(self, tmp_path, capsys, edits, fault):
        """A row wider than the header and a cell too large for the CSV
        tokenizer are input errors; a fault on an earlier line wins."""
        lines = (FIXTURES / "panel.csv").read_text().splitlines()
        for lineno, edit in edits.items():
            lines[lineno - 1] = edit(lines[lineno - 1])
        panel = tmp_path / "panel.csv"
        panel.write_text("\n".join(lines) + "\n")
        code = run("fit-forecast", "--output-dir", str(tmp_path / "out"), "--models", "6,7", "--panel", str(panel))
        assert code == EXIT_INPUT_ERROR
        assert capsys.readouterr().err == f"error: {panel.resolve()}:{fault}\n"

    def test_line_after_a_quoted_newline_is_named_by_its_physical_line(self, tmp_path, capsys):
        lines = (FIXTURES / "panel.csv").read_text().splitlines()
        state, rest = lines[1].split(",", 1)
        lines[1] = f'"{state}\n",{rest}'
        cells = lines[5].split(",")
        cells[-1] = "abc"
        lines[5] = ",".join(cells)
        panel = tmp_path / "panel.csv"
        panel.write_text("\n".join(lines) + "\n")
        code = run("fit-forecast", "--output-dir", str(tmp_path / "out"), "--models", "6,7", "--panel", str(panel))
        err = capsys.readouterr().err
        assert code == EXIT_INPUT_ERROR
        assert f"error: {panel.resolve()}:7: not a finite number: 'abc'" in err

    @pytest.mark.usefixtures("parse_path")
    @pytest.mark.parametrize("state", ["ZZ", 5, "ca"])
    def test_article_with_bad_state_exits_2_naming_path_line(self, tmp_path, capsys, state):
        lines = (FIXTURES / "articles.jsonl").read_text().splitlines()
        record = {"id": "bad-state", "date": "2010-01-01", "title": "t", "body": "b", "predicted_label": "hate_crime"}
        articles = tmp_path / "articles.jsonl"
        articles.write_text("\n".join(lines + [json.dumps(record | {"state": state})]) + "\n")
        out = tmp_path / "out"
        code = run("fit-forecast", "--output-dir", str(out), "--models", "1,2,3,4,5,6,7", "--articles", str(articles))
        err = capsys.readouterr().err
        assert code == EXIT_INPUT_ERROR
        assert f"error: {articles.resolve()}:{len(lines) + 1}: bad record (state must be " in err
        assert not (out / "report.json").exists()

    # Each corpus: the lines after two good articles, the line the message
    # names and the message after `path:line: `. A blank line is counted.
    ARTICLE = '{"id": "%s", "date": "2010-01-01", "title": "t", "body": "b", "predicted_label": "hate_crime"}'
    LOADER_FAULTS = {
        "two-objects": ([ARTICLE % "x" + " " + ARTICLE % "y"], 3, "invalid JSON"),
        "array": (["[1]"], 3, "bad record (list indices must be integers or slices, not str)"),
        "string": (['"x"'], 3, "bad record (string indices must be integers, not 'str')"),
        "null": (["null"], 3, "bad record ('NoneType' object is not subscriptable)"),
        "repeated-id": ([ARTICLE % "x", ARTICLE % "a1"], 4, "duplicate article id 'a1'"),
        "blank-lines": (["   ", "\t", "", "[1]"], 6, "bad record (list indices must be integers or slices, not str)"),
        "state-int": ([ARTICLE[:-1] % "x" + ', "state": 5}'], 3,
                      "bad record (state must be a state code or 'UNKNOWN', got 5)"),
        "state-zz": ([ARTICLE[:-1] % "x" + ', "state": "ZZ"}'], 3,
                     "bad record (state must be a state code or 'UNKNOWN', got 'ZZ')"),
        "gold-label": ([ARTICLE[:-1] % "x" + ', "gold_label": "maybe"}'], 3,
                       "bad record (article x: gold_label must be one of ('hate_crime', 'not_hate_crime'))"),
        "no-date": (['{"id": "x"}'], 3, "bad record ('date')"),
        "empty-id": (['{"id": "", "date": "2010-01-01"}'], 3, "bad record (article id must be nonempty)"),
        "id-int": (['{"id": 7, "date": "2010-01-01"}'], 3, "bad record (id must be a string, got 7)"),
        "title-null": (['{"id": "x", "date": "2010-01-01", "title": null}'], 3,
                       "bad record (title must be a string, got None)"),
        "title-nan": (['{"id": "x", "date": "2010-01-01", "title": NaN}'], 3,
                      "bad record (title must be a string, got nan)"),
        "body-list": (['{"id": "x", "date": "2010-01-01", "body": ["b"]}'], 3,
                      "bad record (body must be a string, got ['b'])"),
        "gold-list": ([ARTICLE[:-1] % "x" + ', "gold_label": ["hate_crime"]}'], 3,
                      "bad record (article x: gold_label must be one of ('hate_crime', 'not_hate_crime'))"),
        "predicted-dict": (['{"id": "x", "date": "2010-01-01", "predicted_label": {}}'], 3,
                           "bad record (article x: predicted_label must be one of ('hate_crime', 'not_hate_crime'))"),
        "state-list": ([ARTICLE[:-1] % "x" + ', "state": ["CA"]}'], 3, "bad record (unhashable type: 'list')"),
        "bare-int": (["1"], 3, "bad record ('int' object is not subscriptable)"),
        "date-list": (['{"id": "x", "date": ["2010-01-01"]}'], 3, "bad record (fromisoformat: argument must be str)"),
        "date-basic": (['{"id": "x", "date": "20100101"}'], 3, "bad record (Invalid isoformat string: '20100101')"),
        "date-week": (['{"id": "x", "date": "2010-W01-5"}'], 3, "bad record (Invalid isoformat string: '2010-W01-5')"),
        "deep-nesting": (["[" * 100_000], 3, "invalid JSON"),
        "long-int": (['{"id": "x", "date": "2010-01-01", "n": ' + "1" * 5000 + "}"], 3, "invalid JSON"),
    }

    @pytest.mark.usefixtures("parse_path")
    @pytest.mark.parametrize("case", sorted(LOADER_FAULTS))
    def test_article_loader_message_is_exact(self, tmp_path, capsys, case):
        lines, lineno, message = self.LOADER_FAULTS[case]
        articles = tmp_path / "articles.jsonl"
        articles.write_text("\n".join([self.ARTICLE % "a1", self.ARTICLE % "a2", *lines]) + "\n")
        code = run("detect", "--output-dir", str(tmp_path / "out"), "--articles", str(articles))
        assert code == EXIT_INPUT_ERROR
        assert capsys.readouterr().err == f"error: {articles.resolve()}:{lineno}: {message}\n"

    @pytest.mark.usefixtures("parse_path")
    def test_article_loader_non_utf8_message_is_exact(self, tmp_path, capsys):
        articles = tmp_path / "articles.jsonl"
        articles.write_bytes(b"\n".join([(self.ARTICLE % "a1").encode(), b"", b'{"id": "\xff"}']) + b"\n")
        code = run("detect", "--output-dir", str(tmp_path / "out"), "--articles", str(articles))
        assert code == EXIT_INPUT_ERROR
        assert capsys.readouterr().err == f"error: {articles.resolve()}:3: not UTF-8 text (invalid start byte)\n"

    @pytest.mark.usefixtures("parse_path")
    def test_article_between_unicode_spaces_reads(self, tmp_path, capsys):
        """A line is stripped of Unicode whitespace, so "\\x1c" before an article
        and "\\u2028" after it are read as spaces; `str.splitlines` would
        split the line at either."""
        articles = tmp_path / "articles.jsonl"
        lines = [self.ARTICLE % "a1", "\x1c" + self.ARTICLE % "x" + "\u2028"]
        articles.write_text("\n".join(lines) + "\n", encoding="utf-8")
        code = run("detect", "--output-dir", str(tmp_path / "out"), "--articles", str(articles))
        assert code == EXIT_OK
        assert capsys.readouterr().out == "detect: labeled 2 articles (2 hate_crime)\n"

    # Nesting deeper than json's recursion limit is invalid JSON in the
    # config and the model file, as in an article line (`LOADER_FAULTS`).
    DEEP = "[" * 100_000

    def test_deeply_nested_config_is_invalid_json(self, tmp_path, capsys):
        config = tmp_path / "c.json"
        config.write_text(self.DEEP)
        code = main(["detect", "--config", str(config), "--output-dir", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert code == EXIT_INPUT_ERROR
        assert err.startswith(f"error: config {config} is not valid JSON: maximum recursion depth exceeded")
        assert len(err.splitlines()) == 1

    def test_deeply_nested_model_file_is_unreadable(self, tmp_path, capsys):
        model = tmp_path / "model.json"
        model.write_text(self.DEEP)
        config = tmp_path / "c.json"
        config.write_text(json.dumps(absolute_config(detector_source="baseline", detector_model=str(model))))
        code = main(["detect", "--config", str(config), "--output-dir", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert code == EXIT_INPUT_ERROR
        assert err.startswith(f"error: cannot read model file {model}: maximum recursion depth exceeded")
        assert len(err.splitlines()) == 1

    @pytest.mark.parametrize(
        "span, models, name, covers",
        [
            (("2006Q1", "2019Q4"), "6,7", "panel.csv", "panel covers 2007Q1..2019Q4"),
            (("2007Q1", "2020Q1"), "6,7", "panel.csv", "panel covers 2007Q1..2019Q4"),
            (("2007Q1", "2019Q4"), "2", "covariates.csv", "covariates cover 2007Q1..2016Q3"),
            (("2007Q1", "2019Q4"), "2", "fbi.csv", "fbi series covers 2007Q1..2016Q3"),
        ],
        ids=["before", "after", "covariates", "fbi"],
    )
    def test_panel_not_covering_the_span_exits_2(self, tmp_path, capsys, span, models, name, covers):
        """The span reaches past the panel, or a national input is cut after
        2016Q3: the message names the file that falls short."""
        path = (FIXTURES / name).resolve()
        if name != "panel.csv":
            lines = path.read_text().splitlines()
            path = tmp_path / name
            cut = ("2016,4,", "2017,", "2018,", "2019,")
            path.write_text("\n".join(line for line in lines if not line.startswith(cut)) + "\n")
        key = {"panel.csv": "panel", "covariates.csv": "covariates", "fbi.csv": "fbi_series"}[name]
        config = tmp_path / "c.json"
        config.write_text(json.dumps(absolute_config(fit_start=span[0], holdout_end=span[1], **{key: str(path)})))
        code = main(["fit-forecast", "--config", str(config), "--output-dir", str(tmp_path / "out"), "--models", models])
        err = capsys.readouterr().err
        assert code == EXIT_INPUT_ERROR
        assert f"error: {path}: {covers}, need {span[0]}..{span[1]}" in err

    @pytest.mark.parametrize("kept", [1, 0], ids=["one-state", "no-state"])
    def test_panel_with_under_2_balanced_states_exits_2_naming_file(self, tmp_path, capsys, kept):
        """One state in the file, or none with fbi_num at 2010Q1."""
        lines = (FIXTURES / "panel.csv").read_text().splitlines()
        if kept:
            lines = [lines[0], *(line for line in lines if line.startswith("CA,"))]
        else:
            column = lines[0].split(",").index("fbi_num")
            for row, line in enumerate(lines):
                cells = line.split(",")
                if cells[1:3] == ["2010", "1"]:
                    cells[column] = ""
                    lines[row] = ",".join(cells)
        panel = tmp_path / "panel.csv"
        panel.write_text("\n".join(lines) + "\n")
        code = run("fit-forecast", "--output-dir", str(tmp_path / "out"), "--models", "6,7", "--panel", str(panel))
        err = capsys.readouterr().err
        assert code == EXIT_INPUT_ERROR
        assert err == f"error: {panel.resolve()}: panel models need 2 states with fbi_num over the span, got {kept}\n"

    def test_retained_state_without_holdout_actual_exits_2(self, tmp_path):
        # A state without an fbi_num value in the holdout has no actual to
        # score against, so balancing drops it and the others are fitted.
        lines = (FIXTURES / "panel.csv").read_text().splitlines()
        row = lines.index(next(line for line in lines if line.startswith("CA,2019,4,")))
        cells = lines[row].split(",")
        cells[3] = ""
        lines[row] = ",".join(cells)
        blank = tmp_path / "panel.csv"
        blank.write_text("\n".join(lines) + "\n")
        out = tmp_path / "out"
        assert run("fit-forecast", "--output-dir", str(out), "--models", "6,7", "--panel", str(blank)) == EXIT_OK
        payload = json.loads((out / "panel_report.json").read_text())
        assert payload["balance"]["dropped"] == ["CA"]
        golden = json.loads((GOLDEN / "panel_report.json").read_text())
        assert payload["balance"]["retained_units"] == golden["balance"]["retained_units"] - 1

    @pytest.mark.parametrize(
        "name, row_start, models, unit, quarter, report",
        [
            ("panel.csv", "CA,2019,4,", "6", "CA", "2019Q4", "panel_report.json"),
            ("covariates.csv", "2019,4,", "2", "national", "2019Q4", "report.json"),
            ("panel.csv", "CA,2012,2,", "6", "CA", "2012Q2", "panel_report.json"),
        ],
        ids=["panel", "covariates", "panel-fit-range"],
    )
    def test_blank_holdout_predictor_exits_2_naming_file(
        self, tmp_path, capsys, name, row_start, models, unit, quarter, report
    ):
        lines = (FIXTURES / name).read_text().splitlines()
        column = lines[0].split(",").index("population")
        row = next(i for i, line in enumerate(lines) if line.startswith(row_start))
        cells = lines[row].split(",")
        cells[column] = ""
        lines[row] = ",".join(cells)
        blank = tmp_path / name
        blank.write_text("\n".join(lines) + "\n")
        out = tmp_path / "out"
        code = run("fit-forecast", "--output-dir", str(out), "--models", models, "--" + name[:-4], str(blank))
        err = capsys.readouterr().err
        assert code == EXIT_INPUT_ERROR
        assert f"error: {blank.resolve()}: missing predictor 'population' for unit '{unit}' at {quarter}" in err
        assert "Traceback" not in err
        assert not (out / report).exists()

    @pytest.mark.parametrize("row", [1, -1], ids=["first", "last"])
    def test_blank_fbi_edge_exits_2_naming_file(self, tmp_path, capsys, row):
        lines = (FIXTURES / "fbi.csv").read_text().splitlines()
        lines[row] = lines[row].rsplit(",", 1)[0] + ","
        blank = tmp_path / "fbi.csv"
        blank.write_text("\n".join(lines) + "\n")
        code = run("decompose", "--output-dir", str(tmp_path / "out"), "--fbi-series", str(blank))
        err = capsys.readouterr().err
        assert code == EXIT_INPUT_ERROR
        assert f"error: {blank.resolve()}: series 'fbi_num' has missing values" in err

    def test_output_dir_naming_a_file_exits_2(self, tmp_path, capsys):
        occupied = tmp_path / "out"
        occupied.write_text("")
        code = run("decompose", "--output-dir", str(occupied))
        err = capsys.readouterr().err
        assert code == EXIT_INPUT_ERROR
        assert f"error: cannot create output directory {occupied.resolve()}" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "command, output",
        [("signals", "signals_national.csv"), ("diagnose", "diagnostics.json"), ("detect", "articles_labeled.jsonl")],
    )
    def test_unwritable_output_exits_2_naming_it(self, tmp_path, capsys, command, output):
        """An output that cannot be written (a directory holds its name; for
        `detect`, the temporary file cannot replace it) exits 2 with one line
        naming the output, and leaves no temporary file."""
        out = tmp_path / "out"
        (out / output).mkdir(parents=True)
        code = run(command, "--output-dir", str(out))
        err = capsys.readouterr().err
        assert code == EXIT_INPUT_ERROR
        assert len(err.splitlines()) == 1
        assert err.startswith(f"error: cannot write {(out / output).resolve()}: ")
        assert "Traceback" not in err
        assert [p.name for p in out.iterdir() if p.name.endswith(".tmp") or ".tmp." in p.name] == []


def test_corpus_commands_build_no_article_records(tmp_path, monkeypatch):
    """The corpus stages read and write columns: no command builds an
    `ArticleRecord` row, on the baseline or the precomputed path."""
    built = []
    monkeypatch.setattr(crimecast.signals.ArticleRecord, "__post_init__", lambda record: built.append(record.id))
    baseline = tmp_path / "baseline.json"
    baseline.write_text(json.dumps(absolute_config(detector_source="baseline", detector_model=str(tmp_path / "m.json"))))
    labeled = tmp_path / "detect" / "articles_labeled.jsonl"
    # The baseline labels no fixture article hate_crime, so its Model 3 fit
    # fails (exit 1) after the articles are labeled and aggregated.
    for code, command, config, *extra in (
        (EXIT_OK, "detect", baseline),
        (EXIT_OK, "signals", baseline),
        (EXIT_OK, "signals", CONFIG, "--gazetteer", str(GAZETTEER)),
        (EXIT_OK, "evaluate-detector", CONFIG, "--articles", str(labeled)),
        (EXIT_OK, "fit-forecast", CONFIG, "--models", "1,2,3,4,5,6,7"),
        (EXIT_MODEL_ERROR, "fit-forecast", baseline, "--models", "3,6"),
    ):
        assert main([command, "--config", str(config), "--output-dir", str(tmp_path / command), *extra]) == code
    assert built == []


# One mutation of one line of the first 40 fixture articles: blank a field,
# cut the line, duplicate it, insert a byte that is not UTF-8, give a field
# another JSON type, or drop predicted_label.
MUTATIONS = ("blank", "cut", "duplicate", "non-utf8", "retype", "drop-label")
ARTICLE_FIELDS = ("id", "date", "title", "body", "gold_label", "predicted_label")
OTHER_TYPES = (None, 0, 1.5, True, [], ["x"], {}, {"id": "x"})
# Exit-2 messages of the label stage, which name no file.
LABEL_ERRORS = (
    r"precomputed labels requested but \d+ records lack predicted_label \(first: '[^']*'\)",
    r"no records carry gold labels",
    r"\d+ gold-labeled records lack predictions \(first: '[^']*'\)",
)


def mutated_articles(line: int, mutation: str, field: str, value, cut: int) -> bytes:
    lines = (FIXTURES / "articles.jsonl").read_bytes().splitlines(keepends=True)[:40]
    target = lines[line]
    record = json.loads(target)
    if mutation == "blank":
        record[field] = ""
    elif mutation == "retype":
        record[field] = value
    elif mutation == "drop-label":
        del record["predicted_label"]
    if mutation in ("blank", "retype", "drop-label"):
        target = json.dumps(record).encode() + b"\n"
    elif mutation == "cut":
        target = target[: cut % len(target)] + b"\n"
    elif mutation == "non-utf8":
        at = cut % len(target)
        target = target[:at] + bytes([0x80 + cut % 0x80]) + target[at:]
    lines[line : line + 1] = [target, target] if mutation == "duplicate" else [target]
    return b"".join(lines)


@pytest.mark.parametrize("parse", sorted(PARSE_PATHS))
@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    st.integers(0, 39),
    st.sampled_from(MUTATIONS),
    st.sampled_from(ARTICLE_FIELDS),
    st.sampled_from(OTHER_TYPES),
    st.integers(0, 10**4),
)
def test_a_mutated_article_file_exits_0_or_2_naming_it(tmp_path_factory, parse, line, mutation, field, value, cut):
    """The corpus commands keep the exit-code contract on an article file
    with one line mutated, on either parse path: each exits 0, or 2 with one
    `error:` line that names the file or is a message of the label stage."""
    work = tmp_path_factory.mktemp("mutated")
    articles = work / "articles.jsonl"
    articles.write_bytes(mutated_articles(line, mutation, field, value, cut))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(signals, "_ORJSON_BYTES", PARSE_PATHS[parse])
        for command in ("detect", "signals", "evaluate-detector"):
            stdout, stderr = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                code = run(command, "--output-dir", str(work / command), "--articles", str(articles))
            errors = [text for text in stderr.getvalue().splitlines() if text.startswith("error:")]
            assert code in (EXIT_OK, EXIT_INPUT_ERROR), (command, code, stderr.getvalue())
            if code == EXIT_INPUT_ERROR:
                assert stderr.getvalue().splitlines() == errors and len(errors) == 1, (command, stderr.getvalue())
                message = errors[0].removeprefix("error: ")
                assert str(articles) in message or any(re.fullmatch(e, message) for e in LABEL_ERRORS), (command, message)
            else:
                assert errors == [], (command, stderr.getvalue())


# One mutation of one line (the header included) of a fixture CSV: blank,
# drop or add a cell, cut the line, duplicate it, swap it with another,
# insert a byte that is not UTF-8, open a quote, or make a cell too large
# for the CSV tokenizer. Each file runs through the commands that read it.
CSV_MUTATIONS = ("blank-cell", "drop-cell", "add-cell", "cut", "duplicate", "swap", "non-utf8", "open-quote", "huge-cell")
CSV_READERS = {
    "panel.csv": ("--panel", (("fit-forecast", "--models", "6,7"),)),
    "covariates.csv": ("--covariates", (("fit-forecast", "--models", "2"),)),
    "fbi.csv": ("--fbi-series", (("decompose",), ("fit-forecast", "--models", "1,2"))),
}


def mutated_csv(name: str, line: int, mutation: str, cut: int) -> bytes:
    lines = (FIXTURES / name).read_bytes().splitlines(keepends=True)
    line %= len(lines)
    target = lines[line]
    cells = target.rstrip(b"\n").split(b",")
    j = cut % len(cells)
    if mutation == "blank-cell":
        cells[j] = b""
    elif mutation == "drop-cell":
        del cells[j]
    elif mutation == "add-cell":
        cells.insert(j, b"1.5")
    elif mutation == "open-quote":
        cells[j] = b'"' + cells[j]
    elif mutation == "huge-cell":
        cells[j] = b"9" * 200_000
    target = b",".join(cells) + b"\n"
    if mutation == "cut":
        target = lines[line][: cut % len(lines[line])] + b"\n"
    elif mutation == "non-utf8":
        at = cut % len(lines[line])
        target = lines[line][:at] + bytes([0x80 + cut % 0x80]) + lines[line][at:]
    elif mutation == "swap":
        other = cut % len(lines)
        lines[other], target = target, lines[other]
    lines[line : line + 1] = [target, target] if mutation == "duplicate" else [target]
    return b"".join(lines)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    st.sampled_from(sorted(CSV_READERS)),
    st.integers(0, 10**4),
    st.sampled_from(CSV_MUTATIONS),
    st.integers(0, 10**4),
)
def test_a_mutated_csv_exits_0_1_or_2_naming_it(tmp_path_factory, name, line, mutation, cut):
    """The commands that read a fixture CSV keep the exit-code contract on a
    copy with one line mutated: each exits 0, 1 with one `model error:`
    line, or 2 with one `error:` line that names the file."""
    work = tmp_path_factory.mktemp("mutated")
    path = work / name
    path.write_bytes(mutated_csv(name, line, mutation, cut))
    flag, commands = CSV_READERS[name]
    for command, *extra in commands:
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = run(command, "--output-dir", str(work / command), *extra, flag, str(path))
        errors = [text for text in stderr.getvalue().splitlines() if not text.startswith("warning:")]
        assert code in (EXIT_OK, EXIT_MODEL_ERROR, EXIT_INPUT_ERROR), (command, code, stderr.getvalue())
        if code == EXIT_OK:
            assert errors == [], (command, stderr.getvalue())
        elif code == EXIT_MODEL_ERROR:
            assert len(errors) == 1 and errors[0].startswith("model error: "), (command, stderr.getvalue())
        else:
            assert len(errors) == 1 and errors[0].startswith(f"error: {path}"), (command, stderr.getvalue())


# One mutation of a settings file, run through commands that read it. The
# config: drop a key, give a key a value of another type, a quarter or an
# ARIMA order out of range, or a path to a missing file or a directory. The
# gazetteer: blank a cell of one line, drop a column of every line, add a
# line with an unknown state or a repeated name, give a line a bad priority,
# or insert a byte that is not UTF-8. The detector's model file: drop a key,
# retype a field, or cut the file.
SETTINGS_MUTATIONS = (
    *(("config", m) for m in ("drop-key", "retype", "bad-quarter", "bad-order", "bad-path")),
    *(("gazetteer", m) for m in ("blank-cell", "drop-column", "unknown-state", "bad-priority", "duplicate-name",
                                 "non-utf8")),
    *(("model", m) for m in ("drop-key", "retype", "cut")),
)
SETTINGS_COMMANDS = {
    "config": (("signals",), ("fit-forecast", "--models", "1,2")),
    "gazetteer": (("signals",),),
    "model": (("detect",),),
}
MODEL = {"vocabulary": {"hate": 2.0, "bias": 1.5, "attack": 1.0}, "bias": -2.0, "threshold": 0.5, "metadata": {"seed": 1}}
PATH_KEYS = ("articles", "gazetteer", "covariates", "fbi_series", "panel", "detector_model", "detector_train")
QUARTER_KEYS = ("fit_start", "fit_end", "holdout_start", "holdout_end")
BAD_QUARTERS = ("2007Q5", "2007Q0", "0Q1", "10000Q1", "2007", "Q1", "2030Q1", "1990Q1")
BAD_ORDERS = ({"arima_order": [-1, 1, 0]}, {"arima_order": [1, 1]}, {"arima_order": [0, 3, 0]},
              {"arima_order": "auto", "arima_max_p": 9}, {"arima_order": "auto", "arima_max_q": -1},
              {"arima_order": [6, 1, 6]})
# Exit-2 messages of a config that name neither it nor a key: a relation
# between keys, or an input that does not cover the config's span.
SETTINGS_ERRORS = (
    r"holdout range must start after the fit range ends",
    r"fit and holdout ranges must be nonempty",
    r"\S+: (fbi series covers|covariates cover|panel covers) \d+Q\d\.\.\d+Q\d, need \d+Q\d\.\.\d+Q\d",
)
# Exit-1 messages that a config's span or ARIMA order may bring about.
SETTINGS_MODEL_ERRORS = (
    r"the Model 1 ARIMA\(\d+,\d+,\d+\) fit did not converge; see arima_model1.json",
    r"the AR\(1\)-error fit did not converge in \d+ Cochrane-Orcutt rounds \(rho \S+\)",
    r"actual value at index \d+ is zero",
    r"no candidate order could be estimated",
)


def mutated_settings(work: Path, target: str, mutation: str, pick: int, cut: int) -> tuple[Path, list[str], list[str]]:
    """The mutated file, the arguments that point a command at it, and the
    words an exit-2 message may name it by besides its path."""
    model = work / "model.json"
    model.write_text(json.dumps(MODEL))
    config = work / "c.json"
    raw = absolute_config(detector_source="baseline", detector_model=str(model))
    if target == "config":
        key, folder = sorted(raw)[pick % len(raw)], work / "folder"
        folder.mkdir()
        if mutation == "drop-key":
            del raw[key]
        elif mutation == "retype":
            raw[key] = OTHER_TYPES[cut % len(OTHER_TYPES)]
        elif mutation == "bad-quarter":
            key = QUARTER_KEYS[pick % len(QUARTER_KEYS)]
            raw[key] = BAD_QUARTERS[cut % len(BAD_QUARTERS)]
        elif mutation == "bad-order":
            raw.update(BAD_ORDERS[cut % len(BAD_ORDERS)])
            key = "arima"  # of arima_order, arima_max_p or arima_max_q
        else:  # a directory, or a file that does not exist
            key = PATH_KEYS[pick % len(PATH_KEYS)]
            raw[key] = str(folder if cut % 2 else folder / "absent")
        config.write_text(json.dumps(raw))
        return config, ["--config", str(config)], [key, key.replace("_", " "), str(folder)]
    config.write_text(json.dumps(raw))
    if target == "model":
        text, payload = json.dumps(MODEL), json.loads(json.dumps(MODEL))
        field = ("vocabulary", "bias", "threshold", "metadata", "hate")[pick % 5]
        holder = payload["vocabulary"] if field == "hate" else payload
        if mutation == "drop-key":
            del holder[field]
        elif mutation == "retype":
            holder[field] = OTHER_TYPES[cut % len(OTHER_TYPES)]
        text = json.dumps(payload) if mutation != "cut" else text[: cut % len(text)]
        model.write_text(text)
        return model, ["--config", str(config)], []
    lines = GAZETTEER.read_bytes().splitlines(keepends=True)
    line = pick % len(lines)
    cells = lines[line].rstrip(b"\n").split(b"\t")
    j = cut % len(cells)
    if mutation == "blank-cell":
        cells[j] = b""
        lines[line] = b"\t".join(cells) + b"\n"
    elif mutation == "drop-column":
        lines = [b"\t".join(c for k, c in enumerate(text.rstrip(b"\n").split(b"\t")) if k != j) + b"\n" for text in lines]
    elif mutation == "unknown-state":
        lines.insert(line, b"Atlantis\tZZ\t2\n")
    elif mutation == "bad-priority":
        lines[line] = b"\t".join(cells[:2] + [(b"0", b"4", b"high", b"2.5", b"")[cut % 5]]) + b"\n"
    elif mutation == "duplicate-name":
        lines.insert(line, cells[0] + b"\tTX\t" + b"123"[cut % 3 : cut % 3 + 1] + b"\n")
    else:
        at = cut % len(lines[line])
        lines[line] = lines[line][:at] + bytes([0x80 + cut % 0x80]) + lines[line][at:]
    gazetteer = work / "gazetteer.tsv"
    gazetteer.write_bytes(b"".join(lines))
    return gazetteer, ["--config", str(config), "--gazetteer", str(gazetteer)], []


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.sampled_from(SETTINGS_MUTATIONS), st.integers(0, 10**4), st.integers(0, 10**4))
def test_a_mutated_config_gazetteer_or_model_exits_0_1_or_2_naming_it(tmp_path_factory, target_mutation, pick, cut):
    """The commands that read the config, the gazetteer or the detector's
    model file keep the exit-code contract on a copy with one mutation: each
    exits 0, 1 with one listed `model error:` line, or 2 with one `error:`
    line that names the file or the config key, or is a listed message of
    the config's span."""
    target, mutation = target_mutation
    work = tmp_path_factory.mktemp("mutated")
    path, argv, words = mutated_settings(work, target, mutation, pick, cut)
    for command, *extra in SETTINGS_COMMANDS[target]:
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = main([command, *argv, "--output-dir", str(work / command), *extra])
        errors = [text for text in stderr.getvalue().splitlines() if not text.startswith("warning:")]
        assert code in (EXIT_OK, EXIT_MODEL_ERROR, EXIT_INPUT_ERROR), (command, code, stderr.getvalue())
        if code == EXIT_OK:
            assert errors == [], (command, stderr.getvalue())
        elif code == EXIT_MODEL_ERROR:
            assert len(errors) == 1 and errors[0].startswith("model error: "), (command, stderr.getvalue())
            message = errors[0].removeprefix("model error: ")
            assert any(re.fullmatch(e, message) for e in SETTINGS_MODEL_ERRORS), (command, message)
        else:
            assert len(errors) == 1 and errors[0].startswith("error: "), (command, stderr.getvalue())
            message = errors[0].removeprefix("error: ")
            named = str(path) in message or any(word in message for word in words)
            assert named or any(re.fullmatch(e, message) for e in SETTINGS_ERRORS), (command, message)


class TestDetect:
    def test_precomputed_passthrough(self, tmp_path):
        assert run("detect", "--output-dir", str(tmp_path)) == EXIT_OK
        labeled = load_articles(tmp_path / "articles_labeled.jsonl")
        original = load_articles(FIXTURES / "articles.jsonl")
        assert [r.predicted_label for r in labeled] == [r.predicted_label for r in original]
        summary = json.loads((tmp_path / "detection_summary.json").read_text())
        assert summary["total"] == len(original)

    def test_missing_labels_rejected(self, tmp_path):
        records = list(load_articles(FIXTURES / "articles.jsonl"))[:5]
        stripped = tmp_path / "unlabeled.jsonl"
        with stripped.open("w") as fh:
            for r in records:
                fh.write(json.dumps({"id": r.id, "date": r.date.isoformat(), "title": r.title, "body": r.body}) + "\n")
        code = run("detect", "--output-dir", str(tmp_path / "out"), "--articles", str(stripped))
        assert code == EXIT_INPUT_ERROR

    def test_baseline_trains_and_labels_deterministically(self, tmp_path):
        raw = json.loads(CONFIG.read_text())
        raw["detector_source"] = "baseline"
        raw["detector_model"] = str(tmp_path / "model.json")
        config_path = tmp_path / "c.json"
        raw["articles"] = str((FIXTURES / "articles.jsonl").resolve())
        raw["detector_train"] = str((FIXTURES / "train_articles.jsonl").resolve())
        raw["gazetteer"] = str((FIXTURES / ".." / ".." / "src" / "crimecast" / "data" / "gazetteer.tsv").resolve())
        raw["covariates"] = str((FIXTURES / "covariates.csv").resolve())
        raw["fbi_series"] = str((FIXTURES / "fbi.csv").resolve())
        raw["panel"] = str((FIXTURES / "panel.csv").resolve())
        config_path.write_text(json.dumps(raw))
        out1, out2 = tmp_path / "o1", tmp_path / "o2"
        assert main(["detect", "--config", str(config_path), "--output-dir", str(out1)]) == EXIT_OK
        assert (tmp_path / "model.json").exists()
        assert main(["detect", "--config", str(config_path), "--output-dir", str(out2)]) == EXIT_OK
        assert (out1 / "articles_labeled.jsonl").read_bytes() == (out2 / "articles_labeled.jsonl").read_bytes()
        labeled = load_articles(out1 / "articles_labeled.jsonl")
        assert all(r.predicted_label is not None for r in labeled)


@pytest.fixture
def chunks_of_3(monkeypatch):
    """Articles are read, labeled and counted three at a time, so the
    fixture corpus crosses 631 chunk boundaries."""
    monkeypatch.setattr(signals, "_CHUNK", 3)


def write_lines(path, lines):
    path.write_text("\n".join(lines) + "\n")
    return path


@pytest.mark.usefixtures("chunks_of_3")
class TestChunkedPass:
    ARTICLE = TestMalformedInput.ARTICLE
    UNLABELED = '{"id": "%s", "date": "2010-01-01", "title": "t", "body": "b"}'

    def test_outputs_match_the_goldens(self, tmp_path):
        goldens = {
            ("signals",): ("signals_national.csv", "signals_by_state.csv"),
            ("fit-forecast", "--models", "1,2,3,4,5"): ("report.json", "predictions_long.csv"),
            ("fit-forecast", "--models", "6,7"): ("panel_report.json",),
            ("evaluate-detector",): ("detector_metrics.json",),
        }
        for i, ((command, *extra), names) in enumerate(goldens.items()):
            out = tmp_path / str(i)
            assert run(command, "--output-dir", str(out), *extra) == EXIT_OK
            for name in names:
                assert (out / name).read_bytes() == (GOLDEN / name).read_bytes(), name

    def test_baseline_labels_match_one_chunk(self, tmp_path, monkeypatch):
        config = tmp_path / "c.json"
        config.write_text(json.dumps(absolute_config(detector_source="baseline", detector_model=str(tmp_path / "m.json"))))
        assert main(["detect", "--config", str(config), "--output-dir", str(tmp_path / "3")]) == EXIT_OK
        monkeypatch.setattr(signals, "_CHUNK", 4096)
        assert main(["detect", "--config", str(config), "--output-dir", str(tmp_path / "4096")]) == EXIT_OK
        for name in ("articles_labeled.jsonl", "detection_summary.json"):
            assert (tmp_path / "3" / name).read_bytes() == (tmp_path / "4096" / name).read_bytes()

    def test_duplicate_id_across_a_chunk_boundary_names_the_later_line(self, tmp_path, capsys):
        articles = write_lines(tmp_path / "a.jsonl", [self.ARTICLE % f"a{i}" for i in range(1, 5)] + [self.ARTICLE % "a2"])
        assert run("detect", "--output-dir", str(tmp_path / "out"), "--articles", str(articles)) == EXIT_INPUT_ERROR
        assert capsys.readouterr().err == f"error: {articles.resolve()}:5: duplicate article id 'a2'\n"

    def test_file_fault_in_the_last_chunk_wins_over_a_blank_text_in_the_first(self, tmp_path, capsys):
        blank = json.dumps({"id": "blank", "date": "2010-01-01", "title": "", "body": "", "predicted_label": "hate_crime"})
        lines = [blank] + [self.ARTICLE % f"a{i}" for i in range(1, 6)]
        articles = write_lines(tmp_path / "a.jsonl", lines)
        assert run("signals", "--output-dir", str(tmp_path / "out"), "--articles", str(articles)) == EXIT_INPUT_ERROR
        assert capsys.readouterr().err == f"error: {articles.resolve()}: article 'blank': text must be nonempty\n"
        write_lines(articles, lines + ["{"])
        assert run("signals", "--output-dir", str(tmp_path / "out"), "--articles", str(articles)) == EXIT_INPUT_ERROR
        assert capsys.readouterr().err == f"error: {articles.resolve()}:7: invalid JSON\n"

    def test_missing_labels_are_counted_over_every_chunk(self, tmp_path, capsys):
        ids = ["a1", "x1", "a2", "a3", "a4", "x2", "x3"]
        articles = write_lines(tmp_path / "a.jsonl", [(self.UNLABELED if i[0] == "x" else self.ARTICLE) % i for i in ids])
        assert run("signals", "--output-dir", str(tmp_path / "out"), "--articles", str(articles)) == EXIT_INPUT_ERROR
        message = "precomputed labels requested but 3 records lack predicted_label (first: 'x1')"
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_missing_predictions_are_counted_over_every_chunk(self, tmp_path, capsys):
        gold = '{"id": "%s", "date": "2010-01-01", "title": "t", "body": "b", "gold_label": "hate_crime"}'
        lines = [self.ARTICLE % "a1", self.ARTICLE[:-1] % "a2" + ', "gold_label": "hate_crime"}', gold % "g1"]
        articles = write_lines(tmp_path / "a.jsonl", lines + [self.UNLABELED % f"u{i}" for i in range(3)] + [gold % "g2"])
        code = run("evaluate-detector", "--output-dir", str(tmp_path / "out"), "--articles", str(articles))
        assert code == EXIT_INPUT_ERROR
        assert capsys.readouterr().err == "error: 2 gold-labeled records lack predictions (first: 'g1')\n"

    def test_detect_writes_its_output_whole_or_not_at_all(self, tmp_path):
        out = tmp_path / "out"
        out.mkdir()
        articles = write_lines(tmp_path / "a.jsonl", [self.ARTICLE % f"a{i}" for i in range(1, 5)] + ["{"])
        assert run("detect", "--output-dir", str(out), "--articles", str(articles)) == EXIT_INPUT_ERROR
        assert list(out.iterdir()) == []
        assert run("detect", "--output-dir", str(out)) == EXIT_OK
        labeled = (out / "articles_labeled.jsonl").read_bytes()
        assert sorted(p.name for p in out.iterdir()) == ["articles_labeled.jsonl", "detection_summary.json"]
        assert run("detect", "--output-dir", str(out), "--articles", str(articles)) == EXIT_INPUT_ERROR
        assert sorted(p.name for p in out.iterdir()) == ["articles_labeled.jsonl", "detection_summary.json"]
        assert (out / "articles_labeled.jsonl").read_bytes() == labeled


@pytest.fixture
def split_in_3(monkeypatch):
    """The corpus pass splits every article file into three line ranges and
    folds the last two in forked workers. The fixture holds what each split
    came to: the number of folds, or None where it fell back to the serial
    pass."""
    monkeypatch.setattr(pipeline, "_MIN_RANGE_BYTES", 1)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
    outcomes = []
    split_pass = pipeline._split_pass

    def recorded(*args):
        folds = split_pass(*args)
        outcomes.append(None if folds is None else len(folds))
        return folds

    monkeypatch.setattr(pipeline, "_split_pass", recorded)
    return outcomes


def assert_no_child_process():
    """Every process this one started has been reaped."""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.skipif(not hasattr(os, "fork"), reason="the split pass forks")
@pytest.mark.usefixtures("split_in_3")
class TestSplitPass(TestChunkedPass):
    """Every test of the chunked pass again, with each article file read,
    labeled and resolved in three line ranges; and the ways a split falls
    back to the serial pass."""

    COMMANDS = (("detect",), ("signals",), ("evaluate-detector",), ("fit-forecast", "--models", "1,2,3,4,5,6,7"))

    def run_all(self, out):
        for i, (command, *extra) in enumerate(self.COMMANDS):
            assert run(command, "--output-dir", str(out / str(i)), *extra) == EXIT_OK
        return {p.relative_to(out): p.read_bytes() for p in sorted(out.rglob("*")) if p.is_file()}

    def serial_outputs(self, out, monkeypatch):
        with monkeypatch.context() as serial:
            serial.setattr(pipeline, "_MIN_RANGE_BYTES", 1 << 62)
            return self.run_all(out)

    def test_each_command_folds_three_ranges(self, tmp_path, monkeypatch, split_in_3):
        split = self.run_all(tmp_path / "split")
        assert split_in_3 == [3] * 4
        assert split == self.serial_outputs(tmp_path / "serial", monkeypatch)
        assert_no_child_process()

    def test_duplicate_id_across_two_worker_ranges_names_the_later_line(self, tmp_path, capsys, split_in_3):
        # Nine lines of one length: ranges hold lines 1-3, 4-6 and 7-9.
        ids = [f"a{i}" for i in range(1, 9)] + ["a5"]
        articles = write_lines(tmp_path / "a.jsonl", [self.ARTICLE % i for i in ids])
        assert run("detect", "--output-dir", str(tmp_path / "out"), "--articles", str(articles)) == EXIT_INPUT_ERROR
        assert capsys.readouterr().err == f"error: {articles.resolve()}:9: duplicate article id 'a5'\n"
        assert split_in_3 == [None]

    def test_a_shared_id_hash_falls_back_to_the_serial_outputs(self, tmp_path, monkeypatch, split_in_3):
        monkeypatch.setattr(pipeline, "hash", lambda value: 0, raising=False)
        split = self.run_all(tmp_path / "split")
        assert split_in_3 == [None] * 4
        assert split == self.serial_outputs(tmp_path / "serial", monkeypatch)

    @pytest.mark.parametrize("sent", [False, True], ids=["before-sending", "after-sending"])
    def test_a_worker_that_dies_falls_back_to_the_serial_outputs(self, tmp_path, monkeypatch, split_in_3, sent):
        send_fold = pipeline._send_fold

        def die(*args):
            if sent:
                send_fold(*args)
            os._exit(1)

        monkeypatch.setattr(pipeline, "_send_fold", die)
        split = self.run_all(tmp_path / "split")
        assert split_in_3 == [None] * 4
        assert split == self.serial_outputs(tmp_path / "serial", monkeypatch)
        assert_no_child_process()

    def test_no_worker_outlives_its_command(self, tmp_path, monkeypatch):
        assert run("signals", "--output-dir", str(tmp_path / "ok")) == EXIT_OK
        assert_no_child_process()
        with monkeypatch.context() as unconverged:
            unconverged.setattr(regression, "_CO_MAX_ITER", 2)
            assert run("fit-forecast", "--output-dir", str(tmp_path / "1"), "--models", "1,5") == EXIT_MODEL_ERROR
        assert_no_child_process()
        # The first range faults, so the workers are stopped before they are heard.
        articles = write_lines(tmp_path / "a.jsonl", ["{"] + [self.ARTICLE % f"a{i}" for i in range(1, 9)])
        assert run("signals", "--output-dir", str(tmp_path / "2"), "--articles", str(articles)) == EXIT_INPUT_ERROR
        assert_no_child_process()


# Runs detect and then signals in one fresh interpreter, whose stdout is a
# pipe and so block-buffered, with every article file split in three.
_STDOUT_PROBE = """
import os, sys
import crimecast.cli as cli, crimecast.pipeline as pipeline
pipeline._MIN_RANGE_BYTES = 1
os.sched_getaffinity = lambda pid: {0, 1, 2}
out, config = sys.argv[1:]
for command in ("detect", "signals"):
    assert cli.main([command, "--config", config, "--output-dir", out]) == 0
"""


@pytest.mark.skipif(not hasattr(os, "fork"), reason="the split pass forks")
def test_split_pass_stdout_holds_each_command_line_once(tmp_path):
    """A forked worker writes out, when it exits, the stdout buffer it
    inherited: unless each fork follows a flush, detect's line, still
    buffered when signals forks, is written twice."""
    env = {**os.environ, "PYTHONPATH": str(Path(crimecast.__file__).parents[1])}
    proc = subprocess.run(
        [sys.executable, "-c", _STDOUT_PROBE, str(tmp_path), str(CONFIG)],
        capture_output=True, text=True, env=env, check=True, timeout=120,
    )
    assert proc.stdout == "detect: labeled 1893 articles (405 hate_crime)\nsignals: 20 states, unknown share 0.0259\n"
    assert proc.stderr == ""


def test_baseline_model_is_ready_before_the_articles_are_read(tmp_path, capsys):
    """The baseline model loads, or trains and is saved, before the article
    file is read: a missing model is written even when the file then fails,
    and a model fault wins over a fault in the file."""
    articles = write_lines(tmp_path / "a.jsonl", [TestMalformedInput.ARTICLE % "a1", "{"])
    model = tmp_path / "model.json"
    config = tmp_path / "c.json"
    config.write_text(json.dumps(absolute_config(detector_source="baseline", detector_model=str(model))))
    argv = ["detect", "--config", str(config), "--output-dir", str(tmp_path / "out"), "--articles", str(articles)]
    assert main(argv) == EXIT_INPUT_ERROR
    assert capsys.readouterr().err == f"error: {articles.resolve()}:2: invalid JSON\n"
    assert model.exists()
    model.write_text("[1, 2]")
    assert main(argv) == EXIT_INPUT_ERROR
    assert capsys.readouterr().err == f"error: model file {model} must hold a JSON object\n"


class TestSignals:
    def test_golden_csvs(self, tmp_path):
        assert run("signals", "--output-dir", str(tmp_path)) == EXIT_OK
        for name in ("signals_national.csv", "signals_by_state.csv"):
            assert (tmp_path / name).read_bytes() == (GOLDEN / name).read_bytes()

    def test_empty_corpus_writes_headers(self, tmp_path):
        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        assert run("signals", "--output-dir", str(tmp_path / "out"), "--articles", str(empty)) == EXIT_OK
        out = tmp_path / "out"
        assert (out / "signals_national.csv").read_bytes() == (
            b"year,quarter,news_num,event_detected_num,hate_reported_index\r\n"
        )
        assert (out / "signals_by_state.csv").read_bytes() == (
            b"year,quarter,state,news_num,event_detected_num,hate_reported_index\r\n"
        )

    def test_bundled_gazetteer_fallback(self, tmp_path):
        raw = json.loads(CONFIG.read_text())
        del raw["gazetteer"]
        for key in ("articles", "covariates", "fbi_series", "panel", "detector_train"):
            raw[key] = str((FIXTURES / raw[key]).resolve())
        path = tmp_path / "c.json"
        path.write_text(json.dumps(raw))
        out = tmp_path / "out"
        assert main(["signals", "--config", str(path), "--output-dir", str(out)]) == EXIT_OK
        assert (out / "signals_by_state.csv").read_bytes() == (GOLDEN / "signals_by_state.csv").read_bytes()

    def test_state_totals_reconcile_with_national(self, tmp_path):
        assert run("signals", "--output-dir", str(tmp_path)) == EXIT_OK
        with (tmp_path / "signals_national.csv").open() as fh:
            national = {(r["year"], r["quarter"]): int(r["news_num"]) for r in csv.DictReader(fh)}
        by_state: dict[tuple, int] = {}
        with (tmp_path / "signals_by_state.csv").open() as fh:
            for r in csv.DictReader(fh):
                key = (r["year"], r["quarter"])
                by_state[key] = by_state.get(key, 0) + int(r["news_num"])
        records = load_articles(FIXTURES / "articles.jsonl")
        assert sum(national.values()) == len(records)
        for key, total in national.items():
            assert by_state.get(key, 0) <= total


    @pytest.mark.parametrize("source", ["precomputed", "baseline"])
    def test_signals_tokenizes_each_article_once(self, tmp_path, monkeypatch, tokenized, source):
        config = tmp_path / "c.json"
        config.write_text(json.dumps(absolute_config(detector_source=source, detector_model=str(tmp_path / "m.json"))))
        argv = ["--config", str(config), "--output-dir", str(tmp_path / "out")]
        if source == "baseline":
            assert main(["detect", *argv]) == EXIT_OK  # trains the model
        tokenized.clear()
        # Each fixture article lacks a state, so each is resolved, and from
        # the chunked pass: the one-text resolver must not run.
        resolve_state = geo.resolve_state

        def one_at_a_time(text, gazetteer):
            raise AssertionError("geo.resolve_state called")

        for module in [m for name, m in sys.modules.items() if name.startswith("crimecast.")]:
            if getattr(module, "resolve_state", None) is resolve_state:
                monkeypatch.setattr(module, "resolve_state", one_at_a_time)
        assert main(["signals", *argv]) == EXIT_OK
        texts = Counter(r.text() for r in load_articles(FIXTURES / "articles.jsonl"))
        assert {text: tokenized[text] for text in texts} == texts


def zero_panel_dependent(path: Path) -> Path:
    """The fixture panel, with fbi_num 0 in every row, written to `path`."""
    with (FIXTURES / "panel.csv").open(newline="") as fh:
        rows = list(csv.reader(fh))
    j = rows[0].index("fbi_num")
    for row in rows[1:]:
        row[j] = "0"
    with path.open("w", newline="") as fh:
        csv.writer(fh, lineterminator="\n").writerows(rows)
    return path


class TestFitForecast:
    def test_national_report_golden(self, tmp_path):
        assert run("fit-forecast", "--output-dir", str(tmp_path), "--models", "1,2,3,4,5") == EXIT_OK
        for name in ("report.json", "predictions_long.csv", "arima_model1.json"):
            assert (tmp_path / name).read_bytes() == (GOLDEN / name).read_bytes()

    def test_five_row_report_shape(self, tmp_path):
        assert run("fit-forecast", "--output-dir", str(tmp_path), "--models", "1,2,3,4,5") == EXIT_OK
        payload = json.loads((tmp_path / "report.json").read_text())
        assert [m["Models"] for m in payload["models"]] == [f"Model {k}" for k in range(1, 6)]
        for row in payload["models"]:
            assert list(row) == ["Models", "R-Squared", "Log Likelihood", "RMSE", "MAPE"]

    def test_panel_report_golden(self, tmp_path):
        assert run("fit-forecast", "--output-dir", str(tmp_path), "--models", "6,7") == EXIT_OK
        assert (tmp_path / "panel_report.json").read_bytes() == (GOLDEN / "panel_report.json").read_bytes()

    def test_panel_report_contents(self, tmp_path):
        assert run("fit-forecast", "--output-dir", str(tmp_path), "--models", "6,7") == EXIT_OK
        payload = json.loads((tmp_path / "panel_report.json").read_text())
        assert [m["Models"] for m in payload["models"]] == ["Model 6", "Model 7"]
        assert "levene" in payload and "paired_t" in payload and "hausman" in payload
        assert set(payload["means"]) == {"actual", "Model 6", "Model 7"}
        # event signals help: Model 7 beats Model 6 on the synthetic world
        assert payload["models"][1]["RMSE"] < payload["models"][0]["RMSE"]

    def test_rerun_byte_identical(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            assert run("fit-forecast", "--output-dir", str(out), "--models", "1,2,3,4,5,6,7") == EXIT_OK
        for name in ("report.json", "panel_report.json", "predictions_long.csv"):
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_decomposition_csvs_emitted(self, tmp_path):
        assert run("fit-forecast", "--output-dir", str(tmp_path), "--models", "1") == EXIT_OK
        with (tmp_path / "decomposition.csv").open() as fh:
            header = fh.readline().strip()
        assert header == "year,quarter,observed,trend,seasonal,irregular"
        with (tmp_path / "fbi_quarterly.csv").open() as fh:
            assert fh.readline().strip() == "year,quarter,value"

    def test_unconverged_model5_exits_1(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(regression, "_CO_MAX_ITER", 2)
        out = tmp_path / "out"
        code = run("fit-forecast", "--output-dir", str(out), "--models", "1,5")
        err = capsys.readouterr().err
        assert code == EXIT_MODEL_ERROR
        assert "model error: the AR(1)-error fit did not converge in 2 Cochrane-Orcutt rounds" in err
        assert "Traceback" not in err
        assert not (out / "report.json").exists()

    def test_all_zero_panel_dependent_exits_1(self, tmp_path, capsys):
        # Both random-effects variance components are zero, so theta is
        # undefined: the fit fails as a model error, and the zero actual
        # values then stop the scoring.
        zeros = zero_panel_dependent(tmp_path / "panel.csv")
        code = run("fit-forecast", "--output-dir", str(tmp_path / "out"), "--models", "6", "--panel", str(zeros))
        err = capsys.readouterr().err
        assert code == EXIT_MODEL_ERROR
        assert err.splitlines() == ["model error: actual value at index 0 is zero"]
        assert "Traceback" not in err

    def test_model1_forecasts_a_holdout_that_starts_later(self, tmp_path):
        # Fit to 2017Q4, holdout 2019Q1..2019Q4: the drift forecast of 2019Qk
        # is the deseasonalized 2017Q4 plus 4 + k drift steps.
        config = tmp_path / "c.json"
        config.write_text(json.dumps(absolute_config(fit_end="2017Q4")))
        out = tmp_path / "out"
        assert main(["decompose", "--config", str(config), "--output-dir", str(out)]) == EXIT_OK
        with (out / "fbi_num_noseasonnal.csv").open() as fh:
            last = next(float(r["value"]) for r in csv.DictReader(fh) if (r["year"], r["quarter"]) == ("2017", "4"))
        argv = ["fit-forecast", "--config", str(config), "--output-dir", str(out), "--models", "1,2"]
        assert main(argv) == EXIT_OK
        drift = json.loads((out / "arima_model1.json").read_text())["constant"]
        with (out / "predictions_long.csv").open() as fh:
            model1 = [(r["year"], r["quarter"], float(r["predicted"])) for r in csv.DictReader(fh) if r["model"] == "Model 1"]
        expected = [("2019", str(k), pytest.approx(last + (4 + k) * drift, rel=1e-9)) for k in range(1, 5)]
        assert model1 == expected


class TestModel1Readings:
    @pytest.mark.parametrize("reading,order", [("drift", [0, 1, 0]), ("ar1", [1, 0, 0])])
    def test_equation_reading_selects_spec(self, tmp_path, reading, order):
        raw = json.loads(CONFIG.read_text())
        raw["arima_order"] = reading
        for key in ("articles", "covariates", "fbi_series", "panel", "gazetteer", "detector_train"):
            raw[key] = str((FIXTURES / raw[key]).resolve()) if not str(raw[key]).startswith("/") else raw[key]
        raw["gazetteer"] = str((FIXTURES / "../../src/crimecast/data/gazetteer.tsv").resolve())
        path = tmp_path / "c.json"
        path.write_text(json.dumps(raw))
        out = tmp_path / "out"
        assert main(["fit-forecast", "--config", str(path), "--output-dir", str(out), "--models", "1"]) == EXIT_OK
        summary = json.loads((out / "arima_model1.json").read_text())
        assert summary["order"] == order
        assert summary["converged"] is True

    def test_auto_reading_selects_differenced_orders(self, tmp_path):
        raw = json.loads(CONFIG.read_text())
        raw["arima_order"] = "auto"
        raw["gazetteer"] = str((FIXTURES / "../../src/crimecast/data/gazetteer.tsv").resolve())
        for key in ("articles", "covariates", "fbi_series", "panel", "detector_train"):
            raw[key] = str((FIXTURES / raw[key]).resolve()) if not str(raw[key]).startswith("/") else raw[key]
        path = tmp_path / "c.json"
        path.write_text(json.dumps(raw))
        out = tmp_path / "out"
        assert main(["fit-forecast", "--config", str(path), "--output-dir", str(out), "--models", "1"]) == EXIT_OK
        summary = json.loads((out / "arima_model1.json").read_text())
        assert summary["order"][1] == 1


    def test_boundary_model1_is_reported_not_failed(self, tmp_path, capsys):
        # The CSS optimum of the fixture's ARIMA(1,1,1) has its MA root on the
        # unit circle: the fit stops there and says so.
        path = tmp_path / "c.json"
        path.write_text(json.dumps(absolute_config(arima_order=[1, 1, 1])))
        out = tmp_path / "out"
        code = main(["fit-forecast", "--config", str(path), "--output-dir", str(out), "--models", "1,2"])
        assert code == EXIT_OK, capsys.readouterr().err
        summary = json.loads((out / "arima_model1.json").read_text())
        assert summary["converged"] is True and summary["ma_boundary"] is True
        assert summary["ma_coeffs"][0] == pytest.approx(-1.0, abs=1e-3)
        assert main(["diagnose", "--config", str(path), "--output-dir", str(out)]) == EXIT_OK
        payload = json.loads((out / "diagnostics.json").read_text())
        assert payload["model1_converged"] is True and payload["model1_ma_boundary"] is True

    def test_unconverged_model1_exits_1_without_report(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(arima, "_MAX_ITER", 2)
        path = tmp_path / "c.json"
        path.write_text(json.dumps(absolute_config(arima_order=[5, 2, 5])))
        out = tmp_path / "out"
        code = main(["fit-forecast", "--config", str(path), "--output-dir", str(out), "--models", "1,2"])
        err = capsys.readouterr().err
        assert code == EXIT_MODEL_ERROR
        assert "model error: the Model 1 ARIMA(5,2,5) fit did not converge" in err
        assert "Traceback" not in err
        assert json.loads((out / "arima_model1.json").read_text())["converged"] is False
        assert not (out / "report.json").exists() and not (out / "predictions_long.csv").exists()


class TestOtherCommands:
    def test_diagnose_outputs(self, tmp_path):
        assert run("diagnose", "--output-dir", str(tmp_path)) == EXIT_OK
        assert (tmp_path / "diagnostics.json").read_bytes() == (GOLDEN / "diagnostics.json").read_bytes()
        payload = json.loads((tmp_path / "diagnostics.json").read_text())
        assert set(payload["adf"]) == {"fbi_num", "fbi_num_noseasonnal", "d_fbi_num_noseasonnal"}
        assert payload["ljung_box_irregular"]["p_value"] <= 1.0
        assert payload["adf"]["fbi_num"]["p_value"] > 0.05
        assert payload["adf"]["d_fbi_num_noseasonnal"]["p_value"] < 0.05
        assert 0.0 <= payload["model1_residual_durbin_watson"] <= 4.0
        assert payload["model1_converged"] is True
        assert payload["model1_ma_boundary"] is False

    def test_diagnose_flags_an_unconverged_model1(self, tmp_path, monkeypatch):
        monkeypatch.setattr(arima, "_MAX_ITER", 2)
        path = tmp_path / "c.json"
        path.write_text(json.dumps(absolute_config(arima_order=[5, 2, 5])))
        assert main(["diagnose", "--config", str(path), "--output-dir", str(tmp_path / "out")]) == EXIT_OK
        payload = json.loads((tmp_path / "out" / "diagnostics.json").read_text())
        assert payload["model1_converged"] is False

    def test_decompose_outputs(self, tmp_path):
        assert run("decompose", "--output-dir", str(tmp_path)) == EXIT_OK
        assert (tmp_path / "fbi_num_noseasonnal.csv").exists()

    def test_evaluate_detector_golden(self, tmp_path):
        assert run("evaluate-detector", "--output-dir", str(tmp_path)) == EXIT_OK
        assert (tmp_path / "detector_metrics.json").read_bytes() == (GOLDEN / "detector_metrics.json").read_bytes()
        payload = json.loads((tmp_path / "detector_metrics.json").read_text())
        assert set(payload) == {"Precision", "Recall", "F1", "counts"}


# Runs in a fresh interpreter: prints, after each step, the scipy modules
# loaded so far as one JSON line.
_SCIPY_PROBE = """
import json, sys
def loaded():
    print(json.dumps(sorted(m for m in sys.modules if m.split(".")[0] == "scipy")))
import crimecast.cli
loaded()
out, *configs = sys.argv[1:]
for config in configs:
    for command in ("detect", "signals", "evaluate-detector", "decompose", "diagnose"):
        assert crimecast.cli.main([command, "--config", config, "--output-dir", out]) == 0
        loaded()
    models = ["--models", "1,2,3,4,5,6,7"]
    assert crimecast.cli.main(["fit-forecast", "--config", config, "--output-dir", out, *models]) == 0
    loaded()
"""


def test_commands_import_only_the_scipy_they_call(tmp_path):
    """Importing the CLI loads no scipy, and neither does any of the six
    commands on the fixture world, with Model 1 read as `drift` or as `ar1`:
    only an MA term needs scipy (the banded solve of the MA filter), and the
    p-values and least-squares solves use `math` and numpy."""
    configs = []
    for reading in ("drift", "ar1"):
        path = tmp_path / f"{reading}.json"
        path.write_text(json.dumps(absolute_config(arima_order=reading)))
        configs.append(str(path))
    env = {**os.environ, "PYTHONPATH": str(Path(crimecast.__file__).parents[1])}
    proc = subprocess.run(
        [sys.executable, "-c", _SCIPY_PROBE, str(tmp_path / "out"), *configs],
        capture_output=True,
        text=True,
        env=env,
        check=True,
        timeout=120,
    )
    steps = [json.loads(line) for line in proc.stdout.splitlines() if line.startswith("[")]
    assert steps == [[]] * 13


def test_fit_forecast_stderr_names_no_source_line(tmp_path, capsys):
    """A library warning reaches stderr as one `warning: ...` line; the
    fixture panel's random-effects fit truncates sigma2_u."""
    assert run("fit-forecast", "--output-dir", str(tmp_path), "--models", "1,2,3,4,5,6,7") == EXIT_OK
    out, err = capsys.readouterr()
    assert err == "warning: negative sigma2_u estimate truncated at zero\n"
    assert out == (
        "fit-forecast: wrote report.json with 5 national model rows\n"
        "fit-forecast: wrote panel_report.json with 2 panel model rows\n"
    )


def test_small_article_files_import_no_multiprocessing(tmp_path):
    """The fixture's article file is one range: `signals` and
    `fit-forecast` on it run without importing multiprocessing, which
    would add to their cold start."""
    probe = (
        "import sys, crimecast.cli as cli\n"
        "for argv in (['signals'], ['fit-forecast', '--models', '1,2,3,4,5,6,7']):\n"
        "    assert cli.main([*argv, '--config', sys.argv[1], '--output-dir', sys.argv[2]]) == 0\n"
        "print('multiprocessing' in sys.modules)\n"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(crimecast.__file__).parents[1])}
    proc = subprocess.run(
        [sys.executable, "-c", probe, str(CONFIG), str(tmp_path)],
        capture_output=True, text=True, env=env, check=True, timeout=120,
    )
    assert proc.stdout.splitlines()[-1] == "False"


# Runs the six commands on the fixture world in a fresh interpreter and
# prints whether orjson is loaded; then reads an article file of exactly
# `signals._ORJSON_BYTES` and prints it again.
_ORJSON_PROBE = """
import sys, crimecast.cli as cli
config, out, big = sys.argv[1:]
for argv in (["detect"], ["signals"], ["evaluate-detector"], ["decompose"], ["diagnose"],
             ["fit-forecast", "--models", "1,2,3,4,5,6,7"]):
    assert cli.main([*argv, "--config", config, "--output-dir", out]) == 0
print("orjson" in sys.modules)
from crimecast import signals
line = b'{"id": "a", "date": "2010-01-01", "body": "%s"}\\n'
with open(big, "wb") as fh:
    fh.write(line % (b"b" * (signals._ORJSON_BYTES - len(line % b""))))
assert [len(chunk) for chunk in signals.read_articles(big)] == [1]
print("orjson" in sys.modules)
"""


def test_only_an_article_file_at_the_gate_loads_orjson(tmp_path):
    """The fixture's article files are under `signals._ORJSON_BYTES`, so the
    six commands on it never import orjson (3-9 ms of cold start); a file
    of that size loads it."""
    env = {**os.environ, "PYTHONPATH": str(Path(crimecast.__file__).parents[1])}
    proc = subprocess.run(
        [sys.executable, "-c", _ORJSON_PROBE, str(CONFIG), str(tmp_path / "out"), str(tmp_path / "big.jsonl")],
        capture_output=True, text=True, env=env, check=True, timeout=120,
    )
    assert proc.stdout.splitlines()[-2:] == ["False", "True"]


# Runs `signals` on one line range in a fresh interpreter and prints its
# exit code and the process's own peak RSS in kB. That is VmHWM, the
# high-water mark of the memory map the interpreter runs in: `ru_maxrss`
# would also count the RSS that the parent (here the test process) had when
# it started the child. One range, so that the process reads every article.
_RSS_PROBE = """
import re, sys
import crimecast.cli
crimecast.pipeline._MIN_RANGE_BYTES = 1 << 62
code = crimecast.cli.main(["signals", *sys.argv[1:]])
with open("/proc/self/status") as fh:
    print(code, re.search(r"VmHWM:\\s*(\\d+) kB", fh.read()).group(1))
"""


@pytest.mark.skipif(not Path("/proc/self/status").exists(), reason="reads VmHWM from /proc")
def test_signals_peak_memory_barely_grows_with_the_corpus(tmp_path):
    """`signals` holds the text of one chunk at a time: from 4,000 to 40,000
    articles its peak RSS grows by at most 0.25 MB per 1,000 articles. A
    corpus held whole grows it by about 0.55 MB per 1,000 on these articles,
    the id set of the duplicate check alone by about 0.15."""
    env = {**os.environ, "PYTHONPATH": str(Path(crimecast.__file__).parents[1])}
    cities = ("Los Angeles", "Houston", "Buffalo", "Miami", "Chicago", "Seattle", "Atlanta")
    peak_mb = {}
    for n in (4_000, 40_000):
        articles = tmp_path / f"{n}.jsonl"
        with articles.open("w") as fh:
            for i in range(n):
                city = cities[i % len(cities)]
                record = {
                    "id": f"art{i:06d}",
                    "date": f"{2007 + i % 13}-{1 + i % 12:02d}-15",
                    "title": f"Report from {city}",
                    "body": f"Police investigated a reported bias incident near {city} after witnesses described slurs.",
                    "predicted_label": "hate_crime" if i % 5 == 0 else "not_hate_crime",
                }
                fh.write(json.dumps(record) + "\n")
        argv = ["--config", str(CONFIG), "--output-dir", str(tmp_path / str(n)), "--articles", str(articles)]
        proc = subprocess.run(
            [sys.executable, "-c", _RSS_PROBE, *argv], capture_output=True, text=True, env=env, check=True, timeout=120
        )
        code, kb = proc.stdout.split()[-2:]
        assert code == "0"
        peak_mb[n] = int(kb) / 1024
    assert (peak_mb[40_000] - peak_mb[4_000]) / 36 <= 0.25, peak_mb


def imported(path: Path) -> set[str]:
    """The top-level modules that `path` imports; a crimecast module, which
    `src/` imports relatively, by its own name (`from . import geo` and
    `from .geo import x` give `geo`)."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            names |= {alias.name.split(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom):
            names |= {alias.name for alias in node.names} if node.module is None else {node.module.split(".")[0]}
    return names


def test_cli_only_runs_the_stages():
    """`cli` converts the config and maps errors to exit codes: it imports
    no stage module nor what the stages use to compute and fork, and
    defines no command; `pipeline`, which holds them, parses no argv."""
    package = Path(crimecast.__file__).parent
    stages = {"signals", "geo", "detector", "panel", "evaluation", "stattests", "regression"}
    assert imported(package / "cli.py") & {"numpy", "os", "shutil", "multiprocessing", *stages} == set()
    tree = ast.parse((package / "cli.py").read_text())
    assert [node.name for node in tree.body if isinstance(node, ast.FunctionDef) and node.name.startswith("cmd_")] == []
    assert "argparse" not in imported(package / "pipeline.py")
    assert {"numpy", "os", "multiprocessing", *stages} <= imported(package / "pipeline.py")


# ------------------------------------------------------ the process entry
# `python -m crimecast.cli` runs `cli.console`, which freezes the collector's
# objects before the interpreter's final collections; `main` never does.


def run_process(*argv: str, probe: str | None = None) -> subprocess.CompletedProcess:
    """A fresh interpreter running `python -m crimecast.cli ARGV`, or the
    code `probe` with ARGV as its arguments."""
    env = {**os.environ, "PYTHONPATH": str(Path(crimecast.__file__).parents[1])}
    entry = ["-m", "crimecast.cli"] if probe is None else ["-c", probe]
    return subprocess.run([sys.executable, *entry, *argv], capture_output=True, text=True, env=env, timeout=120)


FIXTURE_COMMANDS = (
    ("detect",), ("signals",), ("decompose",), ("diagnose",), ("fit-forecast", "--models", "1,2,3,4,5,6,7"),
    ("evaluate-detector",),
)


@pytest.mark.parametrize("case", ["exit-0", "exit-1-all-zero-panel-dependent", "exit-2-bad-config"])
def test_a_command_process_exits_as_main_returns(tmp_path, capsys, case):
    out = str(tmp_path / "out")
    if case == "exit-0":
        expected, argv = EXIT_OK, ["decompose", "--config", str(CONFIG), "--output-dir", out]
    elif case == "exit-1-all-zero-panel-dependent":
        zeros = zero_panel_dependent(tmp_path / "panel.csv")
        expected = EXIT_MODEL_ERROR
        argv = ["fit-forecast", "--config", str(CONFIG), "--output-dir", out, "--models", "6", "--panel", str(zeros)]
    else:
        config = tmp_path / "c.json"
        config.write_text(json.dumps(absolute_config(seed=-1)))
        expected, argv = EXIT_INPUT_ERROR, ["decompose", "--config", str(config), "--output-dir", out]
    code = main(argv)
    in_process = capsys.readouterr()
    assert code == expected
    proc = run_process(*argv)
    assert (proc.returncode, proc.stdout, proc.stderr) == (code, in_process.out, in_process.err)


# Writes to stdout's block buffer, registers an atexit handler and runs the
# process entry on its arguments.
_EXIT_PROBE = """
import atexit, gc, sys
import crimecast.cli as cli
atexit.register(lambda: print("atexit: frozen", gc.get_freeze_count() > 0))
sys.stdout.write("buffered, ")
cli.console()
"""


def test_the_process_entry_freezes_and_then_exits_normally(tmp_path):
    """After the freeze, atexit handlers still run and stdout's buffer is
    flushed."""
    proc = run_process("decompose", "--config", str(CONFIG), "--output-dir", str(tmp_path), probe=_EXIT_PROBE)
    assert (proc.returncode, proc.stderr) == (EXIT_OK, "")
    assert proc.stdout == "buffered, decompose: period 4, 52 quarters\natexit: frozen True\n"


def test_main_in_process_freezes_nothing(tmp_path):
    for i, (command, *extra) in enumerate(FIXTURE_COMMANDS):
        assert run(command, "--output-dir", str(tmp_path / str(i)), *extra) == EXIT_OK
    assert gc.get_freeze_count() == 0


def test_only_the_process_entry_freezes():
    """`gc.freeze` is named once in `src/`, by `cli.console`."""
    package = Path(crimecast.__file__).parent
    callers = [
        (path.stem, node.name)
        for path in sorted(package.glob("*.py"))
        for node in ast.parse(path.read_text()).body
        if isinstance(node, ast.FunctionDef)
        and any(isinstance(n, ast.Attribute) and n.attr == "freeze" for n in ast.walk(node))
    ]
    assert callers == [("cli", "console")]


def unclosed(commands, out: Path, capsys) -> list[str]:
    """Runs each command in process with every ResourceWarning shown, then a
    collection: the warnings, and the output lines, that tell of a resource
    left unclosed."""
    gc.collect()  # the garbage of earlier tests
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", ResourceWarning)
        for i, (command, *extra) in enumerate(commands):
            assert run(command, "--output-dir", str(out / str(i)), *extra) == EXIT_OK
        gc.collect()
    captured = capsys.readouterr()
    lines = (captured.out + captured.err).splitlines()
    return [str(w.message) for w in caught if issubclass(w.category, ResourceWarning)] + [
        line for line in lines if "ResourceWarning" in line or "unclosed" in line
    ]


def test_no_command_leaves_a_file_to_the_collector(tmp_path, capsys):
    """A command process skips the final collections, so no output may
    depend on them: every file is closed, and flushed, by its command."""
    assert unclosed(FIXTURE_COMMANDS, tmp_path, capsys) == []


@pytest.mark.skipif(not hasattr(os, "fork"), reason="the split pass forks")
def test_the_split_pass_leaves_no_file_to_the_collector(tmp_path, capsys, split_in_3):
    assert unclosed(TestSplitPass.COMMANDS, tmp_path, capsys) == []
    assert split_in_3 == [3] * 4
