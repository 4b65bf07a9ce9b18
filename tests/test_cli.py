import csv
import json
import os
import re
import subprocess
import sys
from collections import Counter
from dataclasses import fields
from pathlib import Path

import pytest

import crimecast
from crimecast import arima, cli, geo, regression
from crimecast.cli import EXIT_INPUT_ERROR, EXIT_MODEL_ERROR, EXIT_OK, PipelineConfig, UsageError, load_config, main
from crimecast.signals import load_articles

from conftest import FIXTURES, GAZETTEER, GOLDEN

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
        "raw, named",
        [
            (absolute_config(arima_order=[1, "a", 0]), "'arima_order'"),
            ([absolute_config()], "must be a JSON object"),
            (absolute_config(arima_order=[-1, 1, 0]), "'arima_order'"),
            (absolute_config(arima_order="auto", arima_max_p=9), "'arima_max_p'"),
            (absolute_config(holdout_strat="2019Q1"), "'holdout_strat'"),
            (absolute_config(seed=1.5), "'seed'"),
            (absolute_config(arima_order=[1.7, 1, 0]), "'arima_order'"),
            (absolute_config(arima_order="auto", arima_max_q=1.5), "'arima_max_q'"),
            (absolute_config(seed=-1), "'seed'"),
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
        ],
    )
    def test_malformed_config_exits_2_naming_key(self, tmp_path, capsys, raw, named):
        path = tmp_path / "c.json"
        path.write_text(json.dumps(raw))
        code = main(["fit-forecast", "--config", str(path), "--output-dir", str(tmp_path / "out"), "--models", "1"])
        err = capsys.readouterr().err
        assert code == EXIT_INPUT_ERROR
        assert named in err
        assert "Traceback" not in err

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
        assert sorted(keys) == sorted(f.name for f in fields(PipelineConfig))

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
        [({"bias": 0.0, "threshold": 0.5}, "lacks the key 'vocabulary'"), ([1, 2], "must hold a JSON object")],
        ids=["no-vocabulary", "json-array"],
    )
    def test_malformed_detector_model_exits_2_naming_file(self, tmp_path, capsys, payload, problem):
        model = tmp_path / "model.json"
        model.write_text(json.dumps(payload))
        config = tmp_path / "c.json"
        config.write_text(json.dumps(absolute_config(detector_source="baseline", detector_model=str(model))))
        code = main(["detect", "--config", str(config), "--output-dir", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert code == EXIT_INPUT_ERROR
        assert f"error: model file {model} {problem}" in err
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
    }

    @pytest.mark.parametrize("case", sorted(LOADER_FAULTS))
    def test_article_loader_message_is_exact(self, tmp_path, capsys, case):
        lines, lineno, message = self.LOADER_FAULTS[case]
        articles = tmp_path / "articles.jsonl"
        articles.write_text("\n".join([self.ARTICLE % "a1", self.ARTICLE % "a2", *lines]) + "\n")
        code = run("detect", "--output-dir", str(tmp_path / "out"), "--articles", str(articles))
        assert code == EXIT_INPUT_ERROR
        assert capsys.readouterr().err == f"error: {articles.resolve()}:{lineno}: {message}\n"

    def test_article_loader_non_utf8_message_is_exact(self, tmp_path, capsys):
        articles = tmp_path / "articles.jsonl"
        articles.write_bytes(b"\n".join([(self.ARTICLE % "a1").encode(), b"", b'{"id": "\xff"}']) + b"\n")
        code = run("detect", "--output-dir", str(tmp_path / "out"), "--articles", str(articles))
        assert code == EXIT_INPUT_ERROR
        assert capsys.readouterr().err == f"error: {articles.resolve()}:3: not UTF-8 text (invalid start byte)\n"

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
    monkeypatch.setattr(geo, "_CHUNK", 3)


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
        monkeypatch.setattr(geo, "_CHUNK", 4096)
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
    monkeypatch.setattr(cli, "_MIN_RANGE_BYTES", 1)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
    outcomes = []
    split_pass = cli._split_pass

    def recorded(*args):
        folds = split_pass(*args)
        outcomes.append(None if folds is None else len(folds))
        return folds

    monkeypatch.setattr(cli, "_split_pass", recorded)
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
            serial.setattr(cli, "_MIN_RANGE_BYTES", 1 << 62)
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
        monkeypatch.setattr(cli, "hash", lambda value: 0, raising=False)
        split = self.run_all(tmp_path / "split")
        assert split_in_3 == [None] * 4
        assert split == self.serial_outputs(tmp_path / "serial", monkeypatch)

    @pytest.mark.parametrize("sent", [False, True], ids=["before-sending", "after-sending"])
    def test_a_worker_that_dies_falls_back_to_the_serial_outputs(self, tmp_path, monkeypatch, split_in_3, sent):
        send_fold = cli._send_fold

        def die(*args):
            if sent:
                send_fold(*args)
            os._exit(1)

        monkeypatch.setattr(cli, "_send_fold", die)
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
import crimecast.cli as cli
cli._MIN_RANGE_BYTES = 1
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


# Runs `signals` on one line range in a fresh interpreter and prints its
# exit code and the process's own peak RSS in kB. That is VmHWM, the
# high-water mark of the memory map the interpreter runs in: `ru_maxrss`
# would also count the RSS that the parent (here the test process) had when
# it started the child. One range, so that the process reads every article.
_RSS_PROBE = """
import re, sys
import crimecast.cli
crimecast.cli._MIN_RANGE_BYTES = 1 << 62
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
