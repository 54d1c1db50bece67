"""Command-line interface: exit codes, output shape, determinism."""

import contextlib
import csv
import gc
import hashlib
import io
import json
import os
import random
import re
import shutil
import subprocess
import sys
import threading
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import pathmine.engine
from pathmine import cli, ingest
from pathmine.builder import CaseDatabase, CasePair, build_database
from pathmine.cli import main, render_patterns, render_records
from pathmine.engine import MiningOptions, MiningResult, mine
from pathmine.ingest import RawDatabase, load_deliveries, load_diseases, load_kb
from pathmine.oracle import discriminative_support, positive_support
from pathmine.query import compile_query, parse_query
from pathmine.synth import CohortConfig, PlantSpec, generate_cohort, write_cohort

from conftest import ALPHABET, STUDY_QUERY, knowledge_base, make_seq, make_task

PLANT = "N03AG01,438,1|N03AG01,438,1|N03AX14,1023,0|N03AX14,1023,0@9"


@pytest.fixture(scope="module")
def cohort_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("cohort")
    code = main(
        [
            "synth",
            "--patients", "60",
            "--plant", PLANT,
            "--seed", "11",
            "--out-dir", str(out),
        ]
    )
    assert code == 0
    return out


@pytest.fixture()
def query_file(tmp_path):
    path = tmp_path / "study.pmq"
    path.write_text(STUDY_QUERY.replace("min_support 20", "min_support 9"), encoding="utf-8")
    return path


def load(data_dir, query_file):
    """The README's library sequence: the task and database of four CSV files and a query."""
    kb = load_kb(data_dir / "kb_attributes.csv", data_dir / "taxonomy.csv")
    task = compile_query(parse_query(query_file.read_text(encoding="utf-8")), kb)
    raw = RawDatabase(
        load_deliveries(data_dir / "deliveries.csv"), load_diseases(data_dir / "diseases.csv")
    )
    return task, build_database(raw, task, kb)


def mine_args(cohort_dir, query_file, out, extra=()):
    return [
        "mine",
        "--query", str(query_file),
        "--deliveries", str(cohort_dir / "deliveries.csv"),
        "--diseases", str(cohort_dir / "diseases.csv"),
        "--kb", str(cohort_dir / "kb_attributes.csv"),
        "--taxonomy", str(cohort_dir / "taxonomy.csv"),
        "--out", str(out),
        *extra,
    ]


class TestMineCommand:
    def test_end_to_end(self, cohort_dir, query_file, tmp_path, capsys):
        out = tmp_path / "patterns.jsonl"
        assert main(mine_args(cohort_dir, query_file, out)) == 0
        report = json.loads(capsys.readouterr().out)
        lines = out.read_text(encoding="utf-8").splitlines()
        assert report["pattern_count"] == len(lines)
        assert report["complete"] is True
        assert report["patients_with_index"] == 60
        planted = [
            rec
            for rec in map(json.loads, lines)
            if rec["items"]
            == [["N03AG01", "438", 1], ["N03AG01", "438", 1],
                ["N03AX14", "1023", 0], ["N03AX14", "1023", 0]]
        ]
        assert len(planted) == 1
        assert len(planted[0]["discriminative_support"]) == 9

    def test_embeddings_all_flag(self, cohort_dir, query_file, tmp_path):
        out, witness = tmp_path / "patterns.jsonl", tmp_path / "witness.jsonl"
        assert main(mine_args(cohort_dir, query_file, out, ["--embeddings", "all"])) == 0
        assert main(mine_args(cohort_dir, query_file, witness)) == 0
        records = list(map(json.loads, out.read_text(encoding="utf-8").splitlines()))
        for rec in records:
            for embs in rec["embeddings"].values():
                assert embs == sorted(embs)
                assert all(list(e) == sorted(e) for e in embs)
            rec["embeddings"] = {patient: embs[:1] for patient, embs in rec["embeddings"].items()}
        # Each witness-mode record is the all-mode one cut to each patient's leftmost embedding.
        assert records
        assert records == list(map(json.loads, witness.read_text(encoding="utf-8").splitlines()))

    def test_deterministic_output_file(self, cohort_dir, query_file, tmp_path, capsys):
        first = tmp_path / "one.jsonl"
        second = tmp_path / "two.jsonl"
        assert main(mine_args(cohort_dir, query_file, first)) == 0
        assert main(mine_args(cohort_dir, query_file, second)) == 0
        capsys.readouterr()
        assert first.read_bytes() == second.read_bytes()

    def test_budgeted_runs_write_identical_bytes(self, cohort_dir, query_file, tmp_path, capsys):
        first = tmp_path / "one.jsonl"
        second = tmp_path / "two.jsonl"
        # The full run visits 24 nodes.
        budget = ["--max-nodes", "8"]
        assert main(mine_args(cohort_dir, query_file, first, budget)) == 3
        assert main(mine_args(cohort_dir, query_file, second, budget)) == 3
        capsys.readouterr()
        assert first.read_bytes() == second.read_bytes()
        assert first.read_bytes()

    def test_threads_flag_is_gone(self, cohort_dir, query_file, tmp_path, capsys):
        out = tmp_path / "p.jsonl"
        assert main(mine_args(cohort_dir, query_file, out, ["--threads", "4"])) == 1
        assert "usage" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "flag, value",
        [
            ("--max-nodes", "-5"),
            ("--max-seconds", "-1"),
            ("--max-seconds", "nan"),
            ("--max-seconds", "inf"),
            ("--max-len", "0"),
        ],
    )
    def test_bad_option_value_exits_one_before_reading_data(
        self, query_file, tmp_path, capsys, flag, value
    ):
        # The data files are missing, so reading any of them would exit 2.
        out = tmp_path / "p.jsonl"
        assert main(mine_args(tmp_path / "absent", query_file, out, [flag, value])) == 1
        captured = capsys.readouterr()
        assert flag[2:].replace("-", "_") in captured.err
        assert captured.out == ""
        assert not out.exists()

    def test_missing_required_flag_exits_one(self, capsys):
        assert main(["mine", "--query", "q.pmq"]) == 1
        assert "usage" in capsys.readouterr().err

    def test_bad_query_syntax_exits_one(self, cohort_dir, tmp_path, capsys):
        bad = tmp_path / "bad.pmq"
        out = tmp_path / "patterns.jsonl"
        # An integer past Python's 4,300-digit conversion limit is a syntax
        # error at its token.
        for text, error in [
            ("index_event first diagnosis in {G40}\n", "error: "),
            ("min_support " + "1" * 5000 + ";\n", "error: line 1, column 13: "),
        ]:
            bad.write_text(text, encoding="utf-8")
            assert main(mine_args(cohort_dir, bad, out)) == 1
            (line,) = capsys.readouterr().err.splitlines()
            assert line.startswith(error)

    def test_unreadable_query_exits_one(self, cohort_dir, tmp_path):
        out = tmp_path / "patterns.jsonl"
        assert main(mine_args(cohort_dir, tmp_path / "absent.pmq", out)) == 1

    def test_undecodable_query_exits_one_naming_file_and_line(self, cohort_dir, tmp_path, capsys):
        query = tmp_path / "latin1.pmq"
        query.write_bytes(b"min_support 5;\n# caf\xe9\n")
        out = tmp_path / "patterns.jsonl"
        assert main(mine_args(cohort_dir, query, out)) == 1
        err = capsys.readouterr().err
        assert f"{query}:2: not UTF-8: byte 0xe9" in err
        assert "Traceback" not in err
        assert not out.exists()

    @pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="no /dev/fd")
    def test_undecodable_query_through_a_pipe_names_its_line(self, cohort_dir, tmp_path, capsys):
        # The query is read once, so a pipe reports the same line and byte as a file.
        data = b"min_support 5;\n# caf\xe9\n"
        query = tmp_path / "latin1.pmq"
        query.write_bytes(data)
        out = tmp_path / "patterns.jsonl"
        assert main(mine_args(cohort_dir, query, out)) == 1
        from_file = capsys.readouterr().err
        read, write = os.pipe()

        def feed():
            with open(write, "wb") as pipe:
                pipe.write(data)

        writer = threading.Thread(target=feed)
        writer.start()
        try:
            piped = f"/dev/fd/{read}"
            assert main(mine_args(cohort_dir, piped, out)) == 1
        finally:
            os.close(read)
            writer.join(timeout=10)
        assert not writer.is_alive()
        from_pipe = capsys.readouterr().err
        assert f"{query}:2: not UTF-8: byte 0xe9 at column 6" in from_file
        assert from_pipe == from_file.replace(str(query), piped)
        assert not out.exists()

    def test_missing_data_file_exits_two(self, cohort_dir, query_file, tmp_path):
        args = mine_args(cohort_dir, query_file, tmp_path / "p.jsonl")
        args[args.index("--deliveries") + 1] = str(tmp_path / "absent.csv")
        assert main(args) == 2

    def test_query_fault_reported_before_a_missing_kb(self, cohort_dir, tmp_path, capsys):
        # Only the class filter needs the knowledge base, so a projection
        # fault exits 1 before the missing KB file could exit 2.
        query = tmp_path / "dose.pmq"
        query.write_text(STUDY_QUERY.replace("(atc, group, generic)", "(atc, dose)"), "utf-8")
        out = tmp_path / "p.jsonl"
        args = mine_args(cohort_dir, query, out)
        args[args.index("--kb") + 1] = str(tmp_path / "absent.csv")
        assert main(args) == 1
        captured = capsys.readouterr()
        assert captured.err == "error: unknown item attribute 'dose' in projection\n"
        assert captured.out == ""
        assert not out.exists()

    def test_taxonomy_cycle_exits_two(self, cohort_dir, query_file, tmp_path):
        cyclic = tmp_path / "taxonomy.csv"
        cyclic.write_text("child,parent\na,b\nb,a\n", encoding="utf-8")
        args = mine_args(cohort_dir, query_file, tmp_path / "p.jsonl")
        args[args.index("--taxonomy") + 1] = str(cyclic)
        assert main(args) == 2

    @staticmethod
    def _with_stray_row(cohort_dir, tmp_path):
        # Reuse an in-window (patient, day) so the unknown code is actually mapped.
        original = (cohort_dir / "deliveries.csv").read_text(encoding="utf-8")
        template = next(
            line for line in original.splitlines()[1:]
            if line.split(",")[2].startswith(("NS", "PL"))
        )
        patient, day = template.split(",")[:2]
        stray = tmp_path / "deliveries.csv"
        stray.write_text(original + f"{patient},{day},MYSTERY,1\n", encoding="utf-8")
        return stray

    def test_unknown_code_abort_exits_two(self, cohort_dir, query_file, tmp_path, capsys):
        stray = self._with_stray_row(cohort_dir, tmp_path)
        args = mine_args(cohort_dir, query_file, tmp_path / "p.jsonl")
        args[args.index("--deliveries") + 1] = str(stray)
        assert main(args) == 2
        assert "MYSTERY" in capsys.readouterr().err

    def test_unknown_code_skip_continues(self, cohort_dir, query_file, tmp_path, capsys):
        stray = self._with_stray_row(cohort_dir, tmp_path)
        args = mine_args(cohort_dir, query_file, tmp_path / "p.jsonl", ["--unknown-code", "skip"])
        args[args.index("--deliveries") + 1] = str(stray)
        assert main(args) == 0
        capsys.readouterr()

    def test_node_budget_exits_three_with_partial_output(
        self, cohort_dir, query_file, tmp_path, capsys
    ):
        complete, out = tmp_path / "complete.jsonl", tmp_path / "partial.jsonl"
        assert main(mine_args(cohort_dir, query_file, complete)) == 0
        capsys.readouterr()
        # The full run visits 24 nodes, and the first 8 emit 3 of its 4 patterns.
        assert main(mine_args(cohort_dir, query_file, out, ["--max-nodes", "8"])) == 3
        captured = capsys.readouterr()
        assert captured.err == "warning: resource budget exhausted, results are incomplete\n"
        report = json.loads(captured.out)
        assert report["complete"] is False
        assert report["nodes_expanded"] == 8
        assert out.exists()
        cut = out.read_text(encoding="utf-8").splitlines()
        assert cut and set(cut) <= set(complete.read_text(encoding="utf-8").splitlines())

    @pytest.mark.parametrize(
        "name, column, value, message",
        [
            ("deliveries.csv", None, b"p\xe9,1,X,1", "not UTF-8: byte 0xe9"),
            (
                "deliveries.csv",
                None,
                b"p1,1," + b"X" * 200_000 + b",1",
                "malformed CSV: field larger than field limit",
            ),
            # These fail the bulk check, so the row validator reads on from their block.
            ("deliveries.csv", 1, b"-2", "day must be >= 0, got -2"),
            ("deliveries.csv", 3, b"0", "qty must be >= 1, got 0"),
            # The knowledge base's rows are refused at their leftmost bad cell.
            ("taxonomy.csv", None, b"G403,", "parent must not be empty"),
            ("kb_attributes.csv", None, b",N03AG01,438,x,noise", "cip must not be empty"),
            (
                "kb_attributes.csv",
                None,
                b"C9,N03AG01,438,-1,noise",
                "generic must be 0 or 1, got -1",
            ),
        ],
        ids=["not-utf8", "field-limit", "day", "qty", "parent", "cip", "generic"],
    )
    def test_unreadable_deliveries_exit_two(
        self, cohort_dir, query_file, tmp_path, capsys, name, column, value, message
    ):
        # With a column, line 3's cell there is replaced; without, the value is
        # a row appended to the file.
        bad = tmp_path / "bad"
        shutil.copytree(cohort_dir, bad)
        lines = (bad / name).read_bytes().splitlines()
        if column is None:
            lines.append(value)
        else:
            cells = lines[2].split(b",")
            cells[column] = value
            lines[2] = b",".join(cells)
        (bad / name).write_bytes(b"\n".join(lines) + b"\n")
        assert main(mine_args(bad, query_file, tmp_path / "p.jsonl")) == 2
        line = 3 if column is not None else len(lines)
        (error,) = capsys.readouterr().err.splitlines()
        assert error.startswith(f"error: {bad / name}:{line}: {message}")

    @pytest.mark.parametrize("shape", ["shuffled", "quoted", "lower"])
    def test_shuffled_rows_write_identical_bytes(
        self, cohort_dir, query_file, tmp_path, capsys, shape
    ):
        reshaped = tmp_path / shape
        shutil.copytree(cohort_dir, reshaped)
        if shape == "shuffled":
            rng = random.Random(3)
            for name in ("deliveries.csv", "diseases.csv"):
                header, *rows = (cohort_dir / name).read_text(encoding="utf-8").splitlines(True)
                rng.shuffle(rows)
                (reshaped / name).write_text(header + "".join(rows), encoding="utf-8")
            # Same-patient same-day deliveries exist, so the stable sort matters.
            days = Counter(
                tuple(line.split(",")[:2])
                for line in (cohort_dir / "deliveries.csv").read_text(encoding="utf-8").splitlines()
            )
            assert max(days.values()) > 1
        elif shape == "quoted":
            # Quoted cells send both fact files to the row validator.
            for name in ("deliveries.csv", "diseases.csv"):
                with open(cohort_dir / name, newline="", encoding="utf-8") as handle:
                    rows = list(csv.reader(handle))
                with open(reshaped / name, "w", newline="", encoding="utf-8") as handle:
                    csv.writer(handle, quoting=csv.QUOTE_ALL, lineterminator="\n").writerows(rows)
            assert (reshaped / "deliveries.csv").read_text(encoding="utf-8").startswith('"patient"')
        else:
            # Every text column but patient is a code, read case-insensitively
            # (headers and patient ids are lower case already).
            for path in reshaped.glob("*.csv"):
                path.write_text(path.read_text(encoding="utf-8").lower(), encoding="utf-8")
            assert ",n03ag01," in (reshaped / "kb_attributes.csv").read_text(encoding="utf-8")

        counts = (
            "patients_total", "patients_with_index", "deliveries_loaded", "diseases_loaded",
            "pattern_count", "nodes_expanded", "counters",
        )
        outputs, reports = [], []
        for data_dir in (cohort_dir, reshaped):
            out = tmp_path / f"{data_dir.name}.jsonl"
            assert main(mine_args(data_dir, query_file, out)) == 0
            report = json.loads(capsys.readouterr().out)
            outputs.append(out.read_bytes())
            reports.append({key: report[key] for key in counts})
        assert outputs[0] == outputs[1]
        assert reports[0] == reports[1]

    @pytest.mark.parametrize(
        "name", ["deliveries.csv", "diseases.csv", "kb_attributes.csv", "taxonomy.csv", "query"]
    )
    def test_leading_byte_order_mark_is_skipped(
        self, cohort_dir, query_file, tmp_path, capsys, name
    ):
        marked = tmp_path / "marked"
        shutil.copytree(cohort_dir, marked)
        marked_query = tmp_path / "marked.pmq"
        shutil.copy(query_file, marked_query)
        target = marked_query if name == "query" else marked / name
        target.write_bytes(b"\xef\xbb\xbf" + target.read_bytes())
        plain, bom = tmp_path / "plain.jsonl", tmp_path / "bom.jsonl"
        assert main(mine_args(cohort_dir, query_file, plain)) == 0
        assert main(mine_args(marked, marked_query, bom)) == 0
        assert "error" not in capsys.readouterr().err
        assert bom.read_bytes() == plain.read_bytes()
        assert plain.stat().st_size > 0

    def test_mine_loads_through_the_library_loaders(
        self, cohort_dir, query_file, tmp_path, capsys, monkeypatch
    ):
        calls = Counter()
        for name in ("load_deliveries", "load_diseases"):
            loader = getattr(ingest, name)
            assert getattr(cli, name) is loader

            def counted(path, loader=loader, name=name):
                calls[name] += 1
                return loader(path)

            monkeypatch.setattr(cli, name, counted)
        assert main(mine_args(cohort_dir, query_file, tmp_path / "p.jsonl")) == 0
        capsys.readouterr()
        assert calls == {"load_deliveries": 1, "load_diseases": 1}

    def test_report_phases_add_up_to_wall_time(self, cohort_dir, query_file, tmp_path, capsys):
        assert main(mine_args(cohort_dir, query_file, tmp_path / "p.jsonl")) == 0
        report = json.loads(capsys.readouterr().out)
        phases = report["phases"]
        assert set(phases) == {"load", "build", "mine", "write"}
        assert all(seconds >= 0 for seconds in phases.values())
        assert sum(phases.values()) == pytest.approx(report["wall_seconds"], rel=0.05)

    def test_report_peak_rss_after_each_phase(self, cohort_dir, query_file, tmp_path, capsys):
        assert main(mine_args(cohort_dir, query_file, tmp_path / "p.jsonl")) == 0
        peaks = json.loads(capsys.readouterr().out)["peak_rss_mb"]
        assert set(peaks) == {"load", "build", "mine", "write"}
        in_order = [peaks[phase] for phase in ("load", "build", "mine", "write")]
        if sys.platform.startswith("linux"):
            assert all(type(mb) is float and mb > 0 for mb in in_order)
            assert in_order == sorted(in_order)
        else:
            assert all(mb is None or type(mb) is float for mb in in_order)

    def test_report_config_holds_every_option_and_min_support(
        self, cohort_dir, query_file, tmp_path, capsys
    ):
        out = tmp_path / "p.jsonl"
        assert main(mine_args(cohort_dir, query_file, out, ["--max-len", "3"])) == 0
        config = json.loads(capsys.readouterr().out)["config"]
        assert set(config) == {
            "query", "deliveries", "diseases", "kb", "taxonomy", "out", "embeddings",
            "max_len", "unknown_code", "max_nodes", "max_seconds", "class_filter_exact",
            "min_support",
        }
        assert config["out"] == str(out)
        assert (config["max_len"], config["max_nodes"], config["min_support"]) == (3, None, 9)
        assert (config["embeddings"], config["class_filter_exact"]) == ("witness", False)

    def test_report_counters(self, cohort_dir, query_file, tmp_path, capsys):
        assert main(mine_args(cohort_dir, query_file, tmp_path / "p.jsonl")) == 0
        counters = json.loads(capsys.readouterr().out)["counters"]
        assert set(counters) == {"support_pruned", "switch_pruned", "negative_checks"}
        assert all(type(value) is int and value >= 0 for value in counters.values())
        # The study query is discriminative and emits patterns, so negatives were checked.
        assert counters["negative_checks"] > 0


def quoted(data):
    """Every cell of a CSV file's lines in double quotes."""
    return b"".join(
        b",".join(b'"' + cell + b'"' for cell in line.rstrip(b"\r\n").split(b",")) + b"\r\n"
        for line in data.splitlines(keepends=True)
    )


def with_cell(data, line, column, value):
    """The file with cell `column` of 1-based line `line` replaced by `value`."""
    lines = data.splitlines(keepends=True)
    cells = lines[line - 1].split(b",")
    end = cells[-1][len(cells[-1].rstrip(b"\r\n")):]
    cells[column] = value + (end if column == len(cells) - 1 else b"")
    lines[line - 1] = b",".join(cells)
    return b"".join(lines)


#: Reshapings of a synth deliveries.csv, whose lines end in CRLF.
FACT_SHAPES = {
    "quoted": quoted,
    "qty-0-on-line-30": lambda data: with_cell(data, 30, 3, b"0"),
    "not-utf8-on-line-2": lambda data: with_cell(data, 2, 0, b"p\xe9"),
    "crlf": lambda data: data,
    "lf": lambda data: data.replace(b"\r\n", b"\n"),
    "bom": lambda data: b"\xef\xbb\xbf" + data,
    "over-long-line": lambda data: data + b"x" * 600_000 + b"\r\n",
}


@pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="no /dev/fd")
class TestFactFilesThroughAPipe:
    """A fact file is read once, so a pipe mines or fails as the regular file does."""

    @pytest.fixture(scope="class")
    def cohort(self, tmp_path_factory):
        out = tmp_path_factory.mktemp("pipe-cohort")
        args = ["--patients", "200", "--plant", PLANT, "--seed", "3", "--out-dir", str(out)]
        assert main(["synth", *args]) == 0
        return out

    def run(self, cohort, query_file, deliveries, out, capsys):
        args = mine_args(cohort, query_file, out)
        args[args.index("--deliveries") + 1] = deliveries
        code = main(args)
        err = capsys.readouterr().err
        written = out.read_bytes() if out.exists() else None
        return code, err, written

    @pytest.mark.parametrize("shape", FACT_SHAPES)
    def test_a_pipe_gives_the_bytes_exit_and_errors_of_the_file(
        self, cohort, query_file, tmp_path, capsys, shape
    ):
        data = FACT_SHAPES[shape]((cohort / "deliveries.csv").read_bytes())
        path = tmp_path / "deliveries.csv"
        path.write_bytes(data)
        from_file = self.run(cohort, query_file, str(path), tmp_path / "file.jsonl", capsys)
        read, write = os.pipe()

        def feed():
            # The reader may stop at an error and close its end first.
            with contextlib.suppress(BrokenPipeError), open(write, "wb") as pipe:
                pipe.write(data)

        writer = threading.Thread(target=feed)
        writer.start()
        try:
            piped = f"/dev/fd/{read}"
            from_pipe = self.run(cohort, query_file, piped, tmp_path / "pipe.jsonl", capsys)
        finally:
            os.close(read)
            writer.join(timeout=10)
        assert not writer.is_alive()
        code, err, written = from_file
        assert from_pipe == (code, err.replace(str(path), piped), written)
        lines = data.count(b"\n")
        expected = {
            "quoted": (0, ""),
            "qty-0-on-line-30": (2, f"error: {path}:30: qty must be >= 1, got 0\n"),
            "not-utf8-on-line-2": (
                2,
                f"error: {path}:2: not UTF-8: byte 0xe9 at column 2 (invalid continuation byte)\n",
            ),
            "over-long-line": (
                2,
                f"error: {path}:{lines}: malformed CSV: field larger than field "
                "limit (131072)\n",
            ),
        }.get(shape, (0, ""))
        assert (code, err) == expected
        if code == 0:
            plain = self.run(
                cohort, query_file, str(cohort / "deliveries.csv"), tmp_path / "plain.jsonl", capsys
            )
            assert written == plain[2] and written


class TestRenderedOutputPinned:
    """The emit and render path's bytes and the search's counters, pinned.

    A seeded cohort mined at low support emits hundreds of patterns, so
    every record shape (several supporters, several embeddings in all
    mode, discriminative sets) goes through `render_patterns`.
    """

    QUERY = """\
index_event first diagnosis in {G40, G41};
event delivery where atc in {N03AX09, N03AX14, N03AX11, N03AG01, N03AF01}
      as (atc, group, generic);
window positive (index-90, index);
window negative (index-180, index-90);
min_support 4;
constraint discriminative;
constraint contains_value(generic, 1);
"""

    COUNTERS = {"support_pruned": 4312, "switch_pruned": 0, "negative_checks": 2087}

    @pytest.fixture(scope="class")
    def mined(self):
        cohort = generate_cohort(
            CohortConfig(
                patients=80,
                seed=2017,
                plant=PlantSpec.parse(PLANT.replace("@9", "@8")),
                mean_events=8.0,
                noise_items=20,
            )
        )
        kb = knowledge_base(cohort)
        task = compile_query(parse_query(self.QUERY), kb)
        database = build_database(RawDatabase(cohort.deliveries, cohort.diseases), task, kb)
        return lambda mode: mine(task, database, MiningOptions(embeddings=mode))

    @pytest.mark.parametrize(
        "mode,digest",
        [
            ("witness", "368fd2de4614f01438281b9550e78fb2cc396ba67498b762a293711f91bcd419"),
            ("all", "81e2e0312ac2b16881246e96b791cd69a0609bba6498a84b6f87f2d0bdd80174"),
        ],
    )
    def test_rendered_bytes_and_counters(self, mined, mode, digest):
        result = mined(mode)
        assert result.complete
        assert len(result.patterns) == 304
        assert result.nodes_expanded == 394
        assert result.counters == self.COUNTERS
        text = render_patterns(result.patterns)
        assert hashlib.sha256(text.encode()).hexdigest() == digest


class TestOneOutputFormat:
    """The mine command writes the bytes `render_patterns` gives the same result."""

    @pytest.fixture(scope="class")
    def study(self, tmp_path_factory):
        cohort = generate_cohort(
            CohortConfig(
                patients=80,
                seed=2017,
                plant=PlantSpec.parse(PLANT.replace("@9", "@8")),
                mean_events=8.0,
                noise_items=20,
            )
        )
        out = tmp_path_factory.mktemp("pinned")
        write_cohort(cohort, out)
        query = out / "study.pmq"
        query.write_text(TestRenderedOutputPinned.QUERY, encoding="utf-8")
        return out, query, *load(out, query)

    @pytest.mark.parametrize("budget", [None, 300])
    @pytest.mark.parametrize("mode", ["witness", "all"])
    def test_cli_bytes_equal_rendered_patterns(self, study, tmp_path, capsys, mode, budget):
        data_dir, query, task, database = study
        out = tmp_path / "p.jsonl"
        extra = ["--embeddings", mode]
        if budget is not None:
            extra += ["--max-nodes", str(budget)]
        result = mine(task, database, MiningOptions(embeddings=mode, max_nodes=budget))
        assert main(mine_args(data_dir, query, out, extra)) == (0 if result.complete else 3)
        report = json.loads(capsys.readouterr().out)
        assert report["pattern_count"] == len(result.patterns)
        # The full search visits 394 nodes, so the budget cuts it short.
        assert result.complete is (budget is None)
        assert out.read_text(encoding="utf-8") == render_patterns(result.patterns)
        # Each record agrees with the oracle's definitions.
        for pt in result.patterns:
            assert pt.supported == positive_support(pt.pattern, database)
            assert pt.discriminative == discriminative_support(pt.pattern, database)

    @pytest.mark.parametrize(
        "case, cohort, min_support",
        [
            # A switch upper bound prunes candidates before they become nodes,
            # which no benchmark workload does.
            ("switch", ["--patients", "80", "--mean-events", "8", "--noise-items", "20"], 4),
            # Long windows send the search's nodes to the bit-sliced leaf test.
            ("long", ["--patients", "40", "--mean-events", "200", "--noise-items", "200"], 20),
        ],
        ids=["switch", "long"],
    )
    def test_pruned_run_writes_the_unpruned_bytes(
        self, tmp_path, capsys, monkeypatch, case, cohort, min_support
    ):
        data_dir = tmp_path / case
        synth = ["synth", "--seed", "5", "--plant", PLANT.replace("@9", "@3"), *cohort]
        assert main(synth + ["--out-dir", str(data_dir)]) == 0
        query = tmp_path / "query.pmq"
        statements = f"min_support {min_support};\n"
        if case == "switch":
            statements += "constraint switch_count(generic) <= 0;\n"
        # The study query's event and positive window, without its other statements.
        query.write_text(STUDY_QUERY.split("window negative")[0] + statements, encoding="utf-8")
        tested = []
        frequent = pathmine.engine._frequent
        spy = lambda masks, bound: tested.append(bound) or frequent(masks, bound)
        monkeypatch.setattr(pathmine.engine, "_frequent", spy)
        out = tmp_path / "p.jsonl"
        capsys.readouterr()
        assert main(mine_args(data_dir, query, out, ["--max-len", "2"])) == 0
        report = json.loads(capsys.readouterr().out)
        # Each case takes its own pruning path, or it checks nothing new.
        assert bool(tested) is (case == "long")
        assert bool(report["counters"]["switch_pruned"]) is (case == "switch")
        task, database = load(data_dir, query)
        unpruned = mine(task, database, MiningOptions(embeddings="witness", max_len=2, prune=False))
        assert unpruned.records
        assert out.read_text(encoding="utf-8") == render_patterns(unpruned.patterns)

    def test_a_patient_with_more_embeddings_than_a_chunk(self):
        # (A, B) has 40 * 40 = 1,600 embeddings in one patient, more than one
        # piece of a line holds, so the line goes on in a second piece.
        A, B = ALPHABET[:2]
        database = CaseDatabase((CasePair("p", make_seq([A] * 40 + [B] * 40)),))
        result = mine(make_task(), database, MiningOptions(embeddings="all", max_len=2))
        text = "".join(render_records(result))
        assert text == render_patterns(result.patterns)
        items = [list(A.values), list(B.values)]
        (record,) = [r for r in map(json.loads, text.splitlines()) if r["items"] == items]
        pairs = [[i, j] for i in range(1, 41) for j in range(41, 81)]
        assert len(pairs) > cli._CHUNK
        assert record["embeddings"] == {"p": pairs}

    def test_mine_command_builds_no_pattern_tuple(self, study, tmp_path, capsys, monkeypatch):
        def refuse(result):
            raise AssertionError("the mine command read MiningResult.patterns")

        monkeypatch.setattr(MiningResult, "patterns", property(refuse))
        data_dir, query, _, _ = study
        for mode in ("witness", "all"):
            out = tmp_path / f"{mode}.jsonl"
            assert main(mine_args(data_dir, query, out, ["--embeddings", mode])) == 0
            assert out.stat().st_size
        capsys.readouterr()


class TestGarbageCollectorPolicy:
    @pytest.mark.parametrize("enabled", [True, False])
    @pytest.mark.parametrize("outcome,code", [("complete", 0), ("data_error", 2), ("budget", 3)])
    def test_collector_state_restored(
        self, cohort_dir, query_file, tmp_path, capsys, enabled, outcome, code
    ):
        extra = ["--max-nodes", "3"] if outcome == "budget" else []
        args = mine_args(cohort_dir, query_file, tmp_path / "p.jsonl", extra)
        if outcome == "data_error":
            args[args.index("--deliveries") + 1] = str(tmp_path / "absent.csv")
        was_enabled = gc.isenabled()
        (gc.enable if enabled else gc.disable)()
        try:
            assert main(args) == code
            assert gc.isenabled() is enabled
        finally:
            (gc.enable if was_enabled else gc.disable)()
        capsys.readouterr()

    def test_garbage_left_does_not_grow_with_the_cohort(
        self, cohort_dir, query_file, tmp_path, capsys
    ):
        large = tmp_path / "large"
        synth = ["synth", "--patients", "600", "--plant", PLANT, "--seed", "11"]
        assert main(synth + ["--out-dir", str(large)]) == 0

        def unreachable_after_mine(data_dir):
            # The collector stays off from the baseline to the count, so
            # only what the mine run left behind is counted.
            was_enabled = gc.isenabled()
            gc.disable()
            try:
                gc.collect()
                assert main(mine_args(data_dir, query_file, tmp_path / "p.jsonl")) == 0
                return gc.collect()
            finally:
                if was_enabled:
                    gc.enable()

        unreachable_after_mine(cohort_dir)  # warm-up: first-call garbage
        small_count = unreachable_after_mine(cohort_dir)
        large_count = unreachable_after_mine(large)
        capsys.readouterr()
        assert large_count == small_count


class TestSynthCommand:
    def test_writes_report_and_files(self, tmp_path, capsys):
        code = main(
            ["synth", "--patients", "10", "--plant", "N03AG01,438,1@3",
             "--seed", "2", "--out-dir", str(tmp_path)]
        )
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["patients"] == 10
        assert report["planted_patients"] == 3
        assert (tmp_path / "deliveries.csv").exists()

    def test_invalid_plant_spec_exits_one(self, tmp_path, capsys):
        # A plant puts its items on distinct days of the 89-day positive window.
        for plant, message in [
            ("oops", "error: "),
            ("|".join(["N03AG01,438,1"] * 90) + "@1", "error: a plant has at most 89 items"),
        ]:
            code = main(
                ["synth", "--patients", "10", "--plant", plant,
                 "--seed", "2", "--out-dir", str(tmp_path)]
            )
            assert code == 1
            (line,) = capsys.readouterr().err.splitlines()
            assert line.startswith(message)

    def test_plant_larger_than_cohort_exits_one(self, tmp_path):
        code = main(
            ["synth", "--patients", "2", "--plant", "N03AG01,438,1@3",
             "--seed", "2", "--out-dir", str(tmp_path)]
        )
        assert code == 1

    def test_negative_mean_events_exits_one(self, tmp_path, capsys):
        # A nan mean never reaches the Poisson draw's floor, so it is refused at once.
        for mean in ("-1", "nan"):
            code = main(
                ["synth", "--patients", "5", "--seed", "9", "--mean-events", mean,
                 "--out-dir", str(tmp_path)]
            )
            assert code == 1
            (line,) = capsys.readouterr().err.splitlines()
            assert line.startswith("error: ") and "mean_events" in line
            assert not (tmp_path / "deliveries.csv").exists()

    def test_no_plant_is_fine(self, tmp_path, capsys):
        code = main(["synth", "--patients", "5", "--seed", "9", "--out-dir", str(tmp_path)])
        assert code == 0
        assert json.loads(capsys.readouterr().out)["planted_patients"] == 0


class TestHashSeed:
    """The output is a function of the inputs, not of the interpreter's hash seed.

    pytest's own hash seed changes from session to session, so an order
    that leaks from a set or dict would show only as a flaky test; here
    two seeds are fixed and compared.
    """

    @pytest.mark.parametrize("mode", ["witness", "all"])
    def test_bytes_and_report_do_not_depend_on_the_hash_seed(
        self, cohort_dir, query_file, tmp_path, mode
    ):
        out = tmp_path / "patterns.jsonl"
        args = mine_args(cohort_dir, query_file, out, ["--embeddings", mode])
        src = str(Path(cli.__file__).parents[1])
        runs = []
        for seed in ("0", "1"):
            env = {
                **os.environ,
                "PYTHONHASHSEED": seed,
                "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])),
            }
            proc = subprocess.run(
                [sys.executable, "-m", "pathmine", *args], capture_output=True, text=True, env=env
            )
            assert proc.returncode == 0, proc.stderr
            report = json.loads(proc.stdout)
            # Times and memory are measurements, not outputs.
            del report["wall_seconds"], report["phases"], report["peak_rss_mb"]
            runs.append((out.read_bytes(), report))
        assert runs[0][1]["pattern_count"] > 0
        assert runs[0] == runs[1]


#: The query's tokens, with the whitespace and comments between them.
QUERY_TOKEN = re.compile(r"\s+|#[^\n]*|==|<=|>=|[0-9]+|[A-Za-z_][A-Za-z0-9_]*|.", re.DOTALL)

#: What a byte mutation of a CSV file may insert.
INSERTED_BYTES = [b",", b'"', b"\n", b"\r", b"\0", b"\xff", b"-", *(b"%d" % d for d in range(10))]

CSV_NAMES = ("deliveries.csv", "diseases.csv", "kb_attributes.csv", "taxonomy.csv")


class TestErrorContract:
    """Whatever the input, `mine` exits 0-3 and reports an error on one line."""

    @pytest.fixture(scope="class")
    def tiny(self, tmp_path_factory):
        out = tmp_path_factory.mktemp("tiny")
        code = main(
            [
                "synth",
                "--patients", "8",
                "--plant", "N03AG01,438,1|N03AX14,1023,0@3",
                "--seed", "11",
                "--out-dir", str(out / "clean"),
            ]
        )
        assert code == 0
        files = {name: (out / "clean" / name).read_bytes() for name in CSV_NAMES}
        query = STUDY_QUERY.replace("min_support 20", "min_support 2")
        return out, files, QUERY_TOKEN.findall(query)

    @settings(derandomize=True, deadline=None, max_examples=200)
    @given(data=st.data())
    def test_any_mutated_input_keeps_the_exit_contract(self, tiny, data):
        # One input is mutated per example: the query byte by byte would
        # mostly stop at the tokenizer, and a broken query hides the CSVs.
        root, files, tokens = tiny
        files, tokens = dict(files), list(tokens)
        target = data.draw(st.sampled_from(("query",) + CSV_NAMES), label="target")
        if target == "query":
            words = [i for i, token in enumerate(tokens) if not token.isspace()]
            pool = sorted(set(tokens) | {"0", "dose", "99999"})
            edits = st.tuples(
                st.sampled_from(words), st.sampled_from(["delete", "duplicate", *pool])
            )
            for i, edit in data.draw(st.lists(edits, min_size=1, max_size=2), label="edits"):
                if edit == "delete":
                    tokens[i] = ""
                elif edit == "duplicate":
                    tokens[i] += " " + tokens[i]
                else:
                    tokens[i] = edit
        else:
            edits = st.tuples(
                st.integers(0, 10**4),
                st.sampled_from(["delete", "duplicate", "truncate", *INSERTED_BYTES]),
            )
            blob = files[target]
            for at, edit in data.draw(st.lists(edits, min_size=1, max_size=3), label="edits"):
                at %= len(blob) + 1
                if edit == "delete":
                    blob = blob[:at] + blob[at + 1 :]
                elif edit == "duplicate":
                    blob = blob[: at + 1] + blob[at:]
                elif edit == "truncate":
                    blob = blob[:at]
                else:
                    blob = blob[:at] + edit + blob[at:]
            files[target] = blob
        budget = data.draw(st.sampled_from(["30", "500"]), label="max nodes")

        for name, blob in files.items():
            (root / name).write_bytes(blob)
        query = root / "query.pmq"
        query.write_text("".join(tokens), encoding="utf-8")
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = main(mine_args(root, query, root / "out.jsonl", ["--max-nodes", budget]))
        assert code in (0, 1, 2, 3)
        if code in (1, 2):
            message = stderr.getvalue()
            assert message.startswith("error: ") and message.endswith("\n")
            assert len(message.splitlines()) == 1, message


def test_module_entry_point():
    import subprocess, sys

    proc = subprocess.run(
        [sys.executable, "-m", "pathmine", "--help"], capture_output=True, text=True
    )
    assert proc.returncode == 0
    assert "mine" in proc.stdout and "synth" in proc.stdout
