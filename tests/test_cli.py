"""Command-line interface: exit codes, output shape, determinism."""

import gc
import hashlib
import json
import random
import shutil
from collections import Counter

import pytest

from pathmine import cli, ingest
from pathmine.builder import CaseDatabase, CasePair, build_database
from pathmine.cli import main, render_patterns, render_records
from pathmine.engine import MiningOptions, MiningResult, mine
from pathmine.ingest import RawDatabase
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
        out = tmp_path / "patterns.jsonl"
        assert main(mine_args(cohort_dir, query_file, out, ["--embeddings", "all"])) == 0
        for rec in map(json.loads, out.read_text(encoding="utf-8").splitlines()):
            for embs in rec["embeddings"].values():
                assert embs == sorted(embs)
                assert all(list(e) == sorted(e) for e in embs)

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
        bad.write_text("index_event first diagnosis in {G40}\n", encoding="utf-8")
        out = tmp_path / "patterns.jsonl"
        assert main(mine_args(cohort_dir, bad, out)) == 1
        assert "error" in capsys.readouterr().err

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

    def test_missing_data_file_exits_two(self, cohort_dir, query_file, tmp_path):
        args = mine_args(cohort_dir, query_file, tmp_path / "p.jsonl")
        args[args.index("--deliveries") + 1] = str(tmp_path / "absent.csv")
        assert main(args) == 2

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
        out = tmp_path / "partial.jsonl"
        assert main(mine_args(cohort_dir, query_file, out, ["--max-nodes", "3"])) == 3
        report = json.loads(capsys.readouterr().out)
        assert report["complete"] is False
        assert out.exists()

    @pytest.mark.parametrize(
        "bad_row, message",
        [(b"p\xe9,1,X,1\n", "not UTF-8"), (b"p1,1," + b"X" * 200_000 + b",1\n", "field limit")],
    )
    def test_unreadable_deliveries_exit_two(
        self, cohort_dir, query_file, tmp_path, capsys, bad_row, message
    ):
        bad = tmp_path / "deliveries.csv"
        bad.write_bytes((cohort_dir / "deliveries.csv").read_bytes() + bad_row)
        args = mine_args(cohort_dir, query_file, tmp_path / "p.jsonl")
        args[args.index("--deliveries") + 1] = str(bad)
        assert main(args) == 2
        err = capsys.readouterr().err
        assert message in err and str(bad) in err

    def test_shuffled_rows_write_identical_bytes(self, cohort_dir, query_file, tmp_path, capsys):
        shuffled = tmp_path / "shuffled"
        shuffled.mkdir()
        rng = random.Random(3)
        for name in ("deliveries.csv", "diseases.csv"):
            header, *rows = (cohort_dir / name).read_text(encoding="utf-8").splitlines(True)
            rng.shuffle(rows)
            (shuffled / name).write_text(header + "".join(rows), encoding="utf-8")
        for name in ("kb_attributes.csv", "taxonomy.csv"):
            shutil.copy(cohort_dir / name, shuffled / name)
        # Same-patient same-day deliveries exist, so the stable sort matters.
        days = Counter(
            tuple(line.split(",")[:2])
            for line in (cohort_dir / "deliveries.csv").read_text(encoding="utf-8").splitlines()
        )
        assert max(days.values()) > 1

        counts = (
            "patients_total", "patients_with_index", "deliveries_loaded", "diseases_loaded",
            "pattern_count", "nodes_expanded", "counters",
        )
        outputs, reports = [], []
        for data_dir in (cohort_dir, shuffled):
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
        kb = knowledge_base(cohort)
        task = compile_query(parse_query(TestRenderedOutputPinned.QUERY), kb)
        raw = RawDatabase(cohort.deliveries, cohort.diseases)
        return out, query, task, build_database(raw, task, kb)

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
        code = main(
            ["synth", "--patients", "10", "--plant", "oops",
             "--seed", "2", "--out-dir", str(tmp_path)]
        )
        assert code == 1
        assert "error" in capsys.readouterr().err

    def test_plant_larger_than_cohort_exits_one(self, tmp_path):
        code = main(
            ["synth", "--patients", "2", "--plant", "N03AG01,438,1@3",
             "--seed", "2", "--out-dir", str(tmp_path)]
        )
        assert code == 1

    def test_negative_mean_events_exits_one(self, tmp_path, capsys):
        code = main(
            ["synth", "--patients", "5", "--seed", "9", "--mean-events", "-1",
             "--out-dir", str(tmp_path)]
        )
        assert code == 1
        assert "mean_events" in capsys.readouterr().err
        assert not (tmp_path / "deliveries.csv").exists()

    def test_no_plant_is_fine(self, tmp_path, capsys):
        code = main(["synth", "--patients", "5", "--seed", "9", "--out-dir", str(tmp_path)])
        assert code == 0
        assert json.loads(capsys.readouterr().out)["planted_patients"] == 0


def test_module_entry_point():
    import subprocess, sys

    proc = subprocess.run(
        [sys.executable, "-m", "pathmine", "--help"], capture_output=True, text=True
    )
    assert proc.returncode == 0
    assert "mine" in proc.stdout and "synth" in proc.stdout
