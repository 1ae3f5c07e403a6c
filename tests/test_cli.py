"""CSV/JSON formats and the command-line surface."""

import contextlib
import csv
import errno
import hashlib
import io
import json
import math
import os
import re
import stat
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from unkhist import cli, core, stream
from unkhist.accountant import CdpBudget, compose
from unkhist.cli import main
from unkhist.core import BOTTOM, Histogram, IngestionError, ParameterError, RandomSource
from unkhist.fileio import (
    canonical_json,
    parse_histogram_csv,
    read_budget,
    release_report_payload,
    write_histogram_csv,
    write_report_json,
)
from unkhist.stream import (
    SWEEP_MIN_LABELS,
    SWEEP_WINDOW,
    Counter,
    CounterConfig,
    StreamEvent,
    counter_sweep,
)


def write(path, text):
    path.write_text(text, encoding="utf-8")
    return str(path)


class TestParseHistogramCsv:
    def test_basic(self, tmp_path):
        path = write(tmp_path / "h.csv", "label,count\na,3\nb,1\n")
        assert parse_histogram_csv(path) == Histogram({"a": 3, "b": 1})

    def test_duplicate_label_names_line(self, tmp_path):
        path = write(tmp_path / "h.csv", "label,count\na,3\na,1\n")
        with pytest.raises(IngestionError, match="line 3"):
            parse_histogram_csv(path)

    def test_reserved_label(self, tmp_path):
        path = write(tmp_path / "h.csv", "label,count\n⊥1,5\n")
        with pytest.raises(IngestionError, match="reserved"):
            parse_histogram_csv(path)

    @pytest.mark.parametrize("row", [b"a,-1", b"a,1.5", b"a,x", b"a,3,9", b"a", b"caf\xe9,3"])
    def test_malformed_rows(self, tmp_path, row, capsys):
        path = tmp_path / "h.csv"
        path.write_bytes(b"label,count\na0,1\n" + row + b"\n")
        with pytest.raises(IngestionError, match="line 3"):
            parse_histogram_csv(path)
        code = main(
            ["release", "--noise", "laplace", "--epsilon", "1", "--delta", "0.05",
             "--l0", "1", "--linf", "1", "--in", str(path), "--seed", "1"]
        )  # fmt: skip
        assert code == 2
        assert "line 3" in capsys.readouterr().err

    def test_count_beyond_64_bits_names_file_and_line(self, tmp_path, capsys):
        path = write(tmp_path / "h.csv", "label,count\na,1\nb,9223372036854775808\n")
        code = main(
            ["release", "--noise", "laplace", "--epsilon", "1", "--delta", "0.05",
             "--l0", "1", "--linf", "1", "--in", path, "--seed", "1"]
        )  # fmt: skip
        assert code == 2
        err = capsys.readouterr().err
        assert f"{path}: line 3: count for 'b' exceeds 64-bit range" in err

    def test_error_names_physical_line_after_multiline_label(self, tmp_path, capsys):
        path = tmp_path / "h.csv"
        path.write_bytes(b'label,count\n"a\nb",3\nc,x\n')
        with pytest.raises(IngestionError, match="line 4"):
            parse_histogram_csv(path)
        code = main(
            ["release", "--noise", "laplace", "--epsilon", "1", "--delta", "0.05",
             "--l0", "1", "--linf", "1", "--in", str(path), "--seed", "1"]
        )  # fmt: skip
        assert code == 2
        assert "line 4" in capsys.readouterr().err

    def test_csv_reader_error_exits_2_naming_the_line(self, tmp_path, capsys):
        # csv.reader refuses a quoted field longer than csv.field_size_limit();
        # the same label unquoted takes the split scan and is accepted.
        label = "x" * (csv.field_size_limit() + 1)
        path = write(tmp_path / "h.csv", f'label,count\na,1\n"{label}",3\n')
        out = tmp_path / "r.json"
        code = main(
            ["release", "--noise", "laplace", "--epsilon", "1", "--delta", "0.05",
             "--l0", "1", "--linf", "1", "--in", path, "--seed", "1", "--out", str(out)]
        )  # fmt: skip
        assert code == 2
        assert f"{path}: line 3: field larger than field limit" in capsys.readouterr().err
        assert not out.exists()

    def test_missing_header(self, tmp_path):
        path = write(tmp_path / "h.csv", "name,value\na,3\n")
        with pytest.raises(IngestionError, match="line 1"):
            parse_histogram_csv(path)

    @given(
        counts=st.dictionaries(
            st.text(
                alphabet=st.characters(
                    codec="utf-8", exclude_characters=',"\r\n⊥\x00'
                ),
                min_size=1,
                max_size=12,
            ),
            st.integers(min_value=0, max_value=10**9),
            max_size=8,
        )
    )
    def test_round_trip(self, counts, tmp_path_factory):
        path = tmp_path_factory.mktemp("csv") / "h.csv"
        h = Histogram(counts)
        write_histogram_csv(h, path)
        assert parse_histogram_csv(path) == h


class TestCanonicalJson:
    def test_sorted_keys_and_float_format(self):
        text = canonical_json({"b": 0.05, "a": 1, "c": [1.0, None, True]})
        assert text == '{"a":1,"b":0.050000000000000003,"c":[1.0,null,true]}'

    def test_non_finite_rejected(self):
        with pytest.raises(ParameterError):
            canonical_json({"x": float("inf")})

    def test_non_text_keys_rejected(self):
        with pytest.raises(ParameterError):
            canonical_json({1: "x"})

    def test_floats_round_trip(self):
        for value in (0.05, 1.0, 1e-300, 3.141592653589793, 5.753424308822899):
            assert json.loads(canonical_json(value)) == value


class TestReportFiles:
    def test_empty_release_keeps_items_key(self, tmp_path):
        from unkhist.core import RandomSource, SensitivityBound
        from unkhist.release import release

        report = release(
            Histogram(), SensitivityBound(1, 1), "gaussian", 1.0, 1e-6, RandomSource(1)
        )
        payload = release_report_payload(report, params={}, seed=1)
        text = write_report_json(payload, tmp_path / "r.json")
        payload = json.loads(text)
        assert payload["items"] == []
        assert payload["budget"] == {"rho": 0.5, "delta": 1e-6}

    def release_to(self, hist_csv, out):
        return main(
            ["release", "--noise", "laplace", "--epsilon", "1", "--delta", "0.05",
             "--l0", "1", "--linf", "1", "--in", hist_csv, "--seed", "1", "--out", str(out)]
        )  # fmt: skip

    def test_failed_write_leaves_the_old_file(self, hist_csv, tmp_path, monkeypatch, capsys):
        out = tmp_path / "r.json"
        out.write_text("old report\n", encoding="utf-8")
        before = sorted(tmp_path.iterdir())

        def replace(src, dst):
            raise OSError(errno.ENOSPC, "No space left on device", src)

        monkeypatch.setattr("unkhist.fileio.os.replace", replace)
        assert self.release_to(hist_csv, out) == 3
        err = capsys.readouterr().err
        assert "No space left on device" in err
        assert f"{str(out)!r}" in err  # the report path, not the temp file
        assert out.read_text(encoding="utf-8") == "old report\n"
        assert sorted(tmp_path.iterdir()) == before

    @pytest.mark.parametrize("where", ["unkhist.cli.parse_histogram_csv", "unkhist.fileio.os.replace"])
    def test_out_of_memory_exits_3_leaving_no_file(
        self, hist_csv, tmp_path, monkeypatch, capsys, where
    ):
        # Raised while parsing the input, or inside the temp file's write.
        def exhausted(*args):
            raise MemoryError

        out = tmp_path / "r.json"
        before = sorted(tmp_path.iterdir())
        monkeypatch.setattr(where, exhausted)
        assert self.release_to(hist_csv, out) == 3
        captured = capsys.readouterr()
        assert captured.err == "error: out of memory running release\n"
        assert captured.out == ""
        assert sorted(tmp_path.iterdir()) == before

    def test_report_is_synced_before_the_rename(self, hist_csv, tmp_path, monkeypatch):
        # The temp file's bytes reach the disk before the rename exposes it.
        calls = []
        fsync, replace = os.fsync, os.replace

        def synced(fd):
            calls.append(("fsync", os.fstat(fd).st_size))
            fsync(fd)

        def renamed(src, dst):
            calls.append(("replace", os.path.getsize(src)))
            replace(src, dst)

        monkeypatch.setattr("unkhist.fileio.os.fsync", synced)
        monkeypatch.setattr("unkhist.fileio.os.replace", renamed)
        out = tmp_path / "r.json"
        assert self.release_to(hist_csv, out) == 0
        size = out.stat().st_size
        assert calls == [("fsync", size), ("replace", size)]

    def test_unwritable_file_is_not_replaced(self, hist_csv, tmp_path, monkeypatch, capsys):
        out = tmp_path / "r.json"
        out.write_text("old report\n", encoding="utf-8")
        out.chmod(0o444)
        before = sorted(tmp_path.iterdir())
        # Root may write any file, so unwritability is what os.access reports.
        monkeypatch.setattr("unkhist.fileio.os.access", lambda path, mode: False)
        assert self.release_to(hist_csv, out) == 3
        assert f"Permission denied: {str(out)!r}" in capsys.readouterr().err
        assert out.read_text(encoding="utf-8") == "old report\n"
        assert sorted(tmp_path.iterdir()) == before

    def test_missing_directory_names_the_report_path(self, hist_csv, tmp_path, capsys):
        out = tmp_path / "missing" / "r.json"
        assert self.release_to(hist_csv, out) == 3
        assert f"No such file or directory: {str(out)!r}" in capsys.readouterr().err

    def test_long_file_name_is_written_and_leaves_no_temp_file(self, hist_csv, tmp_path):
        # The temp file's name has a fixed length: a report name of 250
        # bytes, which open(path, "w") takes, leaves no room for a suffix.
        out = tmp_path / ("r" * 250)
        before = sorted(tmp_path.iterdir())
        assert self.release_to(hist_csv, out) == 0
        assert json.loads(out.read_text(encoding="utf-8"))["mechanism"]
        assert sorted(tmp_path.iterdir()) == sorted([*before, out])

    def test_replaced_file_keeps_its_mode(self, hist_csv, tmp_path):
        out = tmp_path / "r.json"
        out.write_text("old report\n", encoding="utf-8")
        out.chmod(0o640)
        assert self.release_to(hist_csv, out) == 0
        assert stat.S_IMODE(out.stat().st_mode) == 0o640
        assert json.loads(out.read_text(encoding="utf-8"))["mechanism"]

    def test_path_that_is_no_regular_file_is_written_in_place(self):
        text = write_report_json({"a": 1}, os.devnull)
        assert text == '{"a":1}\n'
        assert not stat.S_ISREG(os.stat(os.devnull).st_mode)

    def test_read_budget_single_json(self, tmp_path):
        path = write(
            tmp_path / "r.json",
            '{"mechanism":"m","budget":{"rho":0.5,"delta":0.01}}\n',
        )
        assert read_budget(path) == CdpBudget(delta=0.01, rho=0.5)

    def test_read_budget_ndjson_header(self, tmp_path):
        path = write(
            tmp_path / "r.ndjson",
            '{"mechanism":"m","budget":{"rho":1.5,"delta":0.0}}\n{"round":1,"items":[]}\n',
        )
        assert read_budget(path) == CdpBudget(delta=0.0, rho=1.5)

    def test_read_budget_garbage(self, tmp_path):
        path = write(tmp_path / "r.json", "not json at all\n")
        with pytest.raises(IngestionError):
            read_budget(path)

    @pytest.mark.parametrize(
        "data,line",
        [(b'\xff\xfe{"budget":{"rho":0.5,"delta":0.0}}\n', 1),
         (b'{"budget":{"rho":0.5,"delta":0.0}}\n{"round":1,"items":["\xff"]}\n', 2)],
    )  # fmt: skip
    def test_read_budget_not_utf8_names_file_and_line(self, tmp_path, capsys, data, line):
        path = tmp_path / "r.json"
        path.write_bytes(data)
        message = f"{path}: line {line}: not valid UTF-8 text"
        with pytest.raises(IngestionError, match=f"^{re.escape(message)}$"):
            read_budget(path)
        assert main(["account", "compose", str(path)]) == 2
        assert capsys.readouterr() == ("", f"error: {message}\n")

    # The second form sends the parse to the NDJSON fallback, on the first line.
    @pytest.mark.parametrize("rest", ["", '\n{"round":1,"items":[]}\n'], ids=["json", "ndjson"])
    @pytest.mark.parametrize(
        "head",
        ["[" * 200_000, '{"budget": {"delta": 0.1, "rho": 1' + "0" * 5000 + "}}"],
        ids=["deep", "digits"],
    )
    def test_read_budget_too_deep_or_too_many_digits_exits_2(self, tmp_path, capsys, head, rest):
        # json.loads raises RecursionError on the first and ValueError (past
        # the int digit limit) on the second, not JSONDecodeError.
        path = write(tmp_path / "r.json", head + rest)
        prefix = f"{path}: not a report JSON file: "
        with pytest.raises(IngestionError, match=f"^{re.escape(prefix)}"):
            read_budget(path)
        assert main(["account", "compose", str(path)]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith(f"error: {prefix}") and err.count("\n") == 1


@pytest.fixture
def hist_csv(tmp_path):
    return write(tmp_path / "h.csv", "label,count\napple,40\nbanana,12\ncherry,3\n")


@pytest.fixture
def events_ndjson(tmp_path):
    lines = [
        '{"round": 1, "items": ["a"]}',
        '{"round": 2, "items": ["a", "b"]}',
        '{"round": 3, "items": ["b"]}',
    ]
    return write(tmp_path / "ev.ndjson", "\n".join(lines) + "\n")


class TestMain:
    def test_account_gaussian_cdp_without_a_finite_rho_exits_2(self, capsys):
        assert main(["account", "gaussian-cdp", "--l2", "1", "--sigma", "1e-300"]) == 2
        message = "l2_sensitivity = 1.0 and sigma = 1e-300 give no finite rho"
        assert capsys.readouterr() == ("", f"error: {message}\n")

    def test_account_cdp_to_dp_prints_epsilon(self, capsys):
        code = main(
            ["account", "cdp-to-dp", "--rho", "0.5", "--delta", "0", "--delta-prime", "1e-6"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert json.loads(out)["epsilon"] == pytest.approx(5.7565217697569320, rel=1e-12)

    def test_release_twice_identical_files(self, hist_csv, tmp_path):
        args = [
            "release", "--noise", "gaussian", "--epsilon", "1", "--delta", "1e-6",
            "--l0", "1", "--linf", "1", "--in", hist_csv, "--seed", "7",
        ]
        out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
        assert main(args + ["--out", str(out1)]) == 0
        assert main(args + ["--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_topk_rejects_unknown_k_flag(self, hist_csv, capsys):
        code = main(
            [
                "topk", "--k", "3", "--kbar", "2", "--epsilon", "1", "--delta", "0.05",
                "--l0", "1", "--linf", "1", "--in", hist_csv, "--seed", "3",
            ]
        )
        assert code == 2

    def test_gumbel_topk_k_above_kbar(self, hist_csv, capsys):
        code = main(
            [
                "gumbel-topk", "--k", "3", "--kbar", "2", "--epsilon", "1",
                "--delta", "0.05", "--l0", "1", "--in", hist_csv, "--seed", "3",
            ]
        )
        assert code == 2
        assert "k must not exceed kbar" in capsys.readouterr().err

    def test_gumbel_output_has_ranks_no_counts(self, hist_csv, capsys):
        code = main(
            [
                "gumbel-topk", "--k", "2", "--kbar", "3", "--epsilon", "1",
                "--delta", "0.05", "--l0", "1", "--in", hist_csv, "--seed", "3",
            ]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["items"]
        for item in payload["items"]:
            assert set(item) == {"rank", "label"}

    def test_unknown_subcommand(self, capsys):
        assert main(["nonsense"]) == 2

    def test_missing_input_is_io_error(self, capsys):
        code = main(
            [
                "release", "--noise", "gaussian", "--epsilon", "1", "--delta", "1e-6",
                "--l0", "1", "--linf", "1", "--in", "does-not-exist.csv", "--seed", "7",
            ]
        )
        assert code == 3

    @pytest.mark.parametrize("out", [None, "snap.ndjson"])
    def test_stream_missing_input_is_io_error_and_writes_nothing(self, tmp_path, capsys, out):
        # The event file is read lazily, as the report is built; the report
        # is still built whole before anything is written.
        argv = ["stream", "--horizon", "4", "--epsilon", "1", "--delta", "0.01", "--l0", "2",
                "--in", str(tmp_path / "does-not-exist.ndjson"), "--seed", "5"]  # fmt: skip
        if out is not None:
            argv += ["--out", str(tmp_path / out)]
        assert main(argv) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("I/O error: ") and "does-not-exist.ndjson" in captured.err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("command", ["release", "topk", "gumbel-topk", "stream", "validate"])
    @pytest.mark.parametrize("seed", ["-1", str(2**64)])
    def test_seed_outside_64_bits_is_exit_two(self, hist_csv, events_ndjson, tmp_path, capsys,
                                              command, seed):  # fmt: skip
        # A seed keys the noise with its own bits: -1 would alias 2**64 - 1.
        # It is refused before the input is read, so a missing input exits
        # the same way.
        out = tmp_path / "r.json"
        privacy = ["--epsilon", "1", "--delta", "1e-6", "--l0", "1", "--out", str(out)]
        argv = {
            "release": ["--noise", "gaussian", "--linf", "1", *privacy],
            "topk": ["--kbar", "2", "--linf", "1", *privacy],
            "gumbel-topk": ["--k", "1", "--kbar", "2", *privacy],
            "stream": ["--horizon", "4", *privacy],
            "validate": ["--suite", "renyi", "--report", str(out)],
        }[command]
        source = events_ndjson if command == "stream" else hist_csv
        inputs = [[]] if command == "validate" else [["--in", source], ["--in", str(tmp_path / "missing")]]
        for extra in inputs:
            assert main([command, *argv, *extra, "--seed", seed]) == 2
            err = capsys.readouterr().err
            assert "seed" in err and "Traceback" not in err
            assert not out.exists()

    def test_bad_parameter_is_exit_two(self, hist_csv, capsys):
        code = main(
            [
                "release", "--noise", "gaussian", "--epsilon", "-1", "--delta", "1e-6",
                "--l0", "1", "--linf", "1", "--in", hist_csv, "--seed", "7",
            ]
        )
        assert code == 2
        assert "error" in capsys.readouterr().err

    def test_version_and_help(self, capsys):
        assert main(["--version"]) == 0
        assert "unkhist" in capsys.readouterr().out
        assert main(["--help"]) == 0

    def test_import_loads_no_numpy_random(self):
        # Every CLI launch pays for what importing unkhist.cli loads; numpy.random
        # is loaded by the first RandomSource, when a command draws.
        src = str(Path(cli.__file__).parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        probe = "import sys, unkhist.cli; print(sorted(m for m in sys.modules if m.startswith('numpy.random')))"
        run = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, env=env, check=True)
        assert run.stdout.strip() == "[]"

    def test_stream_emits_header_and_snapshots(self, events_ndjson, tmp_path, capsys):
        out = tmp_path / "snap.ndjson"
        code = main(
            [
                "stream", "--horizon", "4", "--epsilon", "1", "--delta", "0.01",
                "--l0", "2", "--in", events_ndjson, "--seed", "5", "--out", str(out),
            ]
        )
        assert code == 0
        lines = out.read_text().splitlines()
        header = json.loads(lines[0])
        assert header["mechanism"] == "continual-counter"
        assert header["budget"]["rho"] == pytest.approx(2 * 3 * 0.5, rel=1e-12)
        rounds = [json.loads(line)["round"] for line in lines[1:]]
        assert rounds == [1, 2, 3]

    def test_stream_rejects_bad_event_lines(self, tmp_path, capsys):
        # A missing key, labels that are not text, a byte that is not UTF-8, a
        # lone surrogate, nesting too deep to parse, and an event the counter
        # refuses.
        for line in (b'{"round": 2}', b'{"round": 2, "items": [{}]}',
                     b'{"round": 2, "items": [7]}', b'{"round": 2, "items": ["caf\xe9"]}',
                     b'{"round": 2, "items": ["\\ud800"]}', b"[" * 200_000,
                     b'{"round": 3, "items": []}'):
            bad = tmp_path / "ev.ndjson"
            bad.write_bytes(b'{"round": 1, "items": []}\n' + line + b"\n")
            code = main(
                [
                    "stream", "--horizon", "4", "--epsilon", "1", "--delta", "0.01",
                    "--l0", "2", "--in", str(bad), "--seed", "5",
                ]
            )
            assert code == 2
            assert "line 2" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ["release", "--noise", "gaussian", "--l0", "1", "--linf", "1"],
            ["topk", "--kbar", "2", "--l0", "1", "--linf", "1"],
            ["stream", "--horizon", "4", "--l0", "2"],
        ],
    )
    def test_delta_below_double_resolution_still_calibrates(
        self, argv, hist_csv, events_ndjson, tmp_path
    ):
        # At delta 1e-17, 1 - delta/l0 (or 1 - delta/(l0*horizon)) rounds to 1.0.
        source = events_ndjson if argv[0] == "stream" else hist_csv
        thresholds = []
        for delta in ("1e-15", "1e-17"):
            out = tmp_path / f"{delta}.json"
            code = main(
                argv + ["--epsilon", "1", "--delta", delta, "--in", source, "--seed", "3",
                        "--out", str(out)]
            )  # fmt: skip
            assert code == 0
            header = out.read_text(encoding="utf-8").splitlines()[0]
            thresholds.append(json.loads(header)["threshold_public"])
        assert math.isfinite(thresholds[1])
        assert thresholds[1] > thresholds[0]

    def test_account_compose_past_the_float_range_exits_2(self, tmp_path, capsys):
        paths = [
            write(tmp_path / name, '{"budget": {"delta": 0.1, "rho": 1e308}}\n')
            for name in ("a.json", "b.json")
        ]
        assert main(["account", "compose", *paths]) == 2
        budget = CdpBudget(delta=0.1, rho=1e308)
        message = f"budgets = {[budget, budget]!r} gives no finite rho"
        assert capsys.readouterr() == ("", f"error: {message}\n")

    def test_account_compose_reproduces_report_budgets(self, hist_csv, tmp_path, capsys):
        paths = []
        budgets = []
        for seed, delta in ((1, "0.01"), (2, "0.02")):
            out = tmp_path / f"r{seed}.json"
            assert (
                main(
                    [
                        "release", "--noise", "laplace", "--epsilon", "0.5",
                        "--delta", delta, "--l0", "2", "--linf", "1",
                        "--in", hist_csv, "--seed", str(seed), "--out", str(out),
                    ]
                )
                == 0
            )
            paths.append(str(out))
            budgets.append(CdpBudget(delta=float(delta), rho=2 * 0.25 / 2))
        capsys.readouterr()
        assert main(["account", "compose"] + paths) == 0
        payload = json.loads(capsys.readouterr().out)
        expected = compose(budgets)
        assert payload["rho"] == pytest.approx(expected.rho, rel=1e-12)
        assert payload["delta"] == pytest.approx(expected.delta, rel=1e-12)

    def test_validate_writes_report(self, tmp_path):
        out = tmp_path / "suite.json"
        code = main(
            ["validate", "--suite", "renyi", "--trials", "10000", "--seed", "0",
             "--report", str(out)]
        )
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["suite"] == "renyi"
        assert payload["passed"] is True


RELEASE_ARGV = {
    "release-laplace": ["release", "--noise", "laplace", "--l0", "2", "--linf", "1"],
    "release-gaussian": ["release", "--noise", "gaussian", "--l0", "2", "--linf", "1"],
    "topk": ["topk", "--kbar", "2", "--l0", "2", "--linf", "1"],
    "gumbel-topk": ["gumbel-topk", "--k", "2", "--kbar", "3", "--l0", "2"],
    "stream": ["stream", "--horizon", "4", "--l0", "2"],
}


@pytest.mark.parametrize("case", [*RELEASE_ARGV, "validate"])
def test_output_contract(case, hist_csv, events_ndjson, tmp_path, capsys):
    # Given an output path, a command writes nothing to stdout and makes the
    # file with the mode open(path, "w") gives.  A delta too small to
    # calibrate a finite threshold exits 2, names delta and writes no file:
    # delta/l0 underflows to 0.0, or l0/delta overflows to inf.  So does an
    # epsilon whose noise scale overflows.
    def run(out, epsilon="1", delta="0.05"):
        if case == "validate":
            return main(["validate", "--suite", "renyi", "--trials", "10000", "--seed", "0",
                         "--report", str(out)])  # fmt: skip
        source = events_ndjson if case == "stream" else hist_csv
        return main(RELEASE_ARGV[case] + ["--epsilon", epsilon, "--delta", delta, "--in", source,
                                          "--seed", "3", "--out", str(out)])  # fmt: skip

    assert run(tmp_path / "report") == 0
    assert capsys.readouterr().out == ""
    assert (tmp_path / "report").stat().st_size > 0
    with open(tmp_path / "reference", "w"):
        pass
    mode = stat.S_IMODE((tmp_path / "reference").stat().st_mode)
    assert stat.S_IMODE((tmp_path / "report").stat().st_mode) == mode
    if case != "validate":
        assert run(tmp_path / "tiny", delta="5e-324") == 2
        assert "delta = 5e-324" in capsys.readouterr().err
        assert run(tmp_path / "tiny", epsilon="1e-310") == 2
        assert "epsilon = 1e-310 and delta = 0.05" in capsys.readouterr().err
        assert not (tmp_path / "tiny").exists()


@pytest.mark.parametrize("case", RELEASE_ARGV)
def test_l0_beyond_the_float_range_exits_2(case, hist_csv, events_ndjson, tmp_path, capsys):
    argv = list(RELEASE_ARGV[case])
    argv[argv.index("--l0") + 1] = str(10**400)
    source = events_ndjson if case == "stream" else hist_csv
    out = tmp_path / "report"
    code = main(argv + ["--epsilon", "1", "--delta", "0.05", "--in", source, "--seed", "3",
                        "--out", str(out)])  # fmt: skip
    assert code == 2
    assert "l0" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("case", RELEASE_ARGV)
def test_a_bad_seed_is_named_before_a_bad_flag(case, hist_csv, events_ndjson, tmp_path, capsys):
    # Every release command checks --seed first, so with epsilon bad too the
    # error names the seed.
    source = events_ndjson if case == "stream" else hist_csv
    out = tmp_path / "report"
    code = main(RELEASE_ARGV[case] + ["--epsilon", "-1", "--delta", "0.05", "--in", source,
                                      "--seed", "-1", "--out", str(out)])  # fmt: skip
    assert code == 2
    assert capsys.readouterr().err == "error: seed must be an integer >= 0, got -1\n"
    assert not out.exists()


@pytest.mark.parametrize("case", RELEASE_ARGV)
def test_epsilon_without_a_finite_rho_exits_2_before_any_draw(
    case, hist_csv, events_ndjson, tmp_path, capsys, monkeypatch
):
    # rho = l0 eps^2 / 2 (k eps^2 / 8 for gumbel-topk, l0 depth eps^2 / 2 for
    # the stream) overflows, while the threshold stays finite.
    def drew(*args):
        raise AssertionError("noise was drawn")

    monkeypatch.setattr(RandomSource, "uniform", drew)
    monkeypatch.setattr(RandomSource, "uniforms", drew)
    monkeypatch.setattr(RandomSource, "fill", staticmethod(drew))
    source = events_ndjson if case == "stream" else hist_csv
    out = tmp_path / "report"
    code = main(RELEASE_ARGV[case] + ["--epsilon", "1e300", "--delta", "0.05", "--in", source,
                                      "--seed", "3", "--out", str(out)])  # fmt: skip
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.endswith(" and epsilon = 1e+300 give no finite rho\n")
    assert not out.exists()


@pytest.mark.parametrize(
    "argv,message",
    [
        (["expmech-cdp", "--epsilon", "1e300"], "epsilon = 1e+300 gives no finite rho"),
        (["dp-to-cdp", "--epsilon", "1e300", "--delta", "0.1"], "epsilon = 1e+300 gives no finite rho"),
        (
            ["laplace-dp", "--l1", "1e300", "--scale", "1e-300"],
            "l1_sensitivity = 1e+300 and scale = 1e-300 give no finite epsilon",
        ),
    ],
)
def test_account_without_a_finite_budget_exits_2(argv, message, capsys):
    assert main(["account", *argv]) == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")


@pytest.mark.parametrize("command", [["topk", "--linf", "1"], ["gumbel-topk", "--k", "2"]])
def test_topk_cost_follows_the_input_not_kbar(command, tmp_path):
    # Only the input's entries are drawn for: a kbar of 10^6 or 10^11 over two
    # labels costs what kbar 2 does and gives the same report but for its
    # params.  10^6 goes first, so a cost that follows kbar fails it in about
    # a second, before 10^11 can exhaust memory.
    path = write(tmp_path / "two.csv", "label,count\napple,9\nbanana,5\n")

    def report(kbar, seed):
        out = tmp_path / "report.json"
        argv = command + ["--kbar", str(kbar), "--epsilon", "1", "--delta", "0.05", "--l0", "1",
                          "--in", path, "--out", str(out), "--seed", str(seed)]  # fmt: skip
        start = time.perf_counter()
        assert main(argv) == 0
        elapsed = time.perf_counter() - start
        payload = json.loads(out.read_text(encoding="utf-8"))
        assert payload["params"].pop("kbar") == kbar
        return payload, elapsed

    released = set()
    for seed in range(5):
        narrow = report(2, seed)[0]
        for kbar in (10**6, 10**11):
            wide, elapsed = report(kbar, seed)
            assert elapsed < 0.5
            assert wide == narrow
        released.update(item["label"] for item in narrow["items"])
    assert {"apple", "banana"} <= released


# Input lines whose third holds a byte that is not UTF-8 or, in its place,
# content the reader refuses.
LINE_CASES = {
    "stream": (["stream", "--horizon", "4", "--l0", "2"],
               [b'{"round": 1, "items": []}', b"", b'{"round": 2, "items": [%s]}'],
               b'"\xff"', b"7"),
    "release": (["release", "--noise", "laplace", "--l0", "1", "--linf", "1"],
                [b"label,count", b'"a",1', b'"b",%s'], b"2\xff", b"x"),
}  # fmt: skip


@pytest.mark.parametrize("newline", [b"\n", b"\r\n", b"\r"], ids=["LF", "CRLF", "CR"])
@pytest.mark.parametrize("command", sorted(LINE_CASES))
def test_undecodable_byte_names_the_line_a_content_error_names(command, newline, tmp_path, capsys):
    argv, lines, undecodable, refused = LINE_CASES[command]
    named = []
    for fill in (undecodable, refused):
        source, out = tmp_path / "in", tmp_path / "out"
        source.write_bytes(newline.join(lines).replace(b"%s", fill) + newline)
        code = main(argv + ["--epsilon", "1", "--delta", "0.05", "--in", str(source),
                            "--seed", "1", "--out", str(out)])  # fmt: skip
        assert code == 2
        assert not out.exists()
        named.append(re.search(r"line (\d+): ", capsys.readouterr().err).group(1))
    assert named == ["3", "3"]


def _event(draw_items):
    return draw_items.map(lambda items: lambda r: json.dumps({"round": r, "items": items}).encode())


# Each maker takes the line's position as the round a valid event would carry.
event_lines = st.one_of(
    _event(st.lists(st.sampled_from(["a", "b", "c", "é", "\U0001f600"]), max_size=3)),
    _event(st.lists(st.text(max_size=3), max_size=3)),
    st.sampled_from([
        b'{"round": %d}', b'{"items": []}', b'{"round": %d, "items": [], "x": 0}',
        b'{"round": %d, "items": "ab"}', b'{"round": %d, "items": {"a": 1}}',
        b'{"round": %d, "items": null}', b'[%d]', b'"%d"', b'{"round": "%d", "items": []}',
        b'{"round": %d, "items": ["\\ud800"]}', b'{"round": %d, "items": ["a\\udfff"]}',
        b'{"round": %d, "items": ["\xed\xa0\x80"]}', b'{"round": %d, "items": ["\xff"]}',
        b'{"round": %d, "items": [1.5, null]}', b'{"round": %d.0, "items": []}',
        b'{"round": %d, "items": ["\xe2\x8a\xa51"]}', b'{"round": %d, "items": ["a", "b", "c"]}',
        b'{"round": NaN, "items": []}', b'{"round": %d, "items": []', b"", b"  ", b"\x00",
    ]).map(lambda line: (lambda r: line.replace(b"%d", b"%d" % r))),  # fmt: skip
    st.integers(1, 100_000).map(lambda depth: lambda r: b"[" * depth),
    st.sampled_from([20, 400, 4300, 5000]).map(
        lambda digits: lambda r: b'{"round": 1%s, "items": []}' % (b"0" * digits)
    ),
    st.integers(0, 10).map(lambda shift: lambda r: b'{"round": %d, "items": []}' % (r + shift)),
)


@settings(max_examples=300, deadline=None)
@given(makers=st.lists(event_lines, max_size=6), newline=st.sampled_from([b"\n", b"\r\n"]))
def test_stream_event_files_exit_0_or_2_naming_the_line(makers, newline, tmp_path_factory):
    # Any event file, valid or not, ends in exit 0 with a report, or in exit 2
    # naming the offending line and leaving no report; nothing else escapes.
    folder = tmp_path_factory.mktemp("events")
    events, out = folder / "ev.ndjson", folder / "out.ndjson"
    events.write_bytes(newline.join(make(r) for r, make in enumerate(makers, 1)) + newline)
    with contextlib.redirect_stderr(io.StringIO()) as err:
        code = main(["stream", "--horizon", "8", "--epsilon", "1", "--delta", "0.05",
                     "--l0", "2", "--in", str(events), "--seed", "1", "--out", str(out)])  # fmt: skip
    assert code in (0, 2)
    if code == 2:
        assert re.search(r"line \d+: ", err.getvalue())
        assert not out.exists()
    else:
        assert out.exists()


# Rows of a histogram CSV that the parser takes: a NUL in a label, quoted
# fields, a blank line, and counts of 19 digits and more.  "a" twice is a
# duplicate label.
good_csv_rows = [b"a,3", b"b,0", b"\xc3\xa9,12", b"a\x00b,2", b'"q,x",4', b'"a",5', b'"a\rb",6', b"",
                 b"big,1234567890123456789", b"pad,0000000000000000000007"]  # fmt: skip
# And rows it refuses: a lone CR in a label, bytes that are not UTF-8, an
# unclosed quote, an extra comma, an empty or reserved label, and bad counts,
# one above 2^63 - 1.
bad_csv_rows = [b"x\ry,2", b"caf\xe9,3", b'"open,3', b"e,3,9", b",3", b"\xe2\x8a\xa5x,2",
                b"huge,9223372036854775808", b"neg,-1", b"half,1.5"]  # fmt: skip
# The header, or a BOM before it, another header, or none.
csv_headers = [b"label,count"] * 3 + [b"\xef\xbb\xbflabel,count", b"name,value", None]


@settings(max_examples=150, deadline=None, derandomize=True)
@given(header=st.sampled_from(csv_headers),
       rows=st.lists(st.sampled_from(good_csv_rows * 4 + bad_csv_rows), max_size=6, unique=True),
       newline=st.sampled_from([b"\n", b"\r\n"]), last=st.booleans())  # fmt: skip
def test_histogram_files_exit_0_or_2_naming_the_line(header, rows, newline, last, tmp_path_factory):
    # Any histogram file, valid or not, ends each release command in exit 0
    # with a complete report, or in exit 2 naming the offending line and
    # leaving the earlier report as it was; nothing else escapes.
    folder = tmp_path_factory.mktemp("csv")
    source, out = folder / "h.csv", folder / "out.json"
    lines = rows if header is None else [header, *rows]
    source.write_bytes(newline.join(lines) + (newline if last and lines else b""))
    for argv in (["release", "--noise", "laplace", "--linf", "1"], ["topk", "--kbar", "3", "--linf", "1"],
                 ["gumbel-topk", "--k", "2", "--kbar", "3"]):  # fmt: skip
        out.write_bytes(b"old report\n")
        with contextlib.redirect_stderr(io.StringIO()) as err:
            code = main(argv + ["--epsilon", "1", "--delta", "0.05", "--l0", "1",
                                "--in", str(source), "--seed", "1", "--out", str(out)])  # fmt: skip
        assert code in (0, 2) and "Traceback" not in err.getvalue()
        if code == 2:
            # release's --min-count floor, which refuses a count of 0, names
            # the label but not its line.
            floor = argv[0] == "release" and err.getvalue().endswith("below the ingestion floor 1\n")
            assert re.search(r"line \d+: ", err.getvalue()) or floor
            assert out.read_bytes() == b"old report\n"
        else:
            report = json.loads(out.read_bytes())
            assert report["mechanism"] and isinstance(report["items"], list)


# SHA-256 of the snapshots below, computed with the dict-based counter that
# the partial-sum stack replaced.  A change that alters the stream's noise
# for a given seed must change the report's mechanism tag (today
# "continual-counter") and this digest together.
STREAM_GOLDEN = Path(__file__).parent / "data" / "stream_golden.ndjson"
STREAM_GOLDEN_SHA256 = "3284d3bad4aacf35c3d245d9467b27d227cfd32039793f4e998ed8678ec9ff97"


def test_stream_output_matches_golden_digest(tmp_path):
    # 40 rounds, 6 labels, three of them arriving after round 10, three empty rounds.
    out = tmp_path / "snapshots.ndjson"
    code = main(
        ["stream", "--horizon", "64", "--epsilon", "1", "--delta", "0.05", "--l0", "3",
         "--in", str(STREAM_GOLDEN), "--out", str(out), "--seed", "7"]
    )  # fmt: skip
    assert code == 0
    text = out.read_text(encoding="utf-8")
    assert json.loads(text.splitlines()[0])["mechanism"] == "continual-counter"
    assert hashlib.sha256(out.read_bytes()).hexdigest() == STREAM_GOLDEN_SHA256


# SHA-256 of the snapshots of a longer stream, computed with the per-label
# Counter loop before the CLI ran the array sweep, which draws its noise in
# windows of SWEEP_WINDOW rounds: 300 rounds span several windows.  At
# epsilon 2, labels are released while the noise of the nodes that predate
# their first event still counts.  The same rule as above ties it to the
# mechanism tag.
STREAM_LONG = Path(__file__).parent / "data" / "stream_long.ndjson"
STREAM_LONG_SHA256 = "090fe4bb0c5f796beb1ac81cf0c9d556da6aca8de86bafaceb822929f2ba64f0"
STREAM_LONG_TOP_SEED_SHA256 = "29cd548beaf7476ebfc02cd05938a8e4b355858f289b1b108b4f72642e3681f8"


def test_long_stream_output_matches_golden_digest(tmp_path):
    # 300 rounds, 30 labels (two non-ASCII) arriving up to round 285, 40 empty rounds.
    out = tmp_path / "snapshots.ndjson"
    code = main(
        ["stream", "--horizon", "512", "--epsilon", "2", "--delta", "0.05", "--l0", "3",
         "--in", str(STREAM_LONG), "--out", str(out), "--seed", "11"]
    )  # fmt: skip
    assert code == 0
    assert 300 > 2 * SWEEP_WINDOW
    assert hashlib.sha256(out.read_bytes()).hexdigest() == STREAM_LONG_SHA256


# A hot stream from plain arithmetic: 48 labels, label i arriving in round
# 4i + 1 and then coming in two rounds of three, over 200 rounds (not a
# multiple of SWEEP_WINDOW).  At l0 32 and epsilon 1, 45 labels clear the
# threshold; the sweep promotes them at stack heights 0 to 6 and at most
# positions in a window, many after the first window.  CI writes the same
# file with the same one-liner.  Its digest was computed before promotions
# kept the window's uniforms, when they drew the label's child stream again.
HOT_STREAM = "".join(
    json.dumps({"round": r, "items": [f"k{i:02d}" for i in range(48) if 4 * i < r and (r + i) % 3]})
    + "\n" for r in range(1, 201)
)
HOT_STREAM_ARGV = ["--horizon", "200", "--epsilon", "1", "--l0", "32", "--seed", "7"]
HOT_STREAM_SHA256 = "8f413e223215c99065b97e799a29882226a371f9cc63a877bf256dd3b78e6dc6"


# SWEEP_MIN_LABELS below which stream.snapshots, which unkhist stream runs,
# runs Counter.observe, set so that every stream takes one path: 0 for the
# array sweep, 10**9 for Counter.
STREAM_PATHS = {"sweep": 0, "counter": 10**9}


@pytest.mark.parametrize("path", STREAM_PATHS)
@pytest.mark.parametrize(
    "source, argv, digest",
    [
        (STREAM_GOLDEN, ["--horizon", "64", "--epsilon", "1", "--l0", "3", "--seed", "7"],
         STREAM_GOLDEN_SHA256),
        (STREAM_LONG, ["--horizon", "512", "--epsilon", "2", "--l0", "3", "--seed", "11"],
         STREAM_LONG_SHA256),
        (STREAM_LONG, ["--horizon", "512", "--epsilon", "2", "--l0", "3", "--seed", str(2**64 - 1)],
         STREAM_LONG_TOP_SEED_SHA256),
        (HOT_STREAM, HOT_STREAM_ARGV, HOT_STREAM_SHA256),
    ],
    ids=["golden", "long", "long-top-seed", "hot"],
)  # fmt: skip
def test_stream_digests_hold_on_either_path(tmp_path, monkeypatch, path, source, argv, digest):
    # The golden stream has 6 labels and takes Counter, the long and the hot
    # ones 30 and 48 and take the sweep; each must give the same bytes on the
    # other path.  At the largest seed the master's entropy is two words.
    if isinstance(source, str):
        source = tmp_path / "hot.ndjson"
        source.write_text(HOT_STREAM, encoding="utf-8")
    monkeypatch.setattr(stream, "SWEEP_MIN_LABELS", STREAM_PATHS[path])
    out = tmp_path / "snapshots.ndjson"
    code = main(["stream", *argv, "--delta", "0.05", "--in", str(source), "--out", str(out)])
    assert code == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


@pytest.mark.parametrize(
    "lines, horizon, l0, epsilon, seed",
    [(STREAM_LONG.read_text(encoding="utf-8"), 512, 3, 2.0, 11), (HOT_STREAM, 200, 32, 1.0, 7)],
    ids=["long", "hot"],
)  # fmt: skip
def test_sweep_seeds_each_child_stream_once(monkeypatch, lines, horizon, l0, epsilon, seed):
    # A label's child stream is seeded once, when it arrives: a promotion
    # makes its stack exact from the uniforms the sweep kept, drawing none
    # again, and the snapshots stay Counter's.
    config = CounterConfig.from_privacy(horizon, l0, epsilon, 0.05, seed)
    events = [StreamEvent(**json.loads(line)) for line in lines.splitlines()]
    counter = Counter(config)
    expected = [(event.round, counter.observe(event)) for event in events]

    def child(self, *tokens):
        raise AssertionError(f"child stream {tokens} seeded again")

    monkeypatch.setattr(RandomSource, "child", child)
    snapshots = list(counter_sweep(config, events))
    assert repr(snapshots) == repr(expected)
    assert len(snapshots[-1][1]) >= 10


@pytest.mark.parametrize("labels", [1, SWEEP_MIN_LABELS - 1, SWEEP_MIN_LABELS, 40])
def test_stream_sweeps_from_sweep_min_labels_on(tmp_path, monkeypatch, labels):
    calls = []

    def counted(config, events):
        calls.append(config)
        return counter_sweep(config, events)

    monkeypatch.setattr(stream, "counter_sweep", counted)
    events, out = tmp_path / "ev.ndjson", tmp_path / "out.ndjson"
    lines = [json.dumps({"round": r, "items": [f"l{r % labels}"]}) for r in range(1, 65)]
    events.write_text("\n".join(lines) + "\n", encoding="utf-8")
    code = main(["stream", "--horizon", "64", "--epsilon", "1", "--delta", "0.05", "--l0", "1",
                 "--in", str(events), "--out", str(out), "--seed", "1"])  # fmt: skip
    assert code == 0
    assert len(calls) == (labels >= SWEEP_MIN_LABELS)


@pytest.mark.parametrize(
    "horizon, line, message",
    [
        (200, '{"round":102,"items":[]}', "expected round 101, got 102"),
        (200, '{"round":101,"items":["a","b","c"]}', "event carries 3 items, more than l0 = 2"),
        (100, '{"round":101,"items":["a"]}', "round 101 exceeds the horizon 100"),
    ],
)
@pytest.mark.parametrize("path", STREAM_PATHS)
def test_stream_names_the_line_of_a_refused_event_past_a_window(
    tmp_path, capsys, monkeypatch, path, horizon, line, message
):
    # The sweep takes events a window at a time; on either path the line
    # named is the refused event's, and no report is written.
    monkeypatch.setattr(stream, "SWEEP_MIN_LABELS", STREAM_PATHS[path])
    good = [json.dumps({"round": r, "items": ["a", "b"] if r % 3 else ["a"]}) for r in range(1, 101)]
    events, out = tmp_path / "ev.ndjson", tmp_path / "out.ndjson"
    events.write_text("\n".join(good + [line] + good[:20]) + "\n", encoding="utf-8")
    code = main(["stream", "--horizon", str(horizon), "--epsilon", "1", "--delta", "0.05",
                 "--l0", "2", "--in", str(events), "--out", str(out), "--seed", "1"])  # fmt: skip
    assert code == 2
    assert capsys.readouterr().err == f"error: {events}: line 101: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("path", STREAM_PATHS)
def test_stream_names_a_refused_event_before_a_later_bad_line(tmp_path, capsys, monkeypatch, path):
    # Each event is checked as it is read: the refused round on line 2 is
    # named, not the broken JSON on line 4.
    monkeypatch.setattr(stream, "SWEEP_MIN_LABELS", STREAM_PATHS[path])
    events, out = tmp_path / "ev.ndjson", tmp_path / "out.ndjson"
    events.write_text('{"round":1,"items":["a"]}\n{"round":3,"items":[]}\n'
                      '{"round":3,"items":["b"]}\n{"round":4,\n', encoding="utf-8")  # fmt: skip
    code = main(["stream", "--horizon", "8", "--epsilon", "1", "--delta", "0.05",
                 "--l0", "2", "--in", str(events), "--out", str(out), "--seed", "1"])  # fmt: skip
    assert code == 2
    assert capsys.readouterr().err == f"error: {events}: line 2: expected round 2, got 3\n"
    assert not out.exists()


# SHA-256 of each histogram mechanism's report on the fixture below (seed 7,
# epsilon 1, delta 0.05), computed before the argument checks moved into
# core and estimate_delta_event became one trial loop.  A change that alters
# a mechanism's noise for a given seed must change its report's mechanism
# tag and its digest here together.
HIST_GOLDEN = Path(__file__).parent / "data" / "hist_golden.csv"
HIST_GOLDEN_CASES = {
    "release-laplace": (
        ["release", "--noise", "laplace", "--l0", "2", "--linf", "1"],
        "7863af23048546b7f6c5943e0e1210bbcd9c1236a43b0cdbc71da55837de5957",
    ),
    "release-gaussian": (
        ["release", "--noise", "gaussian", "--l0", "2", "--linf", "1"],
        "76a7a53657b4d4a5dc57a6005a6420765106473a1031d66a786ebb89dac61cb5",
    ),
    "topk": (
        ["topk", "--kbar", "8", "--l0", "2", "--linf", "1"],
        "de061278a467a3ce470a965b52025a3bfd17318a7ed07a97f04c1886221b4f2f",
    ),
    "gumbel-topk": (
        ["gumbel-topk", "--k", "8", "--kbar", "12", "--l0", "2"],
        "c2b4e8a10c50bbfa83d1139bea93fa3da0b53c88b3110158278fca499f069032",
    ),
}


@pytest.mark.parametrize("case", sorted(HIST_GOLDEN_CASES))
def test_histogram_output_matches_golden_digest(tmp_path, case):
    # 20 labels, one of them non-ASCII, with near-ties around the thresholds
    # and among the ranks that gumbel-topk releases.
    argv, digest = HIST_GOLDEN_CASES[case]
    out = tmp_path / "report.json"
    code = main(
        argv + ["--epsilon", "1", "--delta", "0.05", "--in", str(HIST_GOLDEN),
                "--out", str(out), "--seed", "7"]
    )  # fmt: skip
    assert code == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


# SHA-256 of each histogram mechanism's report on a histogram of 1500
# labels (seed 7, epsilon 1, delta 0.05), computed before release_batch drew
# through core.screened_draws.  Every block is past core.SCREEN_FLOOR, so the
# one-shot CLI runs the screened kernels: the counts 1..101, about fifteen
# labels each, tie in blocks and sit near each threshold (release's near 3
# and 4, topk's near the 251st count plus 3.8).  CI writes the same file with
# the same one-liner.  The same rule as above ties each digest to its tag.
SCREENED_HIST_CASES = {
    "release-laplace": (
        ["release", "--noise", "laplace", "--l0", "2", "--linf", "1"],
        "b641ee9c8df639f40215b07299fa0b7f2f699278f28c4459096d1a530e6e6012",
    ),
    "release-gaussian": (
        ["release", "--noise", "gaussian", "--l0", "2", "--linf", "1"],
        "0dbda0b9100bb945a53b19a8d700d84908a84cc9b76b6178f506ac84a9268f45",
    ),
    "topk": (
        ["topk", "--kbar", "250", "--l0", "2", "--linf", "1"],
        "7efdf0c01c328779163ae7e1fcabc3f3169d2e1301ac18ed7c83ec24e1d375a6",
    ),
    "gumbel-topk": (
        ["gumbel-topk", "--k", "60", "--kbar", "250", "--l0", "2"],
        "9ac378b765a9a8bd8cb2e5b8981501f3c5ec566409c56cda3e1b4177be374df6",
    ),
}


@pytest.mark.parametrize("floor", [core.SCREEN_FLOOR, 10**9], ids=["screened", "unscreened"])
@pytest.mark.parametrize("case", sorted(SCREENED_HIST_CASES))
def test_screened_histogram_output_matches_golden_digest(tmp_path, monkeypatch, case, floor):
    # Screened or every draw exact, the reports are the same bytes.
    monkeypatch.setattr(core, "SCREEN_FLOOR", floor)
    source = tmp_path / "screened.csv"
    source.write_text("label,count\n" + "".join(f"s{i:04d},{i * 37 % 101 + 1}\n" for i in range(1500)),
                      encoding="utf-8")  # fmt: skip
    argv, digest = SCREENED_HIST_CASES[case]
    out = tmp_path / "report.json"
    code = main(
        argv + ["--epsilon", "1", "--delta", "0.05", "--in", str(source),
                "--out", str(out), "--seed", "7"]
    )  # fmt: skip
    assert code == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


# SHA-256 of each histogram mechanism's report, with the arguments above, on
# 1600 labels whose sorted order the 8-byte words of LabelBuffer.order do not
# settle alone: seven groups share their first 8 bytes ("group-3/"), labels
# of exactly 8 bytes ("w0000012") prefix labels of 9 ("w00000122"), and the
# rest start with "é" or an astral character.  The rows come in a shuffled
# order and the counts are the screened fixture's.  Computed while the label
# order was still a key sort in Python; CI writes the same file with the same
# one-liner.
ORDER_HIST_CASES = {
    "release-laplace": "e484c888734002bffd7522d59fbbb23d8530cf9720166813299a07eb05196a07",
    "release-gaussian": "7566706610903e6c4749f8aedb48ab2a9bea0904e3d85c29161ce503e0787198",
    "topk": "02c92ae68877378ed27176ac14f990177e6f85535fbd0fa67415572562ceb32d",
    "gumbel-topk": "7818d2a2cf870b831c09353addab22d75254b51765ce31166daf15e36f091371",
}


def order_label(i):
    wide = f"é{i:04d}" if i % 8 == 3 else f"\U0001f600{i:04d}"
    return [f"group-{i % 7}/{i:04d}", f"w{i:07d}", f"w{i:08d}", wide][i % 4]


@pytest.mark.parametrize("case", sorted(ORDER_HIST_CASES))
def test_label_order_histogram_output_matches_golden_digest(tmp_path, case):
    source = tmp_path / "order.csv"
    rows = [f"{order_label(i)},{i * 37 % 101 + 1}\n" for i in (r * 691 % 1600 for r in range(1600))]
    source.write_text("label,count\n" + "".join(rows), encoding="utf-8")
    argv, _ = SCREENED_HIST_CASES[case]
    out = tmp_path / "report.json"
    code = main(
        argv + ["--epsilon", "1", "--delta", "0.05", "--in", str(source),
                "--out", str(out), "--seed", "7"]
    )  # fmt: skip
    assert code == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == ORDER_HIST_CASES[case]


# SHA-256 of `gumbel-topk --k 9 --epsilon 1 --delta 0.05 --l0 1 --seed 7` on a
# histogram whose top ten counts tie, as floats, at 2^60 + 1024 over a next
# count of 2^60, computed while Gumbel ranked its candidates' labels in a
# second sort.  At 2^60 floats are 256 apart, so every noisy count of the
# tier rounds to 2^60 + 1024 and each noisy threshold to 2^60: with --kbar 10
# the tier survives and its ranks are the label order alone, the same at any
# seed; with --kbar 9 the threshold is centred on the tier, and nothing is
# released.  The exact counts, 2^60 + 1024 + i, rise through the list, so
# the truncated order is not the label order.  The labels share 8-byte
# prefixes, "a" precedes "a\x00", and "é" and the astral characters sort by
# their UTF-8 bytes.  CI writes the same file with the same one-liner.
TIE_LABELS = ["prefix-8", "prefix-8a", "prefix-8\x00", "prefix-88", "a", "a\x00", "é", "\U0001f600", "\U0001f601", "b"]
TIE_CASES = {
    10: ("7ea1da1a7515a0561c2d6fb718af9785b1beffde7f47554e1026836c38539a10", sorted(TIE_LABELS)[:9]),
    9: ("0a1fa022ab489e46a66c0a726f51ae979fef1781f3252b03e55f23e69f332367", [BOTTOM]),
}


@pytest.mark.parametrize("kbar", sorted(TIE_CASES))
def test_gumbel_breaks_ties_by_label_at_the_cli(tmp_path, kbar):
    source = tmp_path / "tie.csv"
    rows = [f"{label},{2**60 + 1024 + i}\n" for i, label in enumerate(TIE_LABELS)] + [f"next,{2**60}\n", "small,3\n"]
    source.write_text("label,count\n" + "".join(rows), encoding="utf-8")
    digest, ranked = TIE_CASES[kbar]
    for seed in (7, 1, 2, 3):
        out = tmp_path / f"tie{seed}.json"
        code = main(["gumbel-topk", "--k", "9", "--kbar", str(kbar), "--epsilon", "1", "--delta", "0.05",
                     "--l0", "1", "--in", str(source), "--out", str(out), "--seed", str(seed)])  # fmt: skip
        assert code == 0
        assert [item["label"] for item in json.loads(out.read_bytes())["items"]] == ranked
    assert hashlib.sha256((tmp_path / "tie7.json").read_bytes()).hexdigest() == digest


# SHA-256 of `unkhist validate --suite S --trials 20000 --seed N`, computed
# before the suites became rows of one table in validation.py.  A report
# depends on the mechanisms' noise, the boundary pairs and the exact oracles,
# so a change to any of them must show here.
VALIDATE_GOLDEN = {
    ("alg1", 0): "9a10579f64640576454ac90935907e70f1f88e8aa94fdf809fc9e4bf5cdfdb58",
    ("topk", 0): "6528b28f9e9e35693f40416b0b567815485f703f37a0058b800b93c841dd70c0",
    ("gumbel", 0): "5bf2ebe79c1ff850c58a97721e904001bac9ea169d8a6dcc62d7889032d3c559",
    ("stream", 0): "fd8118d35c4a77b1e9e7ac9e1690ee7a297223b2a27a5fdde85eb593d81d36b1",
    ("renyi", 0): "b1b7d85a3ab6c29447a32975f87afe7550fd8fe452fd25763bd0c13f52aa44dd",
    ("alg1", 7): "6a3eb8b006519f18b0f0c39118f2d10a5f43ee6a374f4753b2c2c2a639671fe0",
    ("topk", 7): "7c3fd2258e64f0cc961a902fbeda2064572e1e8eb4e7ff24ba961b95477b444c",
    ("gumbel", 7): "025b35c36caa7a27ac5d2d0d2b9a3fdbcd2b4054c9cda04477a446e48c4dfe79",
    ("stream", 7): "4c3316b515d67eb2a4558c90efd75198316f8846c144aa10a8c5e037d86570ec",
    ("renyi", 7): "4206b48b9b5899f14f608537ab9ed73ec3fcb6ce381d5f384e089b53238dd3c0",
}


@pytest.mark.parametrize("suite, seed", sorted(VALIDATE_GOLDEN))
def test_validate_report_matches_golden_digest(tmp_path, suite, seed):
    out = tmp_path / "suite.json"
    code = main(["validate", "--suite", suite, "--trials", "20000", "--seed", str(seed),
                 "--report", str(out)])  # fmt: skip
    assert code == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == VALIDATE_GOLDEN[suite, seed]


# One valid argv for each subcommand and each account action.
VALID_ARGVS = [
    ["release", "--noise", "laplace", "--epsilon", "1", "--delta", "0.05", "--l0", "2",
     "--linf", "1", "--in", "h.csv", "--seed", "3"],
    ["topk", "--kbar", "4", "--epsilon", "1", "--delta", "0.05", "--l0", "1", "--linf", "1",
     "--in", "h.csv", "--out", "r.json", "--seed", "3"],
    ["gumbel-topk", "--k", "2", "--kbar", "4", "--epsilon", "1", "--delta", "0.05", "--l0", "1",
     "--in", "h.csv", "--seed", "3"],
    ["stream", "--horizon", "64", "--epsilon", "1", "--delta", "0.05", "--l0", "3",
     "--in", "e.ndjson", "--seed", "7"],
    ["validate", "--suite", "alg1", "--trials", "100"],
    ["account", "laplace-dp", "--l1", "1", "--scale", "2"],
    ["account", "gaussian-cdp", "--l2", "1", "--sigma", "2"],
    ["account", "expmech-cdp", "--epsilon", "1"],
    ["account", "dp-to-cdp", "--epsilon", "1", "--delta", "0.1"],
    ["account", "cdp-to-dp", "--rho", "0.5", "--delta", "0", "--delta-prime", "1e-6"],
    ["account", "optimize", "--rho", "0.5", "--delta", "0.1", "--total-delta", "0.2"],
    ["account", "compose", "a.json", "b.json"],
]  # fmt: skip


def _help(parser, words):
    """What `words --help` prints: the format_help() of the subparser they name."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), pytest.raises(SystemExit):
        parser.parse_args([*words, "--help"])
    return out.getvalue()


@pytest.mark.parametrize("argv", VALID_ARGVS, ids=lambda argv: " ".join(argv[:2]))
def test_parser_of_the_invoked_subcommand_parses_as_the_full_one(argv):
    words = argv[:2] if argv[0] == "account" else argv[:1]
    assert cli.build_parser(argv[0]).parse_args(argv) == cli.build_parser().parse_args(argv)
    assert _help(cli.build_parser(argv[0]), words) == _help(cli.build_parser(), words)
    assert _help(cli.build_parser(argv[0]), []) == _help(cli.build_parser(), [])


@pytest.mark.parametrize(
    "argv",
    [[], ["nosuch"], ["--version"], ["release", "--help"], ["account", "compose"],
     ["--help"], ["account", "--help"], ["release"]],
)  # fmt: skip
def test_main_answers_as_with_the_full_parser(argv, monkeypatch, capsys):
    answer = (main(argv), *capsys.readouterr())
    full_parser = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda command=None: full_parser())
    assert (main(argv), *capsys.readouterr()) == answer


def test_main_reads_the_subcommand_from_sys_argv(monkeypatch, capsys):
    monkeypatch.setattr("sys.argv", ["unkhist", "account", "expmech-cdp", "--epsilon", "2"])
    assert main() == 0
    assert json.loads(capsys.readouterr().out) == {"delta": 0.0, "rho": 0.5}
