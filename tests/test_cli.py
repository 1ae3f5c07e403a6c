"""CSV/JSON formats and the command-line surface."""

import errno
import hashlib
import json
import math
import os
import stat
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from unkhist.accountant import CdpBudget, compose
from unkhist.cli import main
from unkhist.core import Histogram, IngestionError, ParameterError
from unkhist.fileio import (
    canonical_json,
    parse_histogram_csv,
    read_budget,
    release_report_payload,
    write_histogram_csv,
    write_report_json,
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
        # A missing key, labels that are not text, and a byte that is not UTF-8.
        for line in (b'{"round": 2}', b'{"round": 2, "items": [{}]}',
                     b'{"round": 2, "items": [7]}', b'{"round": 2, "items": ["caf\xe9"]}'):
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
