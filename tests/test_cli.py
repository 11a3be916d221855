import hashlib
import json
import subprocess
import sys

import pytest

from tsirelson_lab import certify
from tsirelson_lab.cli import _workers_from_env, main, parse_sequence, parse_vector
from tsirelson_lab.seqvec import FinVec

e = FinVec.basis


def run_cli(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestParsing:
    def test_inline_json(self):
        assert parse_vector('[[4,"1"],[5,"1"],[6,"1"]]') == e(4) + e(5) + e(6)
        assert parse_vector('{"entries": [[1,"1/2"]]}') == FinVec.basis(1, "1/2")

    def test_aliases(self):
        assert parse_vector("w3") == e(1) + e(2) + e(3)
        assert parse_vector("w0") == FinVec.zero()  # an empty range, not an error
        assert parse_vector("indicator:2:4") == e(2) + e(3) + e(4)
        assert parse_vector("spike:7") == e(7)
        assert parse_vector("alt:1:3") == e(1) - e(2) + e(3)

    def test_file_input(self, tmp_path):
        path = tmp_path / "vec.json"
        path.write_text('[[2,"3"]]')
        assert parse_vector(str(path)) == FinVec.basis(2, 3)

    def test_sequence_alias(self):
        assert parse_sequence("x0").tail_value == 1


class TestCommands:
    def test_norm_t(self, capsys):
        code, out, _ = run_cli(
            ["norm", "--space", "T", "--vec", '[[4,"1"],[5,"1"],[6,"1"]]'], capsys
        )
        assert code == 0 and out.strip() == "3/2"

    def test_norm_t_long_schreier_support(self, capsys):
        # 991 points from index 1000: the program used to recurse once per
        # point and die with RecursionError
        code, out, err = run_cli(["norm", "--vec", "indicator:1000:1990"], capsys)
        assert (code, out.strip(), err) == (0, "991/2", "")

    def test_norm_tstar(self, capsys):
        code, out, _ = run_cli(["norm", "--space", "Tstar", "--vec", "indicator:4:6"], capsys)
        assert code == 0 and out.strip() == "2"

    def test_dual_norm_command(self, capsys):
        code, out, _ = run_cli(["dual-norm", "--vec", "spike:1"], capsys)
        assert code == 0 and out.strip() == "1"

    def test_james_norm_w20(self, capsys):
        code, out, _ = run_cli(["james-norm", "--vec", "w20"], capsys)
        assert code == 0 and out.strip() == "1"

    def test_james_norm_l1_base(self, capsys):
        code, out, _ = run_cli(
            ["james-norm", "--vec", '[[1,"1"],[2,"-1"]]', "--base", "l1"], capsys
        )
        assert code == 0 and out.strip() == "2"

    def test_bidual_norm_x0(self, capsys):
        code, out, _ = run_cli(["bidual-norm", "--seq", "x0"], capsys)
        assert code == 0 and out.strip() == "1"

    def test_bidual_norm_json(self, capsys):
        code, out, _ = run_cli(
            ["bidual-norm", "--seq", '{"head": ["-1"], "tail_value": "1"}'], capsys
        )
        assert code == 0 and out.strip() == "3"

    def test_exact_rational_rendering(self, capsys):
        # no floating point in default outputs
        code, out, _ = run_cli(["norm", "--space", "T", "--vec", "w3"], capsys)
        assert code == 0
        assert "." not in out

    def test_malformed_vector_exits_2(self, capsys):
        code, _, err = run_cli(["norm", "--space", "T", "--vec", '[[1,"a/b"]]'], capsys)
        assert code == 2
        assert "entry #0" in err

    @pytest.mark.parametrize("vec", ['[[2.9,"1"],[3,"1"]]', '[[true,"1"]]'])
    def test_non_integer_index_exits_2(self, vec, capsys):
        # int() truncation used to evaluate e2 + e3 here and print 1
        code, out, err = run_cli(["norm", "--vec", vec], capsys)
        assert code == 2 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "entry #0" in err and "not a JSON integer" in err

    @pytest.mark.parametrize("vec", ["indicator:5:3", "alt:9:2"])
    def test_empty_alias_range_exits_2(self, vec, capsys):
        # these used to print the norm of the zero vector, 0, and exit 0
        code, out, err = run_cli(["norm", "--vec", vec], capsys)
        assert code == 2 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "empty range" in err

    def test_string_head_exits_2(self, capsys):
        code, out, err = run_cli(
            ["bidual-norm", "--seq", '{"head": "12", "tail_value": "0"}'], capsys
        )
        assert code == 2 and out == "" and "not a list" in err

    def test_l2_norm_beyond_float_range(self, capsys):
        # the k-th root used to guess in floats and exit 1 with an OverflowError
        code, out, err = run_cli(["norm", "--space", "l2", "--vec", '[[1,"1e200"]]'], capsys)
        assert code == 0 and err == ""
        assert out.strip() == str(10**200)

    @pytest.mark.parametrize(
        "args",
        [
            ["james-norm", "--base", "T", "--vec", '[[5,1],[7,1],[9,1]]'],
            ["norm", "--space", "TJ[T]", "--vec", '[[5,1],[7,1],[9,1]]'],
            ["bidual-norm", "--base", "T", "--seq", "x0"],
        ],
        ids=["james-norm", "norm", "bidual-norm"],
    )
    def test_base_that_compaction_lowers_exits_2(self, args, capsys):
        # the James transform over T used to print 1 here, below the value
        # 3/2 of the selection (1, ..., 10)
        code, out, err = run_cli(args, capsys)
        assert code == 2 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "compaction-monotone" in err

    def test_unknown_space_exits_2(self, capsys):
        code, _, err = run_cli(["norm", "--space", "X", "--vec", "w2"], capsys)
        assert code == 2 and "unknown space" in err


class TestCertifyCommand:
    def test_quick_suite(self, tmp_path, capsys):
        out_path = tmp_path / "report.json"
        code, _, _ = run_cli(
            ["certify", "--suite", "quick", "--seed", "7", "--output", str(out_path)],
            capsys,
        )
        assert code == 0
        report = json.loads(out_path.read_text())
        assert report["pass"] is True

    def test_csv_format(self, tmp_path, capsys):
        out_path = tmp_path / "report.csv"
        code, _, _ = run_cli(
            [
                "certify", "--suite", "quick", "--seed", "7",
                "--output", str(out_path), "--format", "csv",
            ],
            capsys,
        )
        assert code == 0
        assert out_path.read_text().startswith("check,n,ratio")

    def test_byte_identical_reports(self, tmp_path, capsys):
        paths = [tmp_path / "a.json", tmp_path / "b.json"]
        for path in paths:
            run_cli(
                ["certify", "--suite", "quick", "--seed", "3", "--output", str(path)],
                capsys,
            )
        assert paths[0].read_bytes() == paths[1].read_bytes()

    @pytest.mark.parametrize(
        "seed, pinned",
        [
            (7, "d48ff30fdf9c665d1a556b2390f43160a98460ac1b78823773a3113677a1092a"),
            (11, "867396e5fe9fa977706d4afc8a8073a6bfee63ae6474ae89ecc24a802f19c46b"),
        ],
    )
    def test_default_suite_report_bytes(self, seed, pinned, capsys):
        # the hashes that the README and the CI steps pin
        code, out, err = run_cli(["certify", "--suite", "default", "--seed", str(seed)], capsys)
        assert (code, err) == (0, "")
        assert hashlib.sha256(out.encode("utf-8")).hexdigest() == pinned

    def test_unknown_suite_exits_2(self, capsys):
        code, _, _ = run_cli(["certify", "--suite", "nope"], capsys)
        assert code == 2

    def test_q_decay_with_large_q(self, tmp_path, capsys):
        # the q-th roots of q_decay overflowed a float guess at q = 2000
        config = tmp_path / "suite.json"
        config.write_text('{"checks": [{"name": "q_decay", "levels": 1, "q": 2000}]}')
        code, out, err = run_cli(["certify", "--suite", str(config)], capsys)
        assert code == 0 and err == ""
        assert json.loads(out)["certificates"][0]["pass"] is True

    def test_config_file_suite(self, tmp_path, capsys):
        config = tmp_path / "suite.json"
        config.write_text(
            '{"seed": 3, "checks": [{"name": "window_bound", "samples": 3, "ns": [2]}]}'
        )
        code, _, _ = run_cli(["certify", "--suite", str(config)], capsys)
        assert code == 0

    @pytest.mark.parametrize(
        "text, names",
        [
            ("[1, 2]", ["suite config"]),
            ('{"checks": ["window_bound"]}', ["check entry 0"]),
            ('{"checks": [{"name": "window_bound", "samples": "x", "ns": [2]}]}', ["check entry 0", "samples"]),
            ('{"checks": [{"name": "window_bound", "samples": 3, "ns": 2}]}', ["check entry 0", "ns"]),
            ('{"checks": [{"name": "window_bound", "samples": 3, "ns": [2.5]}]}', ["check entry 0", "ns"]),
            ('{"checks": [{"name": "q_decay", "levels": true}]}', ["check entry 0", "levels"]),
            ('{"checks": [{"name": "partition_bound", "max_hull": null}]}', ["check entry 0", "max_hull"]),
            ('{"checks": [{"name": "cor10", "total_support": "8"}]}', ["check entry 0", "total_support"]),
            ('{"checks": [{"name": "window_bound", "samples": 1, "ns": [2], "constant": [1]}]}',
             ["check entry 0", "constant"]),
            ('{"checks": [{"name": "window_bound", "samples": 1, "ns": [2], "constant": "1/0"}]}',
             ["check entry 0", "constant"]),
            ('{"checks": [{"name": "window_bound", "samples": 1, "ns": [2], "constant": 2.5}]}',
             ["check entry 0", "constant"]),
            ('{"checks": [{"name": "q_decay", "q": {}}]}', ["check entry 0", "q"]),
            ('{"checks": [{"name": "cor10", "n": 0}]}', ["check entry 0", "n"]),
            ('{"checks": [{"name": "partition_bound", "max_hull": 1}]}', ["check entry 0", "max_hull"]),
            ('{"checks": [{"name": "q_decay", "levels": 0}]}', ["check entry 0", "levels"]),
            ('{"checks": [{"name": "block_domination", "max_blocks": 0}]}', ["check entry 0", "max_blocks"]),
            ('{"checks": [{"name": "window_bound", "samples": 3, "ns": [2]},'
             ' {"name": "window_bound", "sampels": 5}]}', ["check entry 1", "sampels"]),
            ('{"check": []}', ["check"]),
            ('{"checks": 5}', ["checks"]),
            ('{"checks": null}', ["checks"]),
            ('{"seed": "7", "checks": []}', ["seed"]),
            ('{"seed": 1.9, "checks": []}', ["seed"]),
            ('{"seed": true, "checks": []}', ["seed"]),
            ('{"checks": [{"name": "window_bound", "samples": 1, "ns": [2, 11]}]}', ["check entry 0", "ns"]),
            ('{"checks": [{"name": "window_bound", "samples": 1, "ns": [1]}]}', ["check entry 0", "ns"]),
            ('{"checks": [{"name": "q_decay", "q": "1/2"}]}', ["check entry 0", "q"]),
            ('{"checks": [{"name": "q_decay", "levels": 6}]}', ["check entry 0", "levels"]),
            ('{"checks": [{"name": "shrinking_series", "levels": 11}]}', ["check entry 0", "levels"]),
            ('{"checks": [{"name": "shrinking_series", "levels": 10},'
             ' {"name": "window_bound", "samples": 1, "ns": [11]}]}', ["check entry 1", "ns"]),
        ],
        ids=[
            "list", "check_string", "samples_string", "ns_scalar", "ns_float",
            "levels_bool", "max_hull_null", "total_support_string",
            "constant_list", "constant_zero_denominator", "constant_float", "q_object",
            "cor10_n_0", "max_hull_1", "q_decay_levels_0", "max_blocks_0",
            "misspelled_parameter", "misspelled_checks", "checks_number", "checks_null",
            "seed_string", "seed_float", "seed_bool",
            "ns_above_10", "ns_below_2", "q_below_1", "q_decay_levels_6",
            "shrinking_levels_11", "late_range_error",
        ],
    )
    def test_malformed_config_exits_2(self, text, names, tmp_path, capsys):
        config = tmp_path / "suite.json"
        config.write_text(text)
        code, out, err = run_cli(["certify", "--suite", str(config)], capsys)
        assert code == 2 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        for name in names:
            assert name in err

    @pytest.mark.parametrize(
        "name, key, value",
        [
            ("partition_bound", "max_hull", 25),
            ("block_domination", "total_support", 25),
            ("cor10", "total_support", 33),
            ("q_decay", "levels", 6),
        ],
    )
    def test_size_above_its_cap_exits_2_before_any_unit_runs(self, name, key, value, tmp_path,
                                                             capsys, monkeypatch):
        # one past each cap is refused before any unit runs
        def unreachable(*args, **kwargs):
            raise AssertionError(f"unit ran with {args} {kwargs}")

        for unit in list(certify.CHECK_UNITS):
            monkeypatch.setitem(certify.CHECK_UNITS, unit, unreachable)
        config = tmp_path / "suite.json"
        config.write_text(json.dumps({"checks": [{"name": name, key: value}]}))
        code, out, err = run_cli(["certify", "--suite", str(config)], capsys)
        assert code == 2 and out == ""
        assert err.startswith("error: check entry 0") and err.count("\n") == 1
        # the value is one past the cap, and the message names both
        assert f"{key!r} must be an integer within" in err and f"..{value - 1}, got {value}" in err

    def test_failing_certificate_exits_1(self, tmp_path, capsys):
        config = tmp_path / "suite.json"
        config.write_text(
            '{"checks": [{"name": "window_bound", "samples": 3, "ns": [3],'
            ' "constant": "19/10"}]}'
        )
        out_path = tmp_path / "report.json"
        code, _, _ = run_cli(
            ["certify", "--suite", str(config), "--output", str(out_path)], capsys
        )
        assert code == 1
        report = json.loads(out_path.read_text())
        assert report["failures"] == 1


class TestExistingOutputFile:
    OLD = "an earlier report\n" * 500

    @pytest.mark.parametrize(
        "args",
        [
            ["certify", "--suite", "{config}"],
            ["sweep", "--check", "window", "--ns", "2:11", "--samples", "1"],
        ],
        ids=["rejected_config", "sweep_out_of_range"],
    )
    def test_failed_run_leaves_it_unchanged(self, args, tmp_path, capsys):
        config = tmp_path / "suite.json"
        config.write_text('{"checks": [{"name": "window_bound", "samples": 1, "ns": [11]}]}')
        out_path = tmp_path / "report.json"
        out_path.write_text(self.OLD)
        argv = [a.format(config=config) for a in args] + ["--output", str(out_path)]
        code, out, err = run_cli(argv, capsys)
        assert code == 2 and out == "" and err.startswith("error: ")
        assert out_path.read_text() == self.OLD

    def test_finished_run_replaces_it(self, tmp_path, capsys):
        out_path = tmp_path / "sweep.csv"
        out_path.write_text(self.OLD)
        code, _, _ = run_cli(
            [
                "sweep", "--check", "window", "--ns", "2:3",
                "--samples", "1", "--output", str(out_path),
            ],
            capsys,
        )
        assert code == 0
        lines = out_path.read_text().splitlines()
        assert lines[0] == "check,n,ratio" and len(lines) == 3


class TestUnreadablePath:
    @pytest.mark.parametrize(
        "args",
        [
            ["certify", "--suite", "{dir}"],
            ["norm", "--vec", "{dir}"],
            ["certify", "--suite", "{config}", "--output", "{dir}"],
        ],
        ids=["suite", "vec", "output"],
    )
    def test_directory_exits_2(self, args, tmp_path, capsys, monkeypatch):
        calls = []

        def recorded(unit):
            def run(*args, **kwargs):
                calls.append(args)
                return unit(*args, **kwargs)

            return run

        for name, unit in list(certify.CHECK_UNITS.items()):
            monkeypatch.setitem(certify.CHECK_UNITS, name, recorded(unit))
        config = tmp_path / "suite.json"
        config.write_text('{"checks": [{"name": "window_bound", "samples": 1, "ns": [2]}]}')
        paths = {"dir": str(tmp_path), "config": str(config)}
        code, out, err = run_cli([a.format(**paths) for a in args], capsys)
        assert code == 2 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        # the path is found unusable before any check unit runs
        assert calls == []


class TestThreadsVariable:
    @pytest.mark.parametrize("raw", ["abc", "0", "-2", "1.5", ""])
    def test_invalid_value_exits_2(self, raw, monkeypatch, capsys):
        monkeypatch.setenv("TSIRELSON_LAB_THREADS", raw)
        code, out, err = run_cli(["certify", "--suite", "quick"], capsys)
        assert code == 2 and out == ""
        assert err.startswith("error: TSIRELSON_LAB_THREADS")

    def test_unset_means_serial(self, monkeypatch):
        monkeypatch.delenv("TSIRELSON_LAB_THREADS", raising=False)
        assert _workers_from_env() == 1

    def test_capped_at_cpu_count(self, monkeypatch):
        monkeypatch.setenv("TSIRELSON_LAB_THREADS", "64")
        monkeypatch.setattr("os.cpu_count", lambda: 3)
        assert _workers_from_env() == 3
        monkeypatch.setattr("os.cpu_count", lambda: None)
        assert _workers_from_env() == 1
        monkeypatch.setenv("TSIRELSON_LAB_THREADS", "2")
        monkeypatch.setattr("os.cpu_count", lambda: 4)
        assert _workers_from_env() == 2


class TestSweepCommand:
    def test_window_sweep(self, tmp_path, capsys):
        out_path = tmp_path / "sweep.csv"
        code, _, _ = run_cli(
            [
                "sweep", "--check", "window", "--ns", "2:3",
                "--samples", "3", "--output", str(out_path),
            ],
            capsys,
        )
        assert code == 0
        lines = out_path.read_text().strip().splitlines()
        assert lines[0] == "check,n,ratio"
        assert len(lines) == 3

    @pytest.mark.parametrize(
        "args, message",
        [
            (["--samples", "-3"], "'samples' must be an integer >= 1"),
            (["--samples", "0"], "'samples' must be an integer >= 1"),
            (["--ns", "6:2"], "empty range"),
            (["--ns", "1:3"], "'ns' must be a list of integers within 2..10"),
        ],
        ids=["negative_samples", "zero_samples", "empty_ns", "ns_below_range"],
    )
    def test_parameters_certify_rejects_exit_2(self, args, message, capsys):
        # --samples -3 used to run no sample and --ns 6:2 to print a bare
        # header, both with exit 0
        code, out, err = run_cli(["sweep", "--check", "window", *args], capsys)
        assert code == 2 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert message in err

    @pytest.mark.parametrize(
        "args",
        [[], ["--samples", "0"], ["--ns", "2:11"]],
        ids=["defaults", "zero_samples", "ns_out_of_range"],
    )
    def test_qdecay_sweep_ignores_the_window_options(self, args, capsys):
        # --samples 0 and --ns 2:11 used to be checked under the window_bound
        # rules and exit 2
        code, out, err = run_cli(["sweep", "--check", "qdecay", *args], capsys)
        assert code == 0 and err == ""
        lines = out.splitlines()
        assert lines[0] == "check,n,ratio"
        assert [line.split(",")[:2] for line in lines[1:]] == [["q_decay", str(n)] for n in (2, 4, 8, 16)]


class TestEntryPoint:
    def test_module_invocation(self):
        result = subprocess.run(
            [sys.executable, "-m", "tsirelson_lab.cli", "norm", "--space", "T", "--vec", "w2"],
            capture_output=True,
            text=True,
        )
        assert result.returncode == 0
        assert result.stdout.strip() == "1"
