import hashlib
import importlib
import json
import math
import shlex
from pathlib import Path

import numpy as np
import pytest

from selfsim import cli, pde
from selfsim.classify import BisectionStallError, BracketFailureError, NoPlateauError
from selfsim.pde import InsufficientDecayError, MaxStepsExceededError, SingularSweepError, TimestepUnderflowError
from selfsim.pohozaev import RootBracketFailureError
from selfsim.profile_ode import NoZeroWithinHorizonError, StepSizeUnderflowError
from selfsim.cli import PDE_RUN_DEFAULTS, build_parser, main
from selfsim.reporting import format_value, read_summary, validate_config, write_csv, write_summary


def run_cli(*argv):
    return main(list(argv))


def read_csv(path):
    with open(path) as fh:
        header = fh.readline().strip().split(",")
        rows = [line.strip().split(",") for line in fh if line.strip()]
    return header, rows


class TestReporting:
    def test_float_roundtrip_exact(self):
        rng = np.random.default_rng(7)
        for x in rng.uniform(-1e8, 1e8, 50):
            assert float(format_value(float(x))) == x
        for x in (1e-300, 5e-324, 1.0 / 3.0, np.pi):
            assert float(format_value(float(x))) == float(x)

    @pytest.mark.parametrize(
        "x, text",
        [
            (math.nan, "nan"), (math.inf, "inf"), (-math.inf, "-inf"), (-0.0, "-0"), (0.0, "0"),
            (5e-324, "4.9406564584124654e-324"),  # the smallest subnormal
            (2.225073858507201e-308, "2.2250738585072009e-308"),  # the largest subnormal
            (2.2250738585072014e-308, "2.2250738585072014e-308"),  # the smallest normal
            (1.0 / 3.0, "0.33333333333333331"), (1.0, "1"), (1e17, "1e+17"),
            (1e300, "1.0000000000000001e+300"),
            (np.float64(0.1), "0.10000000000000001"), (np.float64(math.nan), "nan"),
            (np.float64(-0.0), "-0"),
            (True, "true"), (False, "false"),  # bool before int and float
            (7, "7"), (-3, "-3"), (np.int64(42), "42"), (np.int64(-1), "-1"),
            ("C", "C"), ("", ""),
        ],
    )
    def test_format_value_pinned(self, x, text):
        assert format_value(x) == text

    def test_format_value_matches_format_spec(self):
        # the 17-digit %-format carries the bits of f"{x:.17g}" for every float
        bits = np.random.default_rng(11).integers(0, 2**64, size=20_000, dtype=np.uint64)
        for x in bits.view(np.float64):
            assert format_value(x) == f"{x:.17g}" == format_value(float(x))

    def test_csv_bytes_pinned(self, tmp_path):
        path = tmp_path / "t.csv"
        write_csv(path, ["a", "verdict", "ok", "n"], [(0.1, "A", True, 3), (np.float64(-0.0), "C", False, np.int64(7))])
        assert path.read_bytes() == b"a,verdict,ok,n\n0.10000000000000001,A,true,3\n-0,C,false,7\n"
        write_csv(path, ["x"], [])
        assert path.read_bytes() == b"x\n"

    @pytest.mark.parametrize(
        "rows",
        [
            # all floats: the file goes through one "%.17g" template
            [(math.nan, math.inf), (-math.inf, -0.0), (5e-324, 2.225073858507201e-308), (np.float64(0.1), 1.0 / 3.0)],
            list(zip(*np.random.default_rng(3).integers(0, 2**64, size=(2, 500), dtype=np.uint64).view(np.float64))),
            # anything else goes cell by cell
            [(0.1, -0.0), (True, 2.0)],
            [(1.0, 7), (np.int64(-1), math.nan)],
            [(1.0, "C"), ("", 5e-324)],
            [(np.float32(0.1), 1.0)],
            [(1.0, 2.0), (3.0,)],
        ],
    )
    def test_csv_bytes_are_the_per_cell_rule(self, tmp_path, rows):
        path = tmp_path / "t.csv"
        write_csv(path, ["x", "y"], rows)
        want = "x,y\n" + "".join(",".join(format_value(v) for v in row) + "\n" for row in rows)
        assert path.read_bytes() == want.encode()

    def test_csv_roundtrip(self, tmp_path):
        path = tmp_path / "t.csv"
        rows = [(1.0, 2.0), (np.pi, 1e-17)]
        write_csv(path, ["x", "y"], rows)
        header, parsed = read_csv(path)
        assert header == ["x", "y"]
        assert len(parsed) == 2
        assert [float(v) for v in parsed[1]] == [np.pi, 1e-17]

    def test_summary_roundtrip(self, tmp_path):
        path = tmp_path / "s.json"
        summary = {"schema": 1, "inputs": {"N": 2, "p": 1.5}, "results": {"x": 0.1}}
        write_summary(path, summary)
        assert read_summary(path) == summary

    def test_validate_config_rejects_unknown_keys(self):
        with pytest.raises(ValueError, match="unknown keys"):
            validate_config({"N": 2, "bogus": 1}, {"N", "p"}, "test")
        with pytest.raises(ValueError, match="schema"):
            validate_config({"schema": 99, "N": 2}, {"N"}, "test")
        assert validate_config({"schema": 1, "N": 2}, {"N"}, "test")["N"] == 2


class TestCommands:
    def test_params_stdout(self, capsys):
        assert run_cli("params", "--N", "2", "--p", "1.5") == 0
        out = json.loads(capsys.readouterr().out)
        assert out["results"]["e_time"] == 2.0
        assert out["schema"] == 1

    def test_params_out_of_range_is_usage_error(self, capsys):
        assert run_cli("params", "--N", "2", "--p", "1.2") == 2

    def test_missing_argument_is_usage_error(self, capsys):
        assert run_cli("profile", "--N", "2") == 2

    def test_profile_csv_contract(self, tmp_path, capsys):
        out = tmp_path / "traj.csv"
        code = run_cli("profile", "--N", "2", "--p", "1.5", "--a", "1.0",
                       "--rmax", "20", "--out", str(out))
        assert code == 0
        header, rows = read_csv(out)
        assert header == ["r", "f", "g", "fprime", "E", "w", "h", "J"]
        assert len(rows) > 300
        assert float(rows[0][1]) == pytest.approx(1.0, abs=1e-12)

    def test_profile_deterministic_bytes(self, tmp_path, capsys):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for path in (a, b):
            assert run_cli("profile", "--N", "2", "--p", "1.5", "--a", "0.5",
                           "--rmax", "10", "--out", str(path)) == 0
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize(
        "argv, status, sha256",
        [
            (["--N", "2", "--p", "1.5", "--a", "0.5", "--rmax", "10"], "horizon",
             "b23d5bc590f2eece6b4f73e9501909b44f87afca86ba3daab46f8f381e0869e3"),
            (["--N", "3", "--p", "1.7", "--a", "20"], "FZero",
             "5237bdd9275b45f96c53dc70d81f92921388a1afbe630bc1141b0cb5c174a002"),
        ],
    )
    def test_profile_csv_bytes_pinned(self, tmp_path, capsys, argv, status, sha256):
        # every column of a kept run, to the bit: the sample grid, the dense
        # output on it, f', E, w, h and J
        out = tmp_path / "traj.csv"
        assert run_cli("profile", *argv, "--out", str(out)) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == sha256
        assert f"status {status}," in capsys.readouterr().out

    def test_unwritable_path_exits_3(self, tmp_path, capsys):
        out = tmp_path / "no" / "such" / "dir" / "x.csv"
        assert run_cli("profile", "--N", "2", "--p", "1.5", "--a", "1.0",
                       "--rmax", "10", "--out", str(out)) == 3

    def test_classify_json(self, tmp_path, capsys):
        out = tmp_path / "c.json"
        assert run_cli("classify", "--N", "2", "--p", "1.5", "--a", "100",
                       "--out", str(out)) == 0
        data = read_summary(out)
        assert data["results"]["verdict"] == "A"
        assert data["results"]["R"] > 0
        # the probe stops at the zero it proves, and says how far and how long it ran
        assert data["results"]["r_end"] == data["results"]["R"]
        assert data["results"]["steps"] > 0

    def test_sweep_rows_in_height_order(self, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        code = run_cli("sweep", "--N", "2", "--p", "1.5", "--a-min", "0.5",
                       "--a-max", "64", "--num", "6", "--log", "--rmax", "30",
                       "--out", str(out))
        assert code == 0
        header, rows = read_csv(out)
        assert header[:2] == ["a", "verdict"]
        a_col = [float(r[0]) for r in rows]
        assert a_col == sorted(a_col)
        assert len(a_col) == 6
        verdicts = [r[1] for r in rows]
        assert verdicts[0] == "C" and verdicts[-1] == "A"

    def test_sweep_csv_bytes_pinned(self, tmp_path, capsys):
        # the README sweep, every column to the bit: C below a_*, A above
        out = tmp_path / "sweep.csv"
        assert run_cli("sweep", "--N", "2", "--p", "1.5", "--a-min", "0.5", "--a-max", "64", "--num", "25",
                       "--log", "--out", str(out)) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == (
            "f42ecd21fdcd1172c4d2685ad58a3faa091426b874a37cf0a5abc3e4f9c85b2a")
        assert capsys.readouterr().out == f"wrote {out}: 25 classifications\n"

    @pytest.mark.parametrize("flag, name", [("--rtol", "rel_tol"), ("--rmax", "r_max")], ids=["--rtol", "--rmax"])
    def test_bad_sweep_setting_is_refused_before_any_classification(self, flag, name, tmp_path, capsys, monkeypatch):
        calls = []
        monkeypatch.setattr(cli, "classify", lambda *args: calls.append(args))
        assert run_cli("sweep", "--N", "2", "--p", "1.5", "--a-min", "0.5", "--a-max", "64", "--num", "3",
                       flag, "nan", "--out", str(tmp_path / "s.csv")) == 2
        err = capsys.readouterr().err
        assert f"{name} must be a finite number > 0" in err and "Traceback" not in err
        assert calls == []
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize(
        "argv, name",
        [
            (["classify", "--a", "nan"], "a"), (["classify", "--a", "inf"], "a"),
            (["profile", "--a", "nan", "--out", "p.csv"], "a"), (["pohozaev", "--a", "nan", "--out", "g.csv"], "a"),
            (["sweep", "--a-min", "nan", "--a-max", "2", "--num", "3", "--out", "s.csv"], "--a-min"),
            (["sweep", "--a-min", "1", "--a-max", "inf", "--num", "3", "--out", "s.csv"], "--a-max"),
        ],
        ids=["classify-nan", "classify-inf", "profile-nan", "pohozaev-nan", "sweep-a_min-nan", "sweep-a_max-inf"],
    )
    def test_non_finite_height_is_usage_error(self, argv, name, tmp_path, capsys, monkeypatch):
        # a NaN passes an a <= 0 test and shoots on to "Unresolved" or a step-size underflow
        monkeypatch.chdir(tmp_path)
        assert run_cli(argv[0], "--N", "2", "--p", "1.5", *argv[1:]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {name} must be a finite number > 0") and "Traceback" not in err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize(
        "argv",
        [
            ["classify", "--N", "2", "--p", "1.5", "--a", "1e160"],
            ["classify", "--N", "2", "--p", "1.5", "--a", "1e200"],
            ["classify", "--N", "2", "--p", "1.5", "--a", "1e308"],
            ["classify", "--N", "1", "--p", "1.01", "--a", "1e4"],
            ["profile", "--N", "2", "--p", "1.5", "--a", "1e200", "--out", "p.csv"],
            ["sweep", "--N", "2", "--p", "1.5", "--a-min", "1", "--a-max", "1e200", "--num", "2", "--out", "s.csv"],
            ["pohozaev", "--N", "2", "--p", "1.5", "--a", "1e200", "--out", "g.csv"],
        ],
        ids=["classify-1e160", "classify-1e200", "classify-1e308", "classify-p1.01", "profile", "sweep", "pohozaev"],
    )
    def test_huge_height_classifies_or_is_refused(self, argv, tmp_path, capsys, monkeypatch):
        # (a/N)^(1/(p-1)) overflows far below these heights; the series start
        # must classify them or refuse them as too large, never crash
        monkeypatch.chdir(tmp_path)
        code = run_cli(*argv)
        out, err = capsys.readouterr()
        assert code in (0, 2) and "Traceback" not in err
        if code == 2:
            assert err.startswith("error: a = ") and "too large" in err
            assert list(tmp_path.iterdir()) == []
        else:
            assert '"verdict": "A"' in out

    def test_sweep_refuses_a_huge_a_max_before_any_classification(self, tmp_path, capsys, monkeypatch):
        # both ends of the heights are checked against the series start first, as non-finite ones are
        def unreachable(*args):
            raise AssertionError("a height was classified before --a-max was checked")

        monkeypatch.chdir(tmp_path)
        monkeypatch.setattr(cli, "classify", unreachable)
        assert run_cli("sweep", "--N", "2", "--p", "1.5", "--a-min", "1", "--a-max", "1e200", "--num", "2",
                       "--out", "x.csv") == 2
        err = capsys.readouterr().err
        assert err.startswith("error: a = 1e+200 is too large") and "Traceback" not in err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("value", ["nan", "inf", "0", "-1"])
    @pytest.mark.parametrize("flag", ["--r-min", "--r-max"])
    def test_pohozaev_radius_range_is_checked(self, flag, value, tmp_path, capsys, monkeypatch):
        # unchecked, a NaN bound writes a table of NaNs and an infinite one numpy warnings
        monkeypatch.chdir(tmp_path)
        calls = []
        monkeypatch.setattr(cli, "integrate", lambda *args: calls.append(args))
        assert run_cli("pohozaev", "--N", "2", "--p", "1.5", "--a", "1", flag, value, "--out", "g.csv") == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {flag} must be a finite number > 0") and "Traceback" not in err
        assert calls == []
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("num", ["0", "-1", "-3"])
    @pytest.mark.parametrize("command", ["sweep", "pohozaev"])
    def test_num_below_one_is_usage_error(self, command, num, tmp_path, capsys, monkeypatch):
        # numpy refused a negative count without naming --num, and a count of 0 wrote an empty table
        monkeypatch.chdir(tmp_path)
        calls = []
        monkeypatch.setattr(cli, "classify", lambda *args: calls.append(args))
        monkeypatch.setattr(cli, "integrate", lambda *args: calls.append(args))
        heights = ["--a-min", "0.5", "--a-max", "64"] if command == "sweep" else ["--a", "1"]
        assert run_cli(command, "--N", "2", "--p", "1.5", *heights, "--num", num, "--out", "t.csv") == 2
        err = capsys.readouterr().err
        assert err == f"error: --num must be a finite number > 0, got {num}\n"
        assert calls == []
        assert list(tmp_path.iterdir()) == []

    def test_find_astar_contract(self, tmp_path, capsys):
        out = tmp_path / "astar.json"
        code = run_cli("find-astar", "--N", "2", "--p", "1.5", "--tol", "1e-6",
                       "--out", str(out))
        assert code == 0
        data = read_summary(out)
        for key in ("a_lo", "a_hi", "a_star", "l_star", "c_star"):
            assert key in data["results"]
        assert data["results"]["a_hi"] - data["results"]["a_lo"] <= 1e-6
        # the search reports its shooting runs and their accepted steps
        assert 0 < data["results"]["iterations"] < data["results"]["probe_steps"]

    def test_pohozaev_tables(self, tmp_path, capsys):
        out = tmp_path / "g.csv"
        code = run_cli("pohozaev", "--N", "2", "--p", "1.5", "--a", "1.0",
                       "--out", str(out), "--json", str(tmp_path / "g.json"))
        assert code == 0
        header, rows = read_csv(out)
        assert header == ["r", "alpha", "beta", "gamma", "delta", "G_cubic", "G_direct"]
        data = read_summary(tmp_path / "g.json")
        assert data["results"]["M3"] == 7.0
        assert data["results"]["r_G"] == pytest.approx(1.6774334840497553, rel=1e-10)
        j_header, j_rows = read_csv(tmp_path / "g_J.csv")
        assert j_header == ["r", "J", "G", "gsq"]

    def test_pde_run_small(self, tmp_path, capsys):
        prefix = str(tmp_path / "run")
        code = run_cli("pde-run", "--N", "2", "--p", "1.5", "--init", "exp_tail",
                       "--M", "150", "--r-inf", "8", "--out", prefix)
        assert code == 0
        header, rows = read_csv(prefix + "_records.csv")
        assert header == ["t", "sup", "I", "J", "D", "E"]
        fheader, frows = read_csv(prefix + "_frame000.csv")
        assert fheader == ["r", "u"]
        assert len(frows) == 150
        summary = read_summary(prefix + "_summary.json")
        assert summary["results"]["T_e"] > 0
        assert summary["results"]["clamp_events"] == 0
        # the step controller's counters: deterministic, no wall clock
        results = summary["results"]
        assert results["rejected_steps"] >= 0
        assert 0.0 < results["dt_min"] <= results["dt_max"]
        assert run_cli("pde-run", "--N", "2", "--p", "1.5", "--init", "exp_tail",
                       "--M", "150", "--r-inf", "8", "--out", prefix + "b") == 0
        assert read_summary(prefix + "b_summary.json") == summary

    @pytest.mark.parametrize(
        "init, n_frames, records, summary, frames",
        [
            ("exp_tail", 40,
             "b1667257b067074a9d69cf1b61d03afadfc3e7035cf3a8c9999f5d55cdce9712",
             "fa2b6be978e852ccca5ffb69bf3ce1a32ed5ec83a202eb883f527a399b767ff1",
             "888c3edf5f8eb1ceeefa5b0ec71eafd8816d7da0017b698aa13f051a4db01361"),
            ("separable", 41,
             "26c1e3b6937aaa045c6b2dad06b5aab3e5a95cec583a47439eac9993ae85ed82",
             "6c0b10a7d60fc8f2f201886df1ffb07535a78084bff1a7ac3006d6de11b50cdb",
             "18c1c1ed9e3872bb6b74d2c4afa486bff58a9578e950a62e31c79e7f9ee13d30"),
        ],
        ids=["exp_tail", "separable"],
    )
    def test_pde_run_bytes_pinned(self, tmp_path, capsys, init, n_frames, records, summary, frames):
        # every data file of a run, to the bit: the records, each snapshot
        # (frames: the sha256 of the "name digest" lines of all frame files)
        # and the summary with its step counts
        assert run_cli("pde-run", "--N", "2", "--p", "1.5", "--M", "150", "--r-inf", "8",
                       "--init", init, "--out", str(tmp_path / "run")) == 0
        digests = {path.name: hashlib.sha256(path.read_bytes()).hexdigest() for path in tmp_path.iterdir()}
        assert digests.pop("run_records.csv") == records
        assert digests.pop("run_summary.json") == summary
        assert sorted(digests) == [f"run_frame{k:03d}.csv" for k in range(n_frames)]
        listing = "".join(f"{name} {digest}\n" for name, digest in sorted(digests.items()))
        assert hashlib.sha256(listing.encode()).hexdigest() == frames

    def test_pde_run_rejects_too_few_cells(self, tmp_path, capsys):
        # below 8 cells the extrapolated step can break radial monotonicity
        assert run_cli("pde-run", "--N", "2", "--p", "1.5", "--M", "4", "--r-inf", "8",
                       "--out", str(tmp_path / "run")) == 2
        assert "M >= 8" in capsys.readouterr().err

    def test_pde_run_rejects_data_too_close_to_extinction(self, tmp_path, capsys):
        # at N = 1, p = 1.01 the first cell holds ~2.2 times the extinction
        # threshold: less than the decade the T_e fit reads
        prefix = tmp_path / "run"
        assert run_cli("pde-run", "--N", "1", "--p", "1.01", "--M", "18", "--r-inf", "8",
                       "--out", str(prefix)) == 2
        assert "final decade" in capsys.readouterr().err
        assert not (tmp_path / "run_summary.json").exists()

    def test_pde_run_from_config_file(self, tmp_path, capsys):
        cfg_path = tmp_path / "run.json"
        cfg_path.write_text(json.dumps({
            "schema": 1, "N": 2, "p": 1.5, "init": "exp_tail",
            "M": 120, "r_inf": 8.0, "kappa0": 1.0,
        }))
        prefix = str(tmp_path / "cfg_run")
        assert run_cli("pde-run", "--config", str(cfg_path), "--out", prefix) == 0
        summary = read_summary(prefix + "_summary.json")
        assert summary["inputs"]["M"] == 120
        # explicit flags override the file
        assert run_cli("pde-run", "--config", str(cfg_path), "--M", "90",
                       "--out", prefix + "b") == 0
        assert read_summary(prefix + "b_summary.json")["inputs"]["M"] == 90
        # unknown keys are rejected as a usage-level error
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"N": 2, "p": 1.5, "bogus": 3}))
        assert run_cli("pde-run", "--config", str(bad), "--out", prefix + "c") != 0

    def test_pde_compare_small(self, tmp_path, capsys):
        prefix = str(tmp_path / "cmp")
        code = run_cli("pde-compare", "--N", "2", "--p", "1.5", "--init", "exp_tail",
                       "--M", "150", "--r-inf", "8", "--tol", "1e-6", "--out", prefix)
        assert code == 0
        header, rows = read_csv(prefix + "_compare.csv")
        assert header == ["s", "t", "sup_error"]
        summary = read_summary(prefix + "_summary.json")
        assert summary["results"]["a_star"] == pytest.approx(6.0353203, rel=1e-4)
        assert summary["results"]["T_e"] > 0
        # the run's counters, as pde-run reports them
        assert summary["results"]["rejected_steps"] >= 0
        assert 0.0 < summary["results"]["dt_min"] <= summary["results"]["dt_max"]
        assert summary["inputs"] == {
            "N": 2, "p": 1.5, "M": 150, "R_inf": 8.0, "init": "exp_tail", "kappa0": 1.0, "tol": 1e-6,
        }
        # a run that differs only in --tol says so in its inputs
        code = run_cli("pde-compare", "--N", "2", "--p", "1.5", "--init", "exp_tail",
                       "--M", "150", "--r-inf", "8", "--tol", "1e-7", "--out", prefix + "b")
        assert code == 0
        assert read_summary(prefix + "b_summary.json")["inputs"]["tol"] == 1e-7

    def test_pohozaev_J_path_under_csv_named_directory(self, tmp_path, capsys):
        outdir = tmp_path / "tables.csv.d"
        outdir.mkdir()
        code = run_cli("pohozaev", "--N", "2", "--p", "1.5", "--a", "1.0",
                       "--out", str(outdir / "g.csv"))
        assert code == 0
        j_header, _ = read_csv(outdir / "g_J.csv")
        assert j_header == ["r", "J", "G", "gsq"]

    def test_pde_run_summary_records_the_run_amplitude(self, tmp_path, capsys):
        prefix = str(tmp_path / "sep")
        code = run_cli("pde-run", "--N", "2", "--p", "1.5", "--init", "separable",
                       "--M", "150", "--r-inf", "8", "--out", prefix)
        assert code == 0
        inputs = read_summary(prefix + "_summary.json")["inputs"]
        # separable data peaks at ((2-p) T0)^(1/(2-p)) a_* = 0.25 a_* at (2, 1.5)
        assert inputs["kappa0"] == pytest.approx(0.25 * 6.0353203, rel=1e-6)
        assert inputs["T0"] == 1.0
        prefix = str(tmp_path / "exp")
        code = run_cli("pde-run", "--N", "2", "--p", "1.5", "--init", "exp_tail",
                       "--M", "150", "--r-inf", "8", "--kappa0", "1.5", "--out", prefix)
        assert code == 0
        inputs = read_summary(prefix + "_summary.json")["inputs"]
        assert inputs == {"N": 2, "p": 1.5, "M": 150, "R_inf": 8.0, "init": "exp_tail", "kappa0": 1.5}

    def test_pde_compare_meta_sidecar(self, tmp_path, capsys):
        prefix = str(tmp_path / "cmp")
        code = run_cli("pde-compare", "--N", "2", "--p", "1.5", "--M", "150", "--r-inf", "8",
                       "--tol", "1e-6", "--out", prefix, "--meta")
        assert code == 0
        meta = read_summary(prefix + "_summary.json.meta.json")
        assert meta["command"] == "pde-compare"
        assert "written_at" in meta
        assert "written_at" not in read_summary(prefix + "_summary.json")

    def test_pde_run_and_compare_resolve_the_same_defaults(self, monkeypatch):
        class Resolved(Exception):
            pass

        def stop(settings, tol_a=None):
            raise Resolved(settings)

        # both commands hand `_run_pde` what they resolved: stop them there
        monkeypatch.setattr(cli, "_run_pde", stop)
        # each initial data kind with the flags it reads: kappa0 is refused with separable, T0 with exp_tail
        exp_tail = ["--init", "exp_tail", "--M", "150", "--r-inf", "8", "--kappa0", "2"]
        separable = ["--init", "separable", "--M", "120", "--r-inf", "9", "--T0", "0.5"]
        cases = (
            ([], PDE_RUN_DEFAULTS),
            (exp_tail, {**PDE_RUN_DEFAULTS, "init": "exp_tail", "M": 150, "r_inf": 8.0, "kappa0": 2.0}),
            (separable, {**PDE_RUN_DEFAULTS, "init": "separable", "M": 120, "r_inf": 9.0, "T0": 0.5}),
        )
        for given, expected in cases:
            resolved = []
            for command in ("pde-run", "pde-compare"):
                args = build_parser().parse_args([command, "--N", "2", "--p", "1.5", *given, "--out", "x"])
                with pytest.raises(Resolved) as stopped:
                    args.fn(args)
                resolved.append(stopped.value.args[0])
            assert resolved[0] == resolved[1] == {"N": 2, "p": 1.5, **expected}

    @pytest.mark.parametrize(
        "config, flags, name",
        [
            ({"M": 120.5}, [], "M"),
            ({"M": "abc"}, [], "M"),
            ({"kappa0": "x"}, [], "kappa0"),
            ({"p": "1.6"}, [], "p must be"),  # a string is not a number
            ({"eps_reg": 1e-12}, [], "eps_reg"),  # EPS_REG is a module constant, not a setting
            (None, ["--p", "1.7", "--init", "separable", "--T0", "-1"], "T0"),  # complex amplitude
            (None, ["--p", "1.5", "--init", "separable", "--T0", "-1"], "T0"),  # the amplitude of T0 = +1
            (None, ["--p", "1.5", "--kappa0", "inf"], "kappa0"),
            (None, ["--p", "1.5", "--r-inf", "nan"], "R_inf"),
            ({"init": "custom"}, [], "init"),  # the --init choices hold for a config file too
            # a setting the initial data ignores, from a flag or a config key
            (None, ["--p", "1.5", "--init", "separable", "--kappa0", "5"], "kappa0"),
            (None, ["--p", "1.5", "--T0", "7"], "T0"),
            ({"init": "separable", "kappa0": 5.0}, [], "kappa0"),
            ({"T0": 7.0}, [], "T0"),
            ({"T0": 7.0}, ["--init", "exp_tail"], "T0"),
        ],
    )
    def test_pde_run_bad_setting_is_usage_error(self, tmp_path, capsys, config, flags, name):
        argv = ["pde-run", "--N", "2", *flags, "--out", str(tmp_path / "run")]
        if config is not None:
            path = tmp_path / "run.json"
            path.write_text(json.dumps({"N": 2, "p": 1.5, **config}))
            argv += ["--config", str(path)]
        assert run_cli(*argv) == 2
        err = capsys.readouterr().err
        assert name in err and "Traceback" not in err
        assert not (tmp_path / "run_summary.json").exists()

    @pytest.mark.parametrize(
        "argv, name",
        [
            (["profile", "--a", "1", "--rmax", "inf"], "r_max"),
            (["classify", "--a", "1", "--rtol", "nan"], "rel_tol"),
            (["classify", "--a", "1", "--rmax", "nan"], "r_max"),
            (["find-astar", "--tol", "0"], "tol_a"),
            (["find-astar", "--tol", "-1"], "tol_a"),
            (["find-astar", "--tol", "nan"], "tol_a"),
            (["classify", "--a", "1", "--rtol", "1e-15"], "rel_tol"),  # below the 100 eps floor
            (["classify", "--a", "1", "--rtol", "2.2e-14"], "rel_tol"),
            (["classify", "--a", "1", "--rmax", "1e-9"], "r_max"),  # below the series start
        ],
    )
    def test_bad_integrator_or_bisection_setting_is_usage_error(self, tmp_path, capsys, argv, name):
        command, *rest = argv
        assert run_cli(command, "--N", "2", "--p", "1.5", *rest, "--out", str(tmp_path / "x")) == 2
        assert name in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize(
        "argv, name",
        [
            (["pde-compare", "--M", "4"], "M"),
            (["pde-compare", "--kappa0", "0"], "kappa0"),
            (["find-astar", "--tol", "0"], "tol_a"),
            (["pde-compare", "--init", "separable", "--kappa0", "5"], "kappa0"),
            (["pde-compare", "--T0", "7"], "T0"),
        ],
    )
    def test_bad_setting_exits_before_the_bracket_search(self, tmp_path, capsys, monkeypatch, argv, name):
        def unreachable(*args, **kwargs):
            raise AssertionError("bracket_search ran before the settings were checked")

        monkeypatch.setattr(importlib.import_module("selfsim.classify"), "bracket_search", unreachable)
        command, *rest = argv
        assert run_cli(command, "--N", "2", "--p", "1.5", *rest, "--out", str(tmp_path / "x")) == 2
        err = capsys.readouterr().err
        assert name in err and "Traceback" not in err
        assert list(tmp_path.iterdir()) == []

    def test_no_plateau_is_numerical_failure(self, tmp_path, capsys, monkeypatch):
        # the package re-exports the function classify under the module's name
        classify_module = importlib.import_module("selfsim.classify")
        no_plateau = classify_module.PlateauEstimate(False, np.nan, (np.nan, np.nan))
        monkeypatch.setattr(classify_module, "estimate_l", lambda params, traj: no_plateau)
        assert run_cli("find-astar", "--N", "2", "--p", "1.5", "--tol", "1e-2",
                       "--out", str(tmp_path / "a.json")) == 3
        assert "no rho*g plateau" in capsys.readouterr().err
        assert not (tmp_path / "a.json").exists()

    def test_find_astar_without_plateau_exits_3(self, tmp_path, capsys):
        # the search converges at (1, 1.9), but rho*g holds no flat window to read l_* from
        assert run_cli("find-astar", "--N", "1", "--p", "1.9", "--out", str(tmp_path / "a.json")) == 3
        err = capsys.readouterr().err
        assert "no rho*g plateau" in err and "rerun to 100" in err
        assert list(tmp_path.iterdir()) == []

    def test_pde_run_timestep_underflow_is_numerical_failure(self, tmp_path, capsys, monkeypatch):
        def never_accepted(geom, u, dt):
            # an error estimate that no dt satisfies drives dt below the run's guard
            return u.copy(), 0, np.full_like(u, np.inf)

        monkeypatch.setattr(importlib.import_module("selfsim.pde"), "_step_imex", never_accepted)
        assert run_cli("pde-run", "--N", "2", "--p", "1.5", "--M", "32", "--r-inf", "8",
                       "--out", str(tmp_path / "run")) == 3
        assert "dt underflow" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_pde_run_subnormal_threshold_exits_2_before_any_sweep(self, tmp_path, capsys, monkeypatch):
        def unreachable(*args, **kwargs):
            raise AssertionError("a sweep ran before the settings were checked")

        monkeypatch.setattr(pde, "_step_imex", unreachable)
        assert run_cli("pde-run", "--N", "2", "--p", "1.5", "--kappa0", "1e-300", "--M", "16",
                       "--out", str(tmp_path / "run")) == 2
        err = capsys.readouterr().err
        assert "kappa0" in err and "Traceback" not in err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize(
        "argv, words",
        [
            (["pde-run", "--N", "2", "--init", "separable", "--M", "8"], ["M = 8", "R_inf = 15.0", "inner neighbour"]),
            (["pde-run", "--N", "2", "--M", "8"], ["M = 8", "R_inf = 15.0", "M > R_inf / 1.33333 = 11.25"]),
            (["pde-compare", "--N", "2", "--M", "11"], ["M = 11", "R_inf = 15.0", "inner neighbour"]),
            (["pde-compare", "--N", "1", "--M", "400", "--r-inf", "480"], ["M = 400", "R_inf = 480.0", "shorter R_inf"]),
        ],
        ids=["run-separable", "run-exp_tail", "compare", "compare-scale"],
    )
    def test_unresolved_grid_exits_2_before_the_ground_state_search(self, argv, words, tmp_path, capsys, monkeypatch):
        # a grid whose cells do not all couple to their inner neighbours, or whose sweep scale
        # passes its bound, is refused before the search and before any sweep
        def unreachable(*args, **kwargs):
            raise AssertionError("the ground state was sought before the grid was checked")

        monkeypatch.setattr(cli, "find_ground_state", unreachable)
        monkeypatch.setattr(pde, "_step_imex", unreachable)
        assert run_cli(*argv, "--p", "1.5", "--out", str(tmp_path / "run")) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: a grid of ") and all(word in err for word in words), err
        assert "Traceback" not in err
        assert list(tmp_path.iterdir()) == []

    def test_pde_run_singular_sweep_is_numerical_failure(self, tmp_path, capsys, monkeypatch):
        # LAPACK reports a singular system by info > 0: ptsv hands the rows to gtsv, whose failure
        # ends the run with exit 3, not with the exit 2 of a bad setting
        def singular(*arrays, **overwrite):
            return (*arrays, 1)

        monkeypatch.setattr(pde, "_lapack", lambda name: singular)
        assert run_cli("pde-run", "--N", "2", "--p", "1.5", "--M", "32", "--r-inf", "8",
                       "--out", str(tmp_path / "run")) == 3
        err = capsys.readouterr().err
        assert err.startswith("numerical failure: singular matrix (info 1 of internal gtsv)")
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("kappa0", ["1e160", "1e200", "1e300"])
    def test_pde_run_overflowing_amplitude_exits_2_before_any_sweep(self, kappa0, tmp_path, capsys, monkeypatch):
        # else the first dt and record overflow, and a LAPACK check refuses the sweep without naming kappa0
        def unreachable(*args, **kwargs):
            raise AssertionError("a sweep ran before the amplitude was checked")

        monkeypatch.setattr(pde, "_step_imex", unreachable)
        assert run_cli("pde-run", "--N", "2", "--p", "1.5", "--kappa0", kappa0, "--M", "16",
                       "--out", str(tmp_path / "run")) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: kappa0 = {float(kappa0)!r} overflows") and "Warning" not in err
        assert list(tmp_path.iterdir()) == []

    def test_verify_report_holds_no_wall_clock(self, tmp_path, capsys):
        reports = [tmp_path / "a.json", tmp_path / "b.json"]
        for out in reports:
            assert run_cli("verify", "--only", "2", "3", "--out", str(out)) == 0
        assert reports[0].read_bytes() == reports[1].read_bytes()
        results = read_summary(reports[0])["results"]
        assert sorted(results) == ["2", "3"]
        runtime = results["2"]["checks"][-1]
        assert runtime == {"name": "runtime [s]", "passed": True, "tol": 1.0}
        for out in reports:
            meta = read_summary(f"{out}.meta.json")
            assert meta["command"] == "verify" and sorted(meta["runtime_s"]) == ["2", "3"]
            assert all(seconds > 0 for seconds in meta["runtime_s"].values())

    def test_readme_cli_lines_parse(self):
        # every documented invocation still parses; none is run
        readme = (Path(__file__).parents[1] / "README.md").read_text()
        block = readme.split("## CLI", 1)[1].split("```")[1]
        lines = [line.split("#", 1)[0] for line in block.splitlines() if line.startswith("selfsim ")]
        assert len(lines) >= 11
        for line in lines:
            build_parser().parse_args(shlex.split(line)[1:])

    def test_verify_single_fast_criterion(self, capsys):
        assert run_cli("verify", "--only", "3") == 0
        out = capsys.readouterr().out
        assert "[ 3] PASS" in out

    def test_verify_only_an_unknown_criterion_is_usage_error(self, capsys):
        # a check that runs nothing must not report success; --quick is gone
        # (--only 1 2 ... 10 runs what it ran)
        for argv, word in ((["--only", "3", "99"], "99"), (["--quick"], "--quick")):
            assert run_cli("verify", *argv) == 2
            captured = capsys.readouterr()
            assert word in captured.err and "acceptance:" not in captured.out


class TestExitCodes:
    """main picks the exit code from the failure's type: 2 for a bad setting, 3 for a numerical failure."""

    @pytest.mark.parametrize(
        "error, code",
        [
            (StepSizeUnderflowError, 3), (NoZeroWithinHorizonError, 3), (RootBracketFailureError, 3),
            (BracketFailureError, 3), (BisectionStallError, 3), (NoPlateauError, 3),
            (TimestepUnderflowError, 3), (MaxStepsExceededError, 3), (InsufficientDecayError, 3),
            (SingularSweepError, 3), (ValueError, 2),
        ],
    )
    def test_exit_code_by_type(self, error, code, capsys, monkeypatch):
        def failing(args):
            raise error("made to fail")

        monkeypatch.setattr(cli, "cmd_params", failing)
        assert run_cli("params", "--N", "2", "--p", "1.5") == code
        err = capsys.readouterr().err
        assert "made to fail" in err and "Traceback" not in err
