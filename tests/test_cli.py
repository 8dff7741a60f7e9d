"""Command-line behaviour: formats, determinism, unit conversion, exit codes."""

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
from pathlib import Path
import subprocess
import sys
import warnings

from hypothesis import example, given, settings, strategies as st
import numpy as np
import pytest

from diracvortex import cli, verify
from diracvortex.constants import beb_over_m2, magnetic_length_m

#: sha256 of the stdout of pinned command lines, shared with the benchmark
REFERENCE_DIGESTS = json.loads(
    (Path(__file__).resolve().parents[1] / "perfbench" / "reference_digests.json").read_text())


def run(argv, tmp_path, name="out.txt"):
    path = tmp_path / name
    code = cli.main(argv + ["--out", str(path)])
    return code, path.read_text() if path.exists() else ""


class TestUnits:
    def test_one_tesla_length_is_36_nm(self):
        assert magnetic_length_m(1.0) * 1e9 == pytest.approx(36.0, rel=0.02)

    def test_length_scales_inverse_sqrt_field(self):
        assert magnetic_length_m(4.0) == pytest.approx(magnetic_length_m(1.0) / 2.0,
                                                       rel=1e-12)

    def test_zero_field_length_infinite(self):
        assert magnetic_length_m(0.0) == math.inf

    def test_coupling_ratio_order_of_magnitude(self):
        # hbar |e| B / (m^2 c^2) for B = 1 T, m = 511 keV, from the
        # constants product evaluated independently
        hbar, e, c = 1.054571817e-34, 1.602176634e-19, 299792458.0
        mj = 511e3 * e
        expect = hbar * c**2 * e / mj**2
        assert beb_over_m2(1.0, 511.0) == pytest.approx(expect, rel=1e-12)
        assert 2e-10 < beb_over_m2(1.0, 511.0) < 3e-10

    def test_negative_field_rejected(self):
        with pytest.raises(ValueError):
            beb_over_m2(-1.0, 511.0)


class TestSignedLMapping:
    def test_positive_l(self):
        qn = cli.quantum_numbers_from_signed(3, 1, "down")
        assert (qn.spin_sign, qn.oam_sign, qn.l, qn.p) == (-1, 1, 3, 1)

    def test_negative_l(self):
        qn = cli.quantum_numbers_from_signed(-2, 0, "up")
        assert (qn.spin_sign, qn.oam_sign, qn.l, qn.p) == (1, -1, 2, 0)

    def test_zero_l_follows_spin(self):
        up = cli.quantum_numbers_from_signed(0, 2, "up")
        down = cli.quantum_numbers_from_signed(0, 2, "down")
        assert up.oam_sign == 1 and down.oam_sign == -1


class TestProfile:
    def test_deterministic_output(self, tmp_path):
        argv = ["profile", "--l", "2", "--p", "3", "--spin", "up",
                "--samples", "64", "--rmax", "4"]
        _, first = run(argv, tmp_path, "a.csv")
        _, second = run(argv, tmp_path, "b.csv")
        assert first == second

    def test_csv_shape(self, tmp_path):
        code, text = run(["profile", "--samples", "16"], tmp_path)
        assert code == 0
        lines = text.splitlines()
        meta = [ln for ln in lines if ln.startswith("# ")]
        body = [ln for ln in lines if not ln.startswith("#")]
        assert any("B_tesla" in ln for ln in meta)
        assert body[0] == "r,j0,jz,jphi,s_phi"
        assert len(body) == 1 + 16

    def test_json_structure(self, tmp_path):
        code, text = run(["profile", "--samples", "8", "--format", "json"], tmp_path)
        assert code == 0
        payload = json.loads(text)
        assert set(payload) == {"meta", "columns", "rows"}
        assert payload["columns"] == ["r", "j0", "jz", "jphi", "s_phi"]
        assert len(payload["rows"]) == 8

    def test_ground_state_current_column_zero(self, tmp_path):
        code, text = run(["profile", "--l", "-2", "--p", "0", "--spin", "down",
                          "--samples", "32", "--format", "json"], tmp_path)
        assert code == 0
        rows = json.loads(text)["rows"]
        assert all(float(row[3]) == 0.0 for row in rows)

    def test_aligned_vortex_six_sign_changes(self, tmp_path):
        code, text = run(["profile", "--l", "2", "--p", "3", "--spin", "up",
                          "--samples", "4096", "--rmax", "4.2", "--format", "json"],
                         tmp_path)
        assert code == 0
        jphi = np.array([float(r[3]) for r in json.loads(text)["rows"]])
        signs = np.sign(jphi[jphi != 0.0])
        assert int(np.count_nonzero(np.diff(signs) != 0)) == 6

    def test_negative_l_starts_negative(self, tmp_path):
        code, text = run(["profile", "--l", "-2", "--p", "3", "--spin", "up",
                          "--samples", "64", "--format", "json"], tmp_path)
        rows = json.loads(text)["rows"]
        first_nonzero = next(float(r[3]) for r in rows if float(r[3]) != 0.0)
        assert first_nonzero < 0.0

    def test_normalized_flag_scales(self, tmp_path):
        _, raw = run(["profile", "--samples", "8", "--format", "json"], tmp_path, "r.json")
        _, norm = run(["profile", "--samples", "8", "--format", "json", "--normalized"],
                      tmp_path, "n.json")
        raw_rows = json.loads(raw)["rows"]
        norm_rows = json.loads(norm)["rows"]
        ratio = float(norm_rows[1][1]) / float(raw_rows[1][1])
        assert 0.0 < ratio < 1.0


class TestSpectrum:
    def test_ground_states_have_no_partner(self, tmp_path):
        code, text = run(["spectrum", "--max-levels", "3", "--format", "json"], tmp_path)
        assert code == 0
        payload = json.loads(text)
        cols = payload["columns"]
        for row in payload["rows"]:
            rec = dict(zip(cols, row))
            if rec["spin"] == "down" and int(rec["p"]) == 0 and int(rec["l_signed"]) <= 0:
                assert rec["partner"] == "none"
            else:
                assert rec["partner"] != "none"

    def test_squared_energy_spacing_two(self, tmp_path):
        _, text = run(["spectrum", "--max-levels", "4", "--format", "json"], tmp_path)
        vals = sorted({int(r[4]) for r in json.loads(text)["rows"]})
        assert vals == [0, 2, 4, 6]

    def test_partners_are_mutual(self, tmp_path):
        _, text = run(["spectrum", "--max-levels", "4", "--format", "json"], tmp_path)
        payload = json.loads(text)
        cols = payload["columns"]
        index = {}
        for row in payload["rows"]:
            rec = dict(zip(cols, row))
            index[(rec["spin"], int(rec["l_signed"]), int(rec["p"]))] = rec
        for key, rec in index.items():
            if rec["partner"] == "none":
                continue
            spin, l, p = rec["partner"].split(":")
            partner_key = (spin, int(l), int(p))
            if partner_key in index:
                other = index[partner_key]
                assert other["partner"] == f"{key[0]}:{key[1]}:{key[2]}"
                assert int(other["interaction_sq_over_beB"]) \
                    == int(rec["interaction_sq_over_beB"])
                assert float(other["jz_canonical"]) == float(rec["jz_canonical"])


class TestTable:
    def test_ground_state_row(self, tmp_path):
        code, text = run(["table", "--l", "0", "--p", "0", "--spin", "down",
                          "--format", "json"], tmp_path)
        assert code == 0
        payload = json.loads(text)
        rec = dict(zip(payload["columns"], payload["rows"][0]))
        assert float(rec["jz_gauge"]) == 0.5
        assert float(rec["mz_per_abs_e"]) == 0.0
        assert float(rec["prob_up"]) == 0.0
        assert float(rec["prob_down"]) == 1.0

    def test_check_errors_small(self, tmp_path):
        code, text = run(["table", "--l", "2", "--p", "2", "--spin", "up",
                          "--check", "--format", "json"], tmp_path)
        assert code == 0
        payload = json.loads(text)
        rec = dict(zip(payload["columns"], payload["rows"][0]))
        for name, value in rec.items():
            if name.startswith("err_"):
                assert float(value) <= 1e-9

    def test_zero_field_json_is_strict(self, tmp_path):
        code, text = run(["table", "--B", "0", "--check", "--format", "json"], tmp_path)
        assert code == 0

        def reject(token):
            raise AssertionError(f"non-standard JSON constant {token}")

        payload = json.loads(text, parse_constant=reject)
        assert payload["meta"]["unit_radius_nm"] is None
        assert "err_int_j0" in payload["columns"] and "err_mz" not in payload["columns"]

    def test_dropped_column_half_integer(self, tmp_path):
        _, text = run(["table", "--l", "-3", "--p", "2", "--spin", "up",
                       "--format", "json"], tmp_path)
        rec = dict(zip(*(lambda p: (p["columns"], p["rows"][0]))(json.loads(text))))
        val = float(rec["jz_gauge_dropped"])
        assert abs(val - round(2 * val) / 2) <= 1e-12


class TestFigure:
    def test_panel_columns_and_ring_metadata(self, tmp_path):
        code, text = run(["figure", "--samples", "64", "--format", "json"], tmp_path)
        assert code == 0
        payload = json.loads(text)
        assert payload["columns"] == ["r", "jphi_a_up", "jphi_a_down", "jphi_b_up",
                                      "jphi_b_down", "jphi_c_up", "jphi_c_down"]
        meta = payload["meta"]
        assert meta["sign_change_radii_c_down"] == "none"
        assert len(meta["sign_change_radii_a_up"].split()) == 6
        assert len(meta["sign_change_radii_b_up"].split()) == 7
        assert len(meta["sign_change_radii_b_down"].split()) == 5
        down_col = [float(r[6]) for r in payload["rows"]]
        assert all(v == 0.0 for v in down_col)


class TestVerifyCommand:
    def test_report_schema(self, tmp_path):
        path = tmp_path / "report.json"
        code = cli.main(["verify", "--out", str(path)])
        assert code == 0
        payload = json.loads(path.read_text())
        assert set(payload) == {"meta", "checks"}
        for check in payload["checks"]:
            assert set(check) == {"name", "residual", "tolerance", "pass"}
            assert check["pass"] is True

    def test_sabotage_fails(self, tmp_path):
        path = tmp_path / "report.json"
        code = cli.main(["verify", "--sabotage", "energy", "--out", str(path)])
        assert code == 1
        payload = json.loads(path.read_text())
        assert any(not c["pass"] for c in payload["checks"])

    def test_csv_report(self, monkeypatch, capsys):
        checks = [verify.Check("holds", 1e-16, 1e-12), verify.Check("breaks", 0.5, 1e-12)]
        monkeypatch.setattr(verify, "run_all", lambda sabotage: checks)
        assert cli.main(["verify", "--format", "csv"]) == 1
        out, err = capsys.readouterr()
        assert out.splitlines() == ["# tool = diracvortex", f"# version = {cli.__version__}",
                                    "# sabotage = none",
                                    "name,residual,tolerance,pass",
                                    "holds,9.9999999999999998e-17,9.9999999999999998e-13,true",
                                    "breaks,0.5,9.9999999999999998e-13,false"]
        assert err == "FAIL breaks: residual 5.000e-01 > tolerance 1.0e-12\n"

    def test_both_formats_carry_the_same_rows(self, monkeypatch, capsys):
        checks = [verify.Check("numpy", np.float64(1) / 3e13, 1e-12),
                  verify.Check("exact", 0.0, 0.0), verify.Check("breaks", 0.5, 1e-12)]
        monkeypatch.setattr(verify, "run_all", lambda sabotage: checks)
        reports = {}
        for fmt in ("json", "csv"):
            assert cli.main(["verify", "--format", fmt]) == 1
            reports[fmt] = capsys.readouterr().out
        header, *rows = [line.split(",") for line in reports["csv"].splitlines()
                         if not line.startswith("# ")]
        assert header == ["name", "residual", "tolerance", "pass"]
        assert rows == [[fmt_oracle(check[key]) for key in header]
                        for check in json.loads(reports["json"])["checks"]]
        assert [row[0] for row in rows] == ["numpy", "exact", "breaks"]

    @pytest.mark.parametrize("residual", [math.nan, math.inf])
    def test_non_finite_residual_is_reported_and_fails(self, residual, monkeypatch, capsys):
        # null in JSON, an empty CSV cell; the report is written and the exit code is 1
        checks = [verify.Check("holds", 0.0, 1.0), verify.Check("broken", residual, 1e-12)]
        monkeypatch.setattr(verify, "run_all", lambda sabotage: checks)
        fail = f"FAIL broken: residual {residual:.3e} > tolerance 1.0e-12\n"
        assert cli.main(["verify"]) == 1
        out, err = capsys.readouterr()
        assert err == fail
        assert json.loads(out)["checks"] == [
            {"name": "holds", "residual": 0.0, "tolerance": 1.0, "pass": True},
            {"name": "broken", "residual": None, "tolerance": 1e-12, "pass": False}]
        assert cli.main(["verify", "--format", "csv"]) == 1
        out, err = capsys.readouterr()
        assert err == fail
        assert out.splitlines()[-3:] == ["name,residual,tolerance,pass", "holds,0,1,true",
                                         "broken,,9.9999999999999998e-13,false"]


class TestJsonWriter:
    def test_numpy_scalars_keep_their_type(self):
        text = cli._strict_json({"meta": {}, "x": np.bool_(True), "n": np.int64(3),
                                 "v": np.float64(0.25)})
        assert json.loads(text) == {"meta": {}, "x": True, "n": 3, "v": 0.25}


def fmt_oracle(value) -> str:
    """The CSV cell rule: bools as true/false, integers plain, floats to 17 digits."""
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, float):
        return f"{value:.17g}"
    return str(value)


def row_wise(meta, table, fmt) -> str:
    """The table as the row-wise writers wrote it: one cell rule per value for CSV,
    one ``json.dumps(indent=2)`` of the whole payload for JSON."""
    rows = list(zip(*table.values()))
    if fmt == "csv":
        lines = [f"# {key} = {fmt_oracle(value)}" for key, value in meta.items()]
        lines += [",".join(table)] + [",".join(fmt_oracle(v) for v in row) for row in rows]
        return "\n".join(lines) + "\n"
    strict = {key: None if isinstance(value, float) and not math.isfinite(value) else value
              for key, value in meta.items()}
    return json.dumps({"meta": strict, "columns": list(table), "rows": [list(r) for r in rows]},
                      indent=2, default=lambda value: value.item(), allow_nan=False) + "\n"


#: floats whose text is easy to get wrong: signed zero, the smallest subnormal,
#: near-overflow, a non-representable decimal, integral floats (where ``.17g``
#: and ``repr`` differ) and the 17th significant digit
AWKWARD_FLOATS = (-0.0, 0.0, 5e-324, -5e-324, 1e308, -1.7976931348623157e308, 0.1, 1.0,
                  -2.0, 1e16, 123456789.0, 1e-5, 2.5e-17, 1 / 3, 0.30000000000000004)
META = {"tool": "diracvortex", "B_tesla": 0.0, "unit_radius_nm": math.inf,
        "normalized": False, "l_signed": -2, "units": "natural units, m = 1"}


def float_table(n_rows):
    rng = np.random.default_rng(n_rows)
    columns = {"r": np.linspace(0.0, 4.0, n_rows)}
    for name, scale in (("j0", 1.0), ("jphi", 1e-12), ("s_phi", 1e200)):
        col = rng.standard_normal(n_rows) * scale
        col[:len(AWKWARD_FLOATS)] = AWKWARD_FLOATS[:n_rows]
        columns[name] = np.roll(col, n_rows // 2)
    return columns


#: one value of each kind the small tables hold: spectrum rows (spin words,
#: signed ints, ``none`` partners), a table row with numpy scalars and
#: verify rows (names, residuals, bools)
MIXED_TABLES = {
    "spectrum": {"spin": ["up", "down", "down"], "l_signed": [2, 0, -3],
                 "p": [np.int64(3), 0, 1], "jz_canonical": [2.5, -0.5, -3.5],
                 "interaction_sq_over_beB": [10, 0, 2],
                 "energy_over_m": [np.float64(1.0000000011), 1.0, 1e-300],
                 "partner": ["up:-2:3", "none", "none"]},
    "table": {"spin": ["up"], "l_signed": [-1], "p": [2], "energy_over_m": [np.float64(1.5)],
              "mz_per_abs_e": [0.0], "prob_up": [np.float64(-0.0)],
              "err_int_j0": [np.float64(2.2e-16)]},
    "verify": {"name": ["holds", "breaks", "exact"], "residual": [np.float64(1e-16), 0.5, 0.0],
               "tolerance": [1e-12, 1e-12, 1.0], "pass": [np.bool_(True), False, True]},
}


class TestTableWriter:
    """The block writer reproduces the row-wise writers byte for byte."""

    @staticmethod
    def written(meta, table, fmt, tmp_path):
        path = tmp_path / f"table.{fmt}"
        cli._emit(meta, table, fmt, str(path))
        return path.read_text()

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("n_rows", [2, 1023, 1024, 1025, 2049])
    def test_float_columns(self, n_rows, fmt, tmp_path):
        table = float_table(n_rows)
        assert self.written(META, table, fmt, tmp_path) == row_wise(META, table, fmt)

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("kind", sorted(MIXED_TABLES))
    def test_mixed_columns(self, kind, fmt, tmp_path):
        table = MIXED_TABLES[kind]
        assert self.written(META, table, fmt, tmp_path) == row_wise(META, table, fmt)

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("argv", [["profile", "--l", "-2", "--p", "1", "--samples", "1100"],
                                      ["figure", "--B", "0", "--samples", "3"],
                                      ["spectrum", "--max-levels", "3"],
                                      ["table", "--l", "2", "--p", "1", "--check"]])
    def test_commands(self, argv, fmt, monkeypatch, tmp_path):
        tables = []
        emit = cli._emit
        monkeypatch.setattr(cli, "_emit", lambda *a: (tables.append(a), emit(*a)))
        code, text = run(argv + ["--format", fmt], tmp_path)
        assert code == 0
        [(meta, table, _, _)] = tables
        assert text == row_wise(meta, table, fmt)

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_non_finite_column_named_before_output(self, fmt, tmp_path):
        table = float_table(2049)
        table["jphi"][1500] = math.nan
        table["spin"] = ["up"] * 2048 + [-math.inf]
        with pytest.raises(ValueError, match=r"in jphi, spin: .*overflow at large l or p"):
            self.written(META, table, fmt, tmp_path)
        assert not (tmp_path / f"table.{fmt}").exists()


#: run the CLI on argv, then print the process's peak resident set (kB); the
#: kernel keeps ``VmHWM`` per address space, so unlike ``ru_maxrss`` it does not
#: count the spawning process's memory
PEAK_RSS_CODE = ("import sys; from diracvortex import cli; code = cli.main(sys.argv[1:]); "
                 "print(next(line.split()[1] for line in open('/proc/self/status') "
                 "if line.startswith('VmHWM:'))); sys.exit(code)")


def child_peak_rss_mb(argv, tmp_path):
    """Peak resident memory (MB) of one CLI run in a fresh interpreter."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(Path(cli.__file__).resolve().parents[1]), env.get("PYTHONPATH")]))
    run = subprocess.run([sys.executable, "-c", PEAK_RSS_CODE, *argv,
                          "--out", str(tmp_path / "out")], capture_output=True, env=env)
    assert run.returncode == 0, run.stderr.decode()
    return int(run.stdout) / 1024


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads /proc/self/status")
class TestOutputMemory:
    """Writing 10^5 profile rows costs no more memory than the arrays behind them.

    Measured on CPython 3.11 / numpy 2.4 (x86-64 Linux), peak growth over a
    two-row run: 8.7 MB (CSV) and 8.9 MB (JSON); the row-tuple writers this
    replaced grew by 30.7 MB and 106.3 MB.
    """

    GROWTH_BOUND_MB = 20.0

    @pytest.fixture(scope="class")
    def baseline_mb(self, tmp_path_factory):
        return child_peak_rss_mb(["profile", "--samples", "2"], tmp_path_factory.mktemp("base"))

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_profile_growth_bounded(self, fmt, baseline_mb, tmp_path):
        peak = child_peak_rss_mb(["profile", "--samples", "100000", "--format", fmt], tmp_path)
        assert peak - baseline_mb < self.GROWTH_BOUND_MB


class TestUsageErrors:
    def test_negative_p(self, tmp_path):
        assert cli.main(["profile", "--p", "-1"]) == 2

    def test_too_few_samples(self):
        assert cli.main(["profile", "--samples", "1"]) == 2

    def test_nonpositive_rmax(self):
        assert cli.main(["profile", "--rmax", "0"]) == 2

    @pytest.mark.parametrize("argv", [["table", "--B", "nan"], ["table", "--B", "inf"],
                                      ["table", "--k-over-m", "nan"],
                                      ["table", "--m-kev", "inf"],
                                      ["profile", "--rmax", "inf"],
                                      ["figure", "--k-over-m=-inf"]])
    def test_non_finite_input(self, argv, tmp_path):
        code, text = run(argv, tmp_path)
        assert code == 2
        assert text == ""

    @pytest.mark.parametrize("argv, message", [
        (["table", "--B", "nan"], "beB / m^2 is not finite"),
        (["spectrum", "--B", "inf"], "beB / m^2 is not finite"),
        (["table", "--k-over-m", "nan"], "k must be finite"),
        (["figure", "--k-over-m=-inf"], "k must be finite"),
        (["profile", "--m-kev", "inf"], "mass energy must be finite"),
        (["profile", "--rmax", "inf"], "rmax must be finite and > 0"),
        (["figure", "--rmax", "0"], "rmax must be finite and > 0")])
    def test_rejection_message(self, argv, message, capsys):
        assert cli.main(argv) == 2
        assert capsys.readouterr() == ("", f"error: {message}\n")

    @pytest.mark.parametrize("out", ["missing/out.txt", "."])
    @pytest.mark.parametrize("command", ["profile", "figure", "spectrum", "table", "verify"])
    def test_unwritable_out(self, command, out, monkeypatch, tmp_path, capsys):
        # a file under a missing directory, or the directory itself
        monkeypatch.setattr(verify, "run_all", lambda sabotage: [verify.Check("holds", 0.0, 1.0)])
        assert cli.main([command, "--out", str(tmp_path / out)]) == 2
        stdout, err = capsys.readouterr()
        assert stdout == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("out", ["missing/r.json", "."])
    def test_verify_unwritable_out_fails_before_the_suite(self, out, fmt, monkeypatch,
                                                          tmp_path, capsys):
        def suite(sabotage):
            raise AssertionError("the suite ran")

        monkeypatch.setattr(verify, "run_all", suite)
        assert cli.main(["verify", "--format", fmt, "--out", str(tmp_path / out)]) == 2
        stdout, err = capsys.readouterr()
        assert stdout == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert list(tmp_path.iterdir()) == []

    def test_verify_keeps_an_existing_report_when_the_suite_fails(self, monkeypatch,
                                                                  tmp_path, capsys):
        def suite(sabotage):
            raise ArithmeticError("float division by zero")

        report = tmp_path / "r.json"
        report.write_bytes(b'{"old": "report"}\n')
        monkeypatch.setattr(verify, "run_all", suite)
        assert cli.main(["verify", "--out", str(report)]) == 2
        assert capsys.readouterr() == ("", "error: float division by zero\n")
        assert report.read_bytes() == b'{"old": "report"}\n'

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning",
                                "ignore:invalid value encountered:RuntimeWarning")
    def test_overflow_at_large_field_names_the_field(self, capsys):
        assert cli.main(["table", "--B", "1e300", "--check"]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: non-finite output values in mz_per_abs_e")
        assert "overflow at large l or p" in err and "--B" in err and "--m-kev" in err

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("argv", [["profile", "--l", "160", "--rmax", "40", "--samples", "4"],
                                      ["table", "--l", "60", "--p", "60", "--check"]])
    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning",
                                "ignore:invalid value encountered:RuntimeWarning")
    def test_overflow_at_large_l_p(self, argv, fmt, tmp_path, capsys):
        code, text = run(argv + ["--format", fmt], tmp_path)
        assert code == 2
        assert text == ""
        assert "overflow at large l or p" in capsys.readouterr().err

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_overflow_at_large_k_names_columns(self, fmt, capsys):
        assert cli.main(["table", "--k-over-m", "1e154", "--format", fmt]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: non-finite output values in ")
        assert "int_j0" in err and "--k-over-m" in err and "--rmax" in err

    @pytest.mark.parametrize("argv", [["table", "--k-over-m", "1e154", "--check"],
                                      ["profile", "--l", "160", "--rmax", "40", "--samples", "4"],
                                      ["profile", "--rmax", "1e308", "--samples", "3"]])
    def test_overflow_prints_only_the_error_line(self, argv):
        # a fresh interpreter under the default warning filters, as a user runs it
        env = {key: value for key, value in os.environ.items() if key != "PYTHONWARNINGS"}
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [str(Path(cli.__file__).resolve().parents[1]), env.get("PYTHONPATH")]))
        run = subprocess.run([sys.executable, "-m", "diracvortex.cli", *argv],
                             capture_output=True, env=env)
        assert run.returncode == 2
        assert run.stdout == b""
        lines = run.stderr.decode().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: non-finite output values")

    def test_warnings_of_a_failed_command_are_dropped(self, monkeypatch, capsys):
        def fail(args):
            warnings.warn("held back", UserWarning)
            raise ValueError("bad input")

        monkeypatch.setattr(cli, "run_spectrum", fail)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert cli.main(["spectrum"]) == 2
        assert caught == []
        assert capsys.readouterr().err == "error: bad input\n"

    def test_warnings_of_a_successful_command_are_shown(self, monkeypatch):
        def succeed(args):
            warnings.warn("still shown", UserWarning)
            return 0

        monkeypatch.setattr(cli, "run_spectrum", succeed)
        with pytest.warns(UserWarning, match="still shown"):
            assert cli.main(["spectrum"]) == 0

    @pytest.mark.parametrize("argv", [["profile", "--p", "-1"], ["table", "--p", "-1"],
                                      ["profile", "--B", "-1"], ["figure", "--B", "-1"],
                                      ["spectrum", "--B", "-1"], ["table", "--B", "-1"],
                                      ["spectrum", "--max-levels", "0"],
                                      ["profile", "--m-kev", "1e-160"],
                                      ["table", "--m-kev", "1e-160"],
                                      ["spectrum", "--m-kev", "1e-160"],
                                      ["profile", "--B", "1e-320"], ["figure", "--B", "1e-320"],
                                      ["spectrum", "--B", "1e-320"], ["table", "--B", "1e-320"],
                                      # ZeroDivisionError: E = 0 for the ground family
                                      ["figure", "--B", "1e154", "--normalized"],
                                      ["table", "--B", "1e300", "--spin", "down"]])
    def test_rejected_by_the_library(self, argv, capsys):
        assert cli.main(argv) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error:") and err.count("\n") == 1

    def test_unknown_subcommand_exits_2(self):
        with pytest.raises(SystemExit) as err:
            cli.main(["frobnicate"])
        assert err.value.code == 2


class TestReferenceDigests:
    """Pinned command lines keep their stdout to the byte."""

    @pytest.mark.parametrize("line", sorted(REFERENCE_DIGESTS))
    def test_stdout_digest(self, line, capsys):
        assert cli.main(line.split()) == 0
        stdout = capsys.readouterr().out.encode()
        assert hashlib.sha256(stdout).hexdigest() == REFERENCE_DIGESTS[line]


#: option values for the contract fuzz: signed zeros, the smallest subnormal,
#: tiny, ordinary and huge magnitudes and the non-finite values
FUZZ_FLOATS = st.sampled_from((0.0, -0.0, 5e-324, 1e-300, 0.37, 1.0, -2.5, 511.0,
                               1e154, 1e300, math.inf, -math.inf, math.nan))
FUZZ_INTS = st.sampled_from((-3, -1, 0, 1, 2, 3, 7, 60, 171)) | st.integers(-2, 12)
#: ``--samples`` up to 200 keeps each run near 2.5 ms; ``spectrum`` grows as
#: the square of ``--max-levels`` (171 takes about 1 s), so it is drawn up to 12
BOUNDED_INTS = {"samples": st.sampled_from((-1, 0, 1, 2, 3)) | st.integers(2, 200),
                "max_levels": st.integers(-1, 12)}


def option_values(action):
    """Strategy for the value of one parser option; None for a flag."""
    if action.dest in BOUNDED_INTS:
        return BOUNDED_INTS[action.dest]
    if action.choices:
        return st.sampled_from(action.choices)
    return {float: FUZZ_FLOATS, int: FUZZ_INTS}.get(action.type)


def grammar():
    """{command: [option action]} of the parser, ``verify``, ``--out`` and ``-h`` left out."""
    parser = cli.build_parser()
    [commands] = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return {name: [a for a in sub._actions if a.dest not in ("help", "out")]
            for name, sub in commands.choices.items() if name != "verify"}


GRAMMAR = grammar()


@st.composite
def cli_argv(draw):
    """A command and each of its options absent or present, as ``--option=value``."""
    command = draw(st.sampled_from(sorted(GRAMMAR)))
    argv = [command]
    for action in GRAMMAR[command]:
        values = option_values(action)
        if values is None:
            if draw(st.booleans()):
                argv.append(action.option_strings[0])
        else:
            value = draw(st.none() | values)
            if value is not None:
                argv.append(f"{action.option_strings[0]}={value}")
    return argv


def reject_constant(token):
    raise AssertionError(f"non-standard JSON constant {token}")


def assert_finite_output(text, fmt):
    """Strict JSON, or CSV whose cells (metadata lines aside) hold no inf or nan."""
    if fmt == "json":
        json.loads(text, parse_constant=reject_constant)
        return
    for line in text.splitlines():
        if line.startswith("# "):
            continue
        for cell in line.split(","):
            with contextlib.suppress(ValueError):
                assert math.isfinite(float(cell)), line


@settings(derandomize=True, deadline=None, max_examples=400)
@given(argv=cli_argv())
@example(argv=["profile", "--out", "/nonexistent/x.csv"])
@example(argv=["table", "--out", str(Path(__file__).resolve().parent)])
@example(argv=["figure", "--B", "1e154", "--normalized"])
@example(argv=["table", "--B", "1e300", "--spin", "down"])
@example(argv=["table", "--B", "1e300", "--check"])
@example(argv=["spectrum", "--max-levels", "257"])
@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning",
                            "ignore:invalid value encountered:RuntimeWarning")
def test_cli_contract(argv):
    """Exit 0 with strict, finite output, or exit 2 with empty stdout and one error line."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    if code == 0:
        assert_finite_output(out.getvalue(), "json" if "--format=json" in argv else "csv")
    else:
        assert code == 2
        assert out.getvalue() == ""
        lines = err.getvalue().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: "), lines
