"""Command-line behaviour: formats, determinism, unit conversion, exit codes."""

import hashlib
import io
import json
import math
from pathlib import Path

import numpy as np
import pytest

from diracvortex import cli
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


class TestJsonWriter:
    def test_numpy_scalars_keep_their_type(self):
        buf = io.StringIO()
        cli._write_json({"meta": {}, "x": np.bool_(True), "n": np.int64(3),
                         "v": np.float64(0.25)}, buf)
        assert json.loads(buf.getvalue()) == {"meta": {}, "x": True, "n": 3, "v": 0.25}


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
