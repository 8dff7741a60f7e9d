"""The benchmark's own tests, negative controls first.

    python -m pytest perfbench -q

The controls show that the correctness gate can fail: a sabotaged
``verify`` run and a corrupted reference digest must each register as a
failed operation of the closed loop that produces ``attempted``/``failed``.
"""

import json
import math

import pytest

import checks
import run
import spans
import workloads


def test_sabotaged_verify_counts_as_failed():
    suite = workloads.VerifySuite(0, workloads.child_env())
    sabotaged = ("verify", "--format", "json", "--sabotage", "energy")
    walls, failures = workloads.closed_loop([sabotaged], 0.0, suite.run_op)
    assert len(walls) == 1 and len(failures) == 1
    assert failures[0].endswith("failed checks: dirac_equation_sweep")


def test_corrupted_reference_digest_counts_as_failed():
    good = workloads.load_references()[-1]
    bad = dict(good, digest=good["digest"][::-1])
    session = workloads.CliSession(0, workloads.child_env(), references=[good])
    walls, failures = workloads.closed_loop([good, bad], 1e9, session.run_op)
    assert len(walls) == 2
    assert failures == [f"{' '.join(bad['argv'])}: stdout differs from the recorded "
                        "reference digest"]


def _profile_cmd(fmt, rows=2):
    return workloads.make_command(["profile", "--samples", str(rows), "--format", fmt])


def test_cli_check_accepts_wellformed_output():
    csv = b"# tool = diracvortex\nr,j0\n0,1.5\n1,2.5e-3\n"
    assert checks.check_cli(_profile_cmd("csv"), 0, csv) is None
    doc = {"meta": {"x": 1.0}, "columns": ["r", "j0"], "rows": [[0.0, 1.0], [1.0, 2.0]]}
    assert checks.check_cli(_profile_cmd("json"), 0, json.dumps(doc).encode()) is None


@pytest.mark.parametrize("fmt, stdout, code, fragment", [
    ("csv", b"r,j0\n0,1\n1,2\n", 2, "exit code 2"),
    ("csv", b"r,j0\n0,1\n", 0, "1 rows, expected 2"),
    ("csv", b"r,j0\n0,1\n1,nan\n", 0, "non-finite"),
    ("csv", b"# unit_radius_nm = inf\nr,j0\n0,1\n1,2\n", 0, "non-finite meta"),
    ("csv", b"r,j0\n0,1\n1\n", 0, "cells"),
    ("json", b'{"meta": {"u": Infinity}, "columns": ["r"], "rows": [[0], [1]]}', 0,
     "non-strict"),
    ("json", b'{"meta": {}, "columns": ["r"]', 0, "unparseable"),
])
def test_cli_check_rejects_bad_output(fmt, stdout, code, fragment):
    reason = checks.check_cli(_profile_cmd(fmt), code, stdout)
    assert reason is not None and fragment in reason


def test_table_check_errors_above_verify_tolerance_fail():
    cmd = workloads.make_command(["table", "--check"])
    out = b"spin,err_int_j0\nup,2e-9\n"
    assert "exceeds" in checks.check_cli(cmd, 0, out)


def test_expected_levels_matches_spectrum_edges():
    # max_levels = 1 keeps only the protected ground family at l = 0 and l = 1
    assert checks.expected_levels(1) == 2


def test_state_check_uses_verify_tolerances():
    good = {"pairs": [("x", 1.0, 1.0 + 1e-12)], "norm_error": 1e-12, "dirac": 1e-15,
            "radii_found": 2, "radii_expected": 2, "finite": True}
    assert checks.check_state(good) is None
    assert "closed vs quadrature" in checks.check_state(
        dict(good, pairs=[("x", 1.0, 1.0 + 2e-9)]))
    assert "Dirac" in checks.check_state(dict(good, dirac=2e-10))
    assert "non-finite" in checks.check_state(dict(good, pairs=[("x", math.nan, 1.0)]))
    assert "sign-change" in checks.check_state(dict(good, radii_found=1))


def test_state_stream_is_seeded_and_distinct():
    def take(seed, n=64):
        stream = workloads.state_specs(seed)
        return [next(stream) for _ in range(n)]
    first = take(3)
    assert first == take(3) and first != take(4)
    keys = {(s["spin"], s["oam"], s["l"], s["p"], s["beB"], s["k"]) for s in first}
    assert len(keys) == len(first)


def test_tail_has_ten_samples_above():
    values = list(range(50))
    assert run.tail(values) == (39, 100.0 * 39 / 49)
    assert run.tail([3, 1, 2, 4, 5]) == (4, 75.0)
    assert run.tail([1, 2]) == (1.75, 75.0)
    assert run.tail([7]) == (7, 75.0)


def test_importtime_parse_attributes_nested_modules():
    text = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |        100 |       numpy.core",
        "import time:        50 |        150 |     numpy",
        "import time:        30 |         30 |       numpy.ma",
        "import time:        20 |         50 |     scipy.special",
        "import time:        10 |        210 |   diracvortex.laguerre",
        "import time:         5 |        215 | diracvortex",
    ])
    assert workloads.parse_importtime(text) == {
        "scipy": 50e-6, "numpy": 150e-6, "diracvortex": 15e-6}


def test_recorder_counts_self_time_and_restores():
    np, obs, _, st = workloads.import_library()
    original = obs.evaluate_spinor
    qn = st.QuantumNumbers(1, 1, 2, 1)
    bp = st.BeamParameters(beB=0.37, m=1.0, k=0.8)
    recorder = spans.SpanRecorder()
    recorder.install()
    try:
        assert obs.evaluate_spinor is not original
        obs.integrated_jz_quadrature(qn, bp)
        obs.gauge_covariant_jz_quadrature(qn, bp)
    finally:
        recorder.uninstall()
    assert obs.evaluate_spinor is original
    summary = recorder.summary()
    quad = summary["groups"]["observables.quadrature"]
    assert quad["calls"] == 2      # nested companions count once
    nodes = summary["spans"]["states.evaluate_spinor"]
    assert nodes["calls"] > 0 and 0 < nodes["self_ns"] <= nodes["incl_ns"]
    metrics = spans.layer_metrics(summary)
    assert metrics["observables.quadrature.calls"] == (2, "count")
    assert metrics["polyspinor.objects"] == (0, "count")
