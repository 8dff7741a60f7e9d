"""Output checks: each returns None for a correct output or a one-line reason.

The CLI checks parse what a user would read (strict JSON or CSV with ``#``
metadata lines) and know nothing of the library.  Tolerances are the ones
``diracvortex verify`` applies to the same quantities.
"""

import hashlib
import json
import math

#: relative closed-form vs quadrature agreement (verify: quadrature_vs_closed_forms)
QUADRATURE_TOL = 1e-9
#: unit normalisation by quadrature (verify: normalization_unit_integral)
NORMALIZATION_TOL = 1e-10
#: Dirac-equation residual (verify: dirac_equation_sweep)
DIRAC_TOL = 1e-10

#: CSV columns that hold words, not numbers
TEXT_COLUMNS = {"spin", "partner"}


def digest(stdout: bytes) -> str:
    return hashlib.sha256(stdout).hexdigest()


def margin_decades(residual, tolerance):
    """log10(tolerance / residual); None where it is unbounded or undefined."""
    if residual > 0.0 and tolerance > 0.0:
        return math.log10(tolerance / residual)
    return None


def _reject_constant(name):
    raise ValueError(f"non-strict JSON constant {name}")


def _finite_leaves(value):
    if isinstance(value, dict):
        return all(_finite_leaves(v) for v in value.values())
    if isinstance(value, list):
        return all(_finite_leaves(v) for v in value)
    if isinstance(value, float):
        return math.isfinite(value)
    return True


def _is_number(text):
    try:
        float(text)
    except ValueError:
        return False
    return True


def parse_table(stdout: bytes, fmt: str, text_columns=TEXT_COLUMNS):
    """(meta, columns, rows) of a CLI table; raises ValueError when malformed."""
    text = stdout.decode("ascii")
    if fmt == "json":
        payload = json.loads(text, parse_constant=_reject_constant)
        if not _finite_leaves(payload):
            raise ValueError("non-finite number")
        columns, rows = payload["columns"], payload["rows"]
        return payload["meta"], columns, rows
    meta, lines = {}, text.splitlines()
    while lines and lines[0].startswith("# "):
        key, _, value = lines.pop(0)[2:].partition(" = ")
        meta[key] = value
    if not lines:
        raise ValueError("no header line")
    columns = lines[0].split(",")
    rows = []
    for line in lines[1:]:
        cells = line.split(",")
        if len(cells) != len(columns):
            raise ValueError(f"row has {len(cells)} cells for {len(columns)} columns")
        row = []
        for name, cell in zip(columns, cells):
            if name in text_columns:
                row.append(cell)
            elif _is_number(cell):
                row.append(float(cell))
            else:
                raise ValueError(f"column {name} holds {cell!r}")
        rows.append(row)
    for key, value in meta.items():
        if _is_number(value) and not math.isfinite(float(value)):
            raise ValueError(f"non-finite meta value {key} = {value}")
    return meta, columns, rows


def expected_levels(max_levels: int) -> int:
    """Rows of ``spectrum``: states with interaction index < max_levels, l <= max_levels."""
    count = 0
    for spin, oam in ((1, 1), (-1, 1), (1, -1), (-1, -1)):
        for l in range(0 if spin == oam else 1, max_levels + 1):
            for p in range(max_levels):
                if (2 * p + l * (1 + oam) + 1 + spin) // 2 <= max_levels - 1:
                    count += 1
    return count


def check_cli(cmd, returncode, stdout, margins=None):
    """Reason a CLI command's output is wrong, or None.

    ``cmd`` is the generated command (see ``workloads.cli_commands``);
    ``margins`` collects the decades of margin of ``table --check`` errors.
    """
    if returncode != 0:
        return f"exit code {returncode}"
    try:
        _, columns, rows = parse_table(stdout, cmd["format"])
    except (ValueError, KeyError, UnicodeDecodeError) as exc:
        return f"unparseable output: {exc}"
    if any(len(row) != len(columns) for row in rows):
        return "ragged rows"
    for row in rows:
        for name, value in zip(columns, row):
            if name not in TEXT_COLUMNS and not (
                    isinstance(value, (int, float)) and math.isfinite(value)):
                return f"non-finite or non-numeric {name} = {value!r}"
    want = cmd["rows"]
    if len(rows) != want:
        return f"{len(rows)} rows, expected {want}"
    if cmd["kind"] == "table" and "--check" in cmd["argv"]:
        for name, value in zip(columns, rows[0]):
            if name.startswith("err_"):
                if value > QUADRATURE_TOL:
                    return f"{name} = {value:.3e} exceeds {QUADRATURE_TOL:.0e}"
                if margins is not None:
                    m = margin_decades(value, QUADRATURE_TOL)
                    if m is not None:
                        margins.append(m)
    if cmd.get("digest") and digest(stdout) != cmd["digest"]:
        return "stdout differs from the recorded reference digest"
    return None


def check_verify(fmt, returncode, stdout, margins=None):
    """Reason a ``verify`` run failed, naming its failed checks, or None."""
    try:
        if fmt == "json":
            payload = json.loads(stdout.decode("ascii"), parse_constant=_reject_constant)
            checks = [(c["name"], c["residual"], c["tolerance"], c["pass"])
                      for c in payload["checks"]]
        else:
            _, columns, rows = parse_table(stdout, "csv", {"name", "pass"})
            if columns != ["name", "residual", "tolerance", "pass"]:
                return f"unexpected columns {columns}"
            checks = [(r[0], r[1], r[2], r[3] == "true") for r in rows]
    except (ValueError, KeyError, UnicodeDecodeError) as exc:
        return f"exit code {returncode}, unparseable output: {exc}"
    failed = [name for name, _, _, ok in checks if ok is not True]
    if failed:
        return "failed checks: " + ", ".join(failed)
    if returncode != 0:
        return f"exit code {returncode}"
    if not checks:
        return "no checks reported"
    if margins is not None:
        for _, residual, tolerance, _ in checks:
            m = margin_decades(residual, tolerance)
            if m is not None:
                margins.append(m)
    return None


def check_state(values):
    """Reason a state-sweep result is wrong, or None.

    ``values`` comes from ``workloads.state_op``: closed/quadrature pairs,
    the normalisation by quadrature, the Dirac residual, the expected and
    found sign-change counts and every sampled array.
    """
    for name, closed, quad in values["pairs"]:
        if not (math.isfinite(closed) and math.isfinite(quad)):
            return f"non-finite {name}"
        err = abs(closed - quad) / max(1.0, abs(closed))
        if err > QUADRATURE_TOL:
            return f"{name}: closed vs quadrature {err:.3e}"
    if not abs(values["norm_error"]) <= NORMALIZATION_TOL:
        return f"normalisation by quadrature off by {values['norm_error']:.3e}"
    if not values["dirac"] <= DIRAC_TOL:
        return f"Dirac residual {values['dirac']:.3e}"
    if values["radii_found"] != values["radii_expected"]:
        return (f"{values['radii_found']} sign-change radii, "
                f"expected {values['radii_expected']}")
    if not values["finite"]:
        return "non-finite profile, ring or spin-texture value"
    return None
