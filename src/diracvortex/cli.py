"""Command-line front end: profiles, spectra, summary tables, verification.

All physics happens in natural units with m = 1; this module converts the
Tesla and keV inputs once, serialises results deterministically (17
significant digits, stable column order) and maps failures to exit codes:
0 success, 1 verification failure, 2 usage error, unwritable --out or
arithmetic failure.
"""

import argparse
import contextlib
import json
import math
import sys
import warnings

import numpy as np

from . import __version__
from . import observables as obs
from .constants import beb_over_m2, magnetic_length_m
from .states import BeamParameters, QuantumNumbers, energy, spectrum_table

#: preset panels for ``figure``: (label, signed l, p); the third case is the
#: protected ground state whose azimuthal current vanishes identically
FIGURE_CASES = (("a", 2, 3), ("b", -2, 3), ("c", -2, 0))
#: most radii ``profile`` and ``figure`` sample (one row each)
MAX_SAMPLES = 10**6


def quantum_numbers_from_signed(l_signed: int, p: int, spin: str) -> QuantumNumbers:
    """Map the CLI's signed orbital index and spin word onto a state label."""
    spin_sign = 1 if spin == "up" else -1
    if l_signed > 0:
        oam_sign, l = 1, l_signed
    elif l_signed < 0:
        oam_sign, l = -1, -l_signed
    else:
        oam_sign, l = spin_sign, 0
    return QuantumNumbers(spin_sign, oam_sign, l, p)


def _label(qn: QuantumNumbers):
    """(spin word, signed l): the inverse of ``quantum_numbers_from_signed``."""
    return "up" if qn.spin_sign > 0 else "down", qn.oam_sign * qn.l


#: a float's CSV text: 17 significant digits, enough to round-trip any double
_csv_float = "{:.17g}".format


def _fmt(value) -> str:
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, float):
        return _csv_float(value)
    return str(value)


#: rows formatted and written at a time: bounds the output text held in memory
BLOCK_ROWS = 1024
#: text before each row, between cells, after each row and between rows; the
#: JSON layout is the one ``json.dumps(indent=2)`` gives a list of lists
#: stored under a top-level key
ROW_LAYOUT = {"csv": ("", ",", "\n", ""),
              "json": ("\n    [\n      ", ",\n      ", "\n    ]", ",")}


def _item(value):
    return value.item()


def _strict_json(payload) -> str:
    """Strict JSON: a non-finite meta value (no magnetic length at B = 0) is null."""
    meta = {key: None if isinstance(value, float) and not math.isfinite(value) else value
            for key, value in payload["meta"].items()}
    return json.dumps({**payload, "meta": meta}, indent=2, default=_item, allow_nan=False)


def _write_json(payload, stream):
    stream.write(_strict_json(payload) + "\n")


def _output(out):
    """The file named by --out, or stdout (left open)."""
    return open(out, "w") if out else contextlib.nullcontext(sys.stdout)


def _is_float_array(column) -> bool:
    return isinstance(column, np.ndarray) and column.dtype == np.float64


def _finite(column) -> bool:
    if _is_float_array(column):
        return bool(np.isfinite(column).all())
    return not any(isinstance(v, float) and not math.isfinite(v) for v in column)


def _cells(column, fmt):
    """Each value's text: what ``_fmt`` (CSV) or the ``json`` encoder writes for it."""
    if _is_float_array(column):
        return list(map(_csv_float if fmt == "csv" else float.__repr__,
                        column.tolist()))
    if fmt == "csv":
        return [_fmt(v) for v in column]
    return [json.dumps(v, default=_item, allow_nan=False) for v in column]


def _emit(meta, table, fmt, out):
    """Write ``table`` ({column name: one value per row}) as CSV or JSON.

    Every column is checked for non-finite values before the output opens;
    rows are then formatted and written ``BLOCK_ROWS`` at a time.
    """
    bad = [name for name, column in table.items() if not _finite(column)]
    if bad:
        raise ValueError(f"non-finite output values in {', '.join(bad)}: double-precision "
                         "overflow at large l or p, or at an extreme --B, --m-kev, "
                         "--k-over-m or --rmax")
    columns = list(table.values())
    before, between, after, row_sep = ROW_LAYOUT[fmt]
    with _output(out) as stream:
        if fmt == "csv":
            stream.writelines(f"# {key} = {_fmt(value)}\n" for key, value in meta.items())
            stream.write(",".join(table) + "\n")
        else:
            # the head ends in '"rows": []\n}'; the rows go inside that bracket
            head = _strict_json({"meta": meta, "columns": list(table), "rows": []})
            stream.write(head[:-len("]\n}")])
        for start in range(0, len(columns[0]), BLOCK_ROWS):
            block = zip(*(_cells(c[start:start + BLOCK_ROWS], fmt) for c in columns))
            stream.write((row_sep if start else "")
                         + row_sep.join(before + between.join(row) + after for row in block))
        if fmt == "json":
            stream.write("\n  ]\n}\n")


def _beam(args) -> BeamParameters:
    return BeamParameters(beB=beb_over_m2(args.B, args.m_kev), m=1.0, k=args.k_over_m)


def _common_meta(args, bp, qn=None):
    meta = {
        "tool": "diracvortex",
        "version": __version__,
        "B_tesla": args.B,
        "m_kev": args.m_kev,
        "k_over_m": args.k_over_m,
        "beB_over_m2": bp.beB,
        "unit_radius_nm": magnetic_length_m(args.B) * 1e9,
        "units": "natural units, m = 1; radii rescaled by sqrt(beB/2)",
    }
    if qn is not None:
        spin, l_signed = _label(qn)
        meta.update({"spin": spin, "l_signed": l_signed, "p": qn.p,
                     "energy_over_m": energy(qn, bp).total})
    return meta


def run_profile(args) -> int:
    qn = quantum_numbers_from_signed(args.l, args.p, args.spin)
    bp = _beam(args)
    r = np.linspace(0.0, args.rmax, args.samples)
    prof = obs.radial_profile(qn, bp, r, normalized=args.normalized,
                              physical_dr=args.physical_dr)
    meta = _common_meta(args, bp, qn)
    meta["normalized"] = args.normalized
    meta["current_element"] = "dz x dr" if args.physical_dr else "dz x dr_rescaled"
    table = {"r": r, "j0": prof.j0, "jz": prof.jz, "jphi": prof.jphi, "s_phi": prof.s_phi}
    _emit(meta, table, args.format, args.out)
    return 0


def run_figure(args) -> int:
    bp = _beam(args)
    r = np.linspace(0.0, args.rmax, args.samples)
    table = {"r": r}
    meta = _common_meta(args, bp)
    meta["normalized"] = args.normalized
    for label, l_signed, p in FIGURE_CASES:
        for spin in ("up", "down"):
            qn = quantum_numbers_from_signed(l_signed, p, spin)
            # keep jphi alone: the panel's other columns go before the next one is built
            table[f"jphi_{label}_{spin}"] = obs.radial_profile(
                qn, bp, r, normalized=args.normalized).jphi
            radii = obs.sign_change_radii(qn) if bp.beB > 0 else []
            meta[f"sign_change_radii_{label}_{spin}"] = " ".join(
                map(_csv_float, radii)) or "none"
    _emit(meta, table, args.format, args.out)
    return 0


def run_spectrum(args) -> int:
    bp = _beam(args)
    columns = ("spin", "l_signed", "p", "jz_canonical", "interaction_sq_over_beB",
               "energy_over_m", "partner")
    rows = []
    for qn in spectrum_table(args.max_levels):
        pq = qn.spin_orbit_partner()
        partner = "none" if pq is None else "{}:{}:{}".format(*_label(pq), pq.p)
        rows.append((*_label(qn), qn.p, qn.canonical_jz, 2 * qn.interaction_index,
                     energy(qn, bp).total, partner))
    _emit(_common_meta(args, bp), dict(zip(columns, zip(*rows))), args.format, args.out)
    return 0


def run_table(args) -> int:
    qn = quantum_numbers_from_signed(args.l, args.p, args.spin)
    bp = _beam(args)
    rho = obs.reduced_spin_state(qn, bp)
    spin, l_signed = _label(qn)
    row = {"spin": spin, "l_signed": l_signed, "p": qn.p,
           "energy_over_m": energy(qn, bp).total,
           "int_j0": obs.integrated_density(qn, bp), "int_jz": obs.integrated_jz(qn, bp),
           "jz_canonical": qn.canonical_jz, "jz_gauge": obs.gauge_covariant_jz(qn, bp),
           "jz_gauge_dropped": obs.gauge_covariant_jz(qn, bp, drop_spin_orbit=True),
           "mz_per_abs_e": obs.magnetic_moment(qn, bp) if bp.beB > 0 else 0.0,
           "prob_up": rho.prob_up, "prob_down": rho.prob_down}
    if args.check:
        for name, closed, quad in obs.closed_and_quadrature(qn, bp):
            row[f"err_{name}"] = abs(closed - quad) / max(1.0, abs(closed))
    _emit(_common_meta(args, bp, qn), {name: [value] for name, value in row.items()},
          args.format, args.out)
    return 0


def run_verify(args) -> int:
    from . import verify as verify_mod
    checks = verify_mod.run_all(sabotage=args.sabotage)
    meta = {"tool": "diracvortex", "version": __version__,
            "sabotage": args.sabotage or "none"}
    if args.format == "csv":
        columns = ("name", "residual", "tolerance", "pass")
        rows = [(c.name, c.residual, c.tolerance, c.passed) for c in checks]
        _emit(meta, dict(zip(columns, zip(*rows))), "csv", args.out)
    else:
        with _output(args.out) as stream:
            _write_json({"meta": meta, "checks": [c.as_dict() for c in checks]}, stream)
    failed = [c for c in checks if not c.passed]
    for c in failed:
        print(f"FAIL {c.name}: residual {c.residual:.3e} > tolerance {c.tolerance:.1e}",
              file=sys.stderr)
    return 1 if failed else 0


def _add_state_args(sub):
    sub.add_argument("--l", type=int, default=0,
                     help="signed orbital angular momentum (negative = against the field)")
    sub.add_argument("--p", type=int, default=0, help="radial index (rings)")
    sub.add_argument("--spin", choices=("up", "down"), default="up")


def _add_grid_args(sub):
    sub.add_argument("--rmax", type=float, default=4.0)
    sub.add_argument("--samples", type=int, default=512)
    sub.add_argument("--normalized", action="store_true",
                     help="apply the unit-density normalisation squared")


def _add_common_args(sub):
    sub.add_argument("--B", type=float, default=1.0, help="magnetic field in Tesla")
    sub.add_argument("--k-over-m", dest="k_over_m", type=float, default=1.0,
                     help="longitudinal momentum over mass")
    sub.add_argument("--m-kev", dest="m_kev", type=float, default=511.0,
                     help="mass energy in keV")
    sub.add_argument("--format", choices=("csv", "json"), default="csv")
    sub.add_argument("--out", default=None, help="output path (default stdout)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="diracvortex",
        description="Exact electron-vortex states in a magnetic field: "
                    "profiles, spectra, moments and a verification suite.")
    sub = parser.add_subparsers(dest="command", required=True)

    prof = sub.add_parser("profile", help="radial profile of j0, jz, jphi, S_phi")
    _add_state_args(prof)
    _add_common_args(prof)
    _add_grid_args(prof)
    prof.add_argument("--physical-dr", dest="physical_dr", action="store_true",
                      help="report currents per physical dz x dr")

    fig = sub.add_parser("figure", help="azimuthal-current data for the preset panels")
    _add_common_args(fig)
    _add_grid_args(fig)

    spect = sub.add_parser("spectrum", help="level table sorted by angular momentum")
    _add_common_args(spect)
    spect.add_argument("--max-levels", dest="max_levels", type=int, default=4)

    table = sub.add_parser("table", help="integrated observables for one state")
    _add_state_args(table)
    _add_common_args(table)
    table.add_argument("--check", action="store_true",
                       help="append quadrature cross-check errors")

    ver = sub.add_parser("verify", help="run the full identity suite")
    ver.add_argument("--format", choices=("csv", "json"), default="json")
    ver.add_argument("--out", default=None)
    ver.add_argument("--sabotage", choices=("energy",), default=None,
                     help="negative control: must make the suite fail")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {"profile": run_profile, "figure": run_figure,
                "spectrum": run_spectrum, "table": run_table,
                "verify": run_verify}
    # warnings (numpy's overflow ones) are held back: a command that fails prints
    # only its error line, one that succeeds shows them as it always did
    with warnings.catch_warnings(record=True) as caught:
        try:
            _validate(args)
            code = handlers[args.command](args)
        except (ValueError, ArithmeticError, OSError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
    for w in caught:
        warnings.showwarning(w.message, w.category, w.filename, w.lineno, w.file, w.line)
    return code


def _validate(args):
    """The radial-grid rules of ``profile`` and ``figure``: --rmax finite and > 0,
    --samples in 2..MAX_SAMPLES. The library checks every other input: it
    rejects a negative p or --B, a --max-levels below 1, and a non-finite --B
    ("beB / m^2 is not finite"), --k-over-m ("k must be finite") or --m-kev
    ("mass energy must be finite")."""
    if not hasattr(args, "rmax"):
        return
    if not 0.0 < args.rmax < math.inf:
        raise ValueError("rmax must be finite and > 0")
    if args.samples < 2:
        raise ValueError("samples must be >= 2")
    if args.samples > MAX_SAMPLES:
        raise ValueError(f"samples must be <= {MAX_SAMPLES}")


if __name__ == "__main__":
    sys.exit(main())
