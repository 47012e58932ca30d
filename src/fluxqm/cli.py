"""Batch front end: parameter scans over every solver, emitted as CSV or JSON.

Usage:
    fluxqm <command> [--config FILE] [--set key=value]... --out PATH
           [--format csv|json] [--jobs N]

Run configurations are flat, typed key=value assignments; ``--set`` pairs
override the config file.  A model key's name, type and default come from
its record's field (``ModelParams``, ``DiracParams``); one table,
``_MODEL_DEFAULTS``, holds the defaults the records leave open.  A scan is
declared with the four keys ``scan_param``, ``scan_min``, ``scan_max``,
``scan_steps`` and produces one output row per grid point, the points of
``numpy.linspace`` computed in plain floats.  The run parses its parameters
once.  A row is evaluated from its point's model and derives from it what
depends on it (the ``dirac-scan`` cutoff ``j_max`` is N by default).  On a
closed-form scan of a model field, that model is the parsed one with the
field set to the scan value and checked alone (``core._field_binder``); any
other axis, and every row that diagonalises, parses its point anew.  The
command's parse types the axis: a key it reads as an integer is an integer
axis, whose grid is rounded to the nearest integers and written as integers.
Rows that only evaluate closed forms run in the main process whatever
``--jobs`` says; only rows that diagonalise (``tbjj``, ``oracle-check``,
``nonlinear`` with ``n_levels > 0``) are dispatched to a process pool of at
most one worker per row, whose module is imported only then.  The layers
import numpy and scipy inside the functions that use them, so ``spectrum``,
``spin-phase``, ``dirac-scan`` and ``nonlinear`` without levels never load
numpy; ``phase-scan`` loads it for its enumeration table and the
diagonalising rows for their eigensolves.  A point's row is its cells in
column order, a level family as a run of cells.  The run puts the scan value
first, unless the axis is one of the command's columns, and ``status`` last;
both writers write those cells as given, in scan order with shortest round-trip
float formatting, so output files are byte-identical for any worker count.
Exit code 2, before any row runs and with no file written, is a UsageError
(text a parse cannot read, unknown or missing keys, the scan declaration with
its non-finite bounds, the flags, a missing output directory), a value that
no point can use, or a scan whose points would write different columns (a
scan of ``n_levels``).  A value's range, finiteness included, is checked only
by the layer that takes it, so a non-finite command key exits 2 with that
layer's message naming the key.  Any other failure flags only its own row and
the run ends with exit code 1, as it does when an ``oracle-check`` row fails.

Commands: spectrum, phase-scan, spin-phase, dirac-scan, nonlinear, tbjj,
oracle-check.  ``oracle-check`` runs a fixed suite of cases and takes no scan.
"""

from __future__ import annotations

import argparse
import csv
import importlib
import json
import math
import os
import sys
from dataclasses import MISSING, dataclass, field, fields, replace
from functools import partial
from typing import Callable, NamedTuple, Optional

from . import diracring, gridsolve, kerr, linearmode, oracle, phases, spinorbit, tbring
from .core import FermionConfig, ModelParams, _check_int, _field_binder, _finite, _non_negative

SCHEMA_VERSION = 1

__all__ = ["RunConfig", "UsageError", "run", "main"]


class UsageError(ValueError):
    """Configuration or command-line problem; maps to exit code 2."""


_REQUIRED = object()  # the default of a ParamSet getter whose key must be present

# the value of an absent model key whose field has no default in some record; any other field's is its record's
_MODEL_DEFAULTS = {"g": 1.0, "g_eff": 1.0, "phi": 0.0, "eps0": 1.0, "hbar_omega": 1.0}


# ---------------------------------------------------------------------------
# configuration parsing


class ParamSet:
    """Typed access to a flat parameter mapping of user text and at most one scan value.

    A key is required exactly when its getter is given no default.  ``model`` reads the keys of a model
    record from its fields.  Tracks which keys were consumed so unknown (likely misspelled) keys can be
    rejected, and which were read as integers, which makes a scanned key an integer axis; text it cannot
    read, and missing or unknown keys, raise UsageError.  Ranges, finiteness included, are checked by the
    layer that takes the value.
    """

    def __init__(self, raw: dict):
        self.raw = raw
        self.used: set = set()
        self.ints: set = set()

    def _read(self, key, default, convert, kind):
        """``convert`` of the key's value, or ``default`` when the key is absent and not required."""
        self.used.add(key)
        if key not in self.raw:
            if default is _REQUIRED:
                raise UsageError(f"missing required parameter '{key}'")
            return default
        try:
            return convert(self.raw[key])
        except ValueError:
            raise UsageError(f"parameter '{key}' must be {kind}, got {str(self.raw[key])!r}") from None

    def float(self, key, default=_REQUIRED):
        return self._read(key, default, float, "a number")

    def int(self, key, default=_REQUIRED):
        self.ints.add(key)
        # a point of a float grid: integer axes take the nearest integer
        return self._read(key, default, lambda v: round(v) if isinstance(v, float) else int(v), "an integer")

    def str(self, key, default=_REQUIRED):
        return self._read(key, default, str, "text")

    def int_list(self, key, default=_REQUIRED):
        return self._read(key, default, lambda v: tuple(int(tok) for tok in str(v).replace(" ", "").split(",") if tok),
                          "a comma-separated integer list")

    def model(self, cls, **given):
        """``cls(**given)`` with each other field of the record read in field order, an ``int`` field as an
        integer and any other as a number; its default is ``_MODEL_DEFAULTS``', else the record's, else none."""
        for f in fields(cls):
            if f.name not in given:
                default = _MODEL_DEFAULTS.get(f.name, f.default)
                read = self.int if f.type == "int" else self.float
                given[f.name] = read(f.name, _REQUIRED if default is MISSING else default)
        return cls(**given)

    def finish(self):
        unknown = set(self.raw) - self.used
        if unknown:
            raise UsageError(f"unknown parameter(s): {', '.join(sorted(unknown))}")


def parse_config_file(path: str) -> dict:
    """Flat ``key = value`` assignments; blank lines and # comments ignored."""
    params = {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, 1):
                stripped = line.strip()
                if not stripped or stripped.startswith("#"):
                    continue
                if "=" not in stripped:
                    raise UsageError(f"{path}:{lineno}: expected 'key = value', got {stripped!r}")
                key, _, value = stripped.partition("=")
                params[key.strip()] = value.strip()
    except OSError as exc:
        raise UsageError(f"cannot read config file {path}: {exc}") from None
    return params


@dataclass(frozen=True)
class RunConfig:
    """A validated run: command, parameters, optional scan axis, output target."""

    command: str
    params: dict
    scan_param: Optional[str]
    scan_values: tuple
    out: str
    format: str
    jobs: Optional[int]


# ---------------------------------------------------------------------------
# command implementations


def _level_columns(prefix, description, n_levels):
    """Columns ``{prefix}{k}`` of a level family, k < n_levels, described by ``description.format(k=k)``."""
    return [(f"{prefix}{k}", description.format(k=k)) for k in range(n_levels)]


class _Point(NamedTuple):
    """One parsed point of a command: what its row writes, and how the run treats it."""

    columns: tuple  # (name, description) pairs, level families included
    row: Callable[[object], tuple]  # the cells of the point of model p, one per column in column order
    p: object = None  # the model a row is evaluated from, a scanned field is bound into and the summary reads
    imports: tuple = ()  # modules a row imports to diagonalise; only such rows use the worker pool


def _spectrum(ps):
    orbitals = ps.int_list("orbitals")
    spins = ps.int_list("spins", None)
    n_levels = ps.int("n_levels", 6)
    # eta is read only where rows can carry spins
    p = ps.model(ModelParams, n_particles=len(orbitals), **({"eta": 0.0} if spins is None else {}))
    ps.finish()
    _check_int(n_levels, "n_levels", lo=1)
    cfg = FermionConfig(orbitals, spins)
    columns = (
        ("omega_dressed", "dressed cavity quantum hbar*Omega, units of E0"),
        ("chi", "induced collective coupling"),
        ("squeeze_r", "squeeze parameter of the cavity ground state"),
        ("var_x", "ground-state variance of x = (a+a^dag)/sqrt(2)"),
        *_level_columns("e", "sector level {k} (photon index {k})", n_levels),
    )
    return _Point(columns, lambda p: (
        linearmode.dressed_frequency(p),
        linearmode.induced_coupling(p),
        linearmode.squeeze_parameter(p),
        linearmode.quadrature_variances(p)[0],
        *(linearmode.sector_energy(p, cfg, k) for k in range(n_levels)),
    ), p)


_PHASE_COLUMNS = (
    ("m_total", "total angular momentum of the ground sector"),
    ("w_kinetic", "kinetic weight sum(m_i^2) of the ground sector"),
    ("energy", "ground-sector energy at photon index 0"),
    ("displacement_a", "coherent cavity amplitude <a>"),
    ("photon_number", "displaced-vacuum photon number |<a>|^2"),
    ("phase", "balanced or polarized"),
    ("boundary_contact", "true when the optimum touches the orbital cutoff m_max"),
    ("orbitals", "occupied orbitals of the ground sector, |-separated"),
)


def _phase_scan(ps):
    n = ps.int("n_particles")
    m_max = ps.int("m_max", 8)
    p = ps.model(ModelParams, n_particles=n, eta=0.0)
    ps.finish()
    phases._check_window(n, m_max)  # the search checks each point's own window first

    def row(p):
        gs = phases.ground_state_search(p, m_max)
        return (gs.order_m, gs.config.w_kinetic, gs.energy, gs.displacement_a, gs.photon_number, gs.phase_label,
                gs.boundary_contact, "|".join(str(m) for m in gs.config.orbitals))
    return _Point(_PHASE_COLUMNS, row, p)


_SPIN_COLUMNS = (
    ("determinant", "determinant of the (M, S) stability Hessian, S = Sigma/2"),
    ("eig_low", "smallest Hessian eigenvalue"),
    ("eig_high", "largest Hessian eigenvalue"),
    ("stable", "true while the balanced state is a local minimum"),
    ("soft_m", "M component of the unit soft-mode vector"),
    ("soft_sigma", "S component of the unit soft-mode vector"),
    ("locking_ratio", "closed-form M/S ratio of the soft mode"),
)


def _spin_phase(ps):
    p = ps.model(ModelParams, n_particles=ps.int("n_particles"))
    ps.finish()

    def row(p):
        rep = spinorbit.hessian(p)
        low, high = rep.eigenvalues
        return (rep.determinant, low, high, low > 0, *rep.soft_vector, spinorbit.locking_ratio(p))
    return _Point(_SPIN_COLUMNS, row, p)


_DIRAC_COLUMNS = (
    ("chi", "induced chirality coupling"),
    ("chi_crit", "branch stiffness eps0 / (4 g_d)"),
    ("j_opt", "imbalance minimizing the effective energy"),
    ("energy", "effective energy at j_opt"),
    ("displacement_a", "coherent cavity amplitude <a> at j_opt"),
    ("photon_number", "displaced-vacuum photon number at j_opt"),
    ("phase", "balanced or polarized"),
)


def _dirac_scan(ps):
    p = ps.model(diracring.DiracParams)
    j_max = ps.int("j_max", None)
    ps.finish()
    diracring._check_j_max(j_max, p.n_electrons)

    def row(p):
        j = diracring._check_j_max(j_max, p.n_electrons)  # the point's own N is its default and its bound
        chi = diracring.induced_coupling_dirac(p)
        j_opt = diracring.optimal_chirality(p, chi, j)
        amp, photons = diracring.flux_displacement(j_opt, p)
        return (chi, p.branch_stiffness, j_opt, diracring.effective_energy(j_opt, p, chi), amp, photons,
                "balanced" if abs(j_opt) == p.n_electrons % 2 else "polarized")
    return _Point(_DIRAC_COLUMNS, row, p)


def _nonlinear(ps):
    n = ps.int("n_particles")
    m_total = ps.int("m_total", 0)
    alpha4 = ps.float("alpha4", 0.0)
    n_levels = ps.int("n_levels", 0)
    p = ps.model(ModelParams, n_particles=n, eta=0.0)
    ps.finish()
    _check_int(n_levels, "n_levels", 0, gridsolve._FOCK_MAX_LEVELS)  # 0: no anharmonic levels
    kerr.displacement_root(m_total, p, alpha4)  # a bad alpha4 fails every point
    columns = (
        ("m_total", "fermion-sector total angular momentum"),
        ("x0", "quadrature displacement of the sector minimum"),
        ("b_eff", "curvature coefficient of the displaced potential"),
        ("beta3", "residual cubic coefficient"),
        ("v_eff", "sector offset of the displaced potential"),
        ("omega_ratio", "curvature spacing Omega(M) over the bare quantum"),
        *_level_columns("eps", "anharmonic level {k} of the residual block", n_levels),
    )

    def row(p):
        sector = kerr.displacement_root(m_total, p, alpha4)
        cells = (sector.m_total, sector.x0, sector.b_eff, sector.beta3, sector.v_eff,
                 kerr.gaussian_frequency(sector) / p.hbar_omega)
        _finite(cells[-1], "omega_ratio")  # a subnormal hbar_omega overflows the ratio
        levels = kerr.anharmonic_spectrum(sector, n_levels=n_levels) if n_levels else ()
        return (*cells, *map(float, levels))
    return _Point(columns, row, p, ("numpy",) if n_levels else ())


def _tbjj(ps):
    m_sites = ps.int("m_sites")
    occupied = ps.int_list("occupied")
    t = ps.float("t", 1.0)
    eta = ps.float("eta", 1.0)
    hbar_omega = ps.float("hbar_omega", 1.0)
    n_levels = ps.int("n_levels", 5)
    solver = ps.str("solver", "fock")
    ps.finish()
    if solver not in ("fock", "both"):
        raise ValueError(f"solver must be 'fock' or 'both', got {solver!r}")
    _check_int(n_levels, "n_levels", 1, gridsolve._FOCK_MAX_LEVELS)
    sector = tbring.sector_constants(occupied, m_sites)
    squid = tbring.rf_squid_map(sector, t, eta, hbar_omega)
    both = solver == "both"
    columns = (
        ("c_sum", "occupied-momentum cosine sum C"),
        ("s_sum", "occupied-momentum sine sum S"),
        ("e_j_amp", "sqrt(C^2 + S^2)"),
        ("delta", "phase offset atan2(S, C), radians"),
        ("e_j", "junction energy 2 t sqrt(C^2+S^2)"),
        ("e_l", "inductive energy hbar_omega / eta^2"),
        ("e_c", "charging energy hbar_omega eta^2 / 8"),
        ("beta_ratio", "double-well parameter E_J / E_L"),
        *_level_columns("fock_e", "sector level {k}, Fock-basis solver", n_levels),
        *_level_columns("xrep_e", "sector level {k}, real-space solver (carries +hbar_omega/2)",
                        n_levels if both else 0),
    )
    return _Point(columns, lambda _: (  # no model: every key is parsed per point
        sector.c_sum, sector.s_sum, sector.e_j_amp, sector.delta, squid.e_j, squid.e_l, squid.e_c, squid.beta_ratio,
        *map(float, tbring.sector_spectrum_fock(sector, t, squid.eta, squid.hbar_omega, n_levels=n_levels)),
        *map(float, tbring.sector_spectrum_xrep(sector, t, squid.eta, squid.hbar_omega, n_levels=n_levels)
             if both else ()),
    ), imports=("numpy",))


# oracle-check: a fixed self-test suite comparing closed forms and brute force.
_ORACLE_SUITE = tuple(
    (orbitals, ratio, phi)
    for orbitals in ((0,), (2,), (0, 1), (-1, 0, 1), (0, 1, 2))
    for ratio in (0.5, 2.0)
    for phi in (0.0, 0.8)
)

_ORACLE_COLUMNS = (
    ("case", "index into the built-in comparison suite"),
    ("n_particles", "particle number of the checked sector"),
    ("g", "bare orbital scale"),
    ("g_eff", "effective orbital scale"),
    ("phi", "flux amplitude"),
    ("orbitals", "occupied orbitals, |-separated"),
    ("max_rel_error", "worst per-level relative deviation, closed form vs brute force"),
    ("passed", "true when max_rel_error <= tol and doubling the Fock cutoff moved no level by 1e-9 relative"),
)


def _oracle_check(ps):
    case = ps.int("case")
    tol = ps.float("tol", 1e-8)
    cutoff = ps.int("cutoff", 300)
    n_levels = ps.int("n_levels", 6)
    hbar_omega = ps.float("hbar_omega", 1.0)
    ps.finish()
    oracle._check_cutoff(cutoff, n_levels)
    _non_negative(tol, "tol")
    orbitals, ratio, phi = _ORACLE_SUITE[case]
    cfg = FermionConfig(orbitals)
    p = ModelParams(g=ratio, g_eff=1.0, phi=phi, n_particles=cfg.n_particles, hbar_omega=hbar_omega)

    def row(p):
        analytic = [linearmode.sector_energy(p, cfg, k) for k in range(n_levels)]
        report = oracle.oracle_spectrum(p, cfg, cutoff=cutoff, n_levels=n_levels)
        max_rel_error = oracle.compare_spectra(analytic, report.levels, scale=p.hbar_omega)
        return (case, cfg.n_particles, p.g, p.g_eff, p.phi, "|".join(str(m) for m in cfg.orbitals), max_rel_error,
                max_rel_error <= tol and report.converged)
    return _Point(_ORACLE_COLUMNS, row, p, ("scipy.linalg",))


def _scan_summary(cmd, p, scan_param, values, names, rows):
    """Bracket of the first change in the command's jump column between adjacent good rows, and the
    closed-form threshold of the scan axis, if the model has one (another axis would move it by point)."""
    summary = {}
    jump = names.index(cmd.jump_column)
    for (v0, r0), (v1, r1) in zip(zip(values, rows), zip(values[1:], rows[1:])):
        if r0[-1] != "ok" or r1[-1] != "ok":
            continue
        if r0[jump] != r1[jump]:
            summary["jump_column"] = cmd.jump_column
            summary[f"jump_{scan_param}_low"] = v0
            summary[f"jump_{scan_param}_high"] = v1
            break
    if scan_param in cmd.closed_forms:
        try:
            summary[f"{scan_param}_c_closed_form"] = cmd.closed_forms[scan_param](p)
        except ValueError:  # no transition (NoTransitionError), or a threshold that floats cannot hold
            pass
    return summary


@dataclass(frozen=True)
class _Command:
    parse: Callable  # ParamSet -> _Point
    jump_column: Optional[str] = None  # a scan's summary brackets the first change of this column
    closed_forms: dict = field(default_factory=dict)  # scan axis -> its closed-form threshold, of the point's p
    fixed_cases: tuple = ()  # a fixed suite of case indices replaces the scan


_COMMANDS = {
    "spectrum": _Command(_spectrum),
    "phase-scan": _Command(_phase_scan, "phase", {"phi": phases.critical_flux}),
    "spin-phase": _Command(_spin_phase, "stable",
                           {"eta": spinorbit.critical_eta, "phi": spinorbit.critical_flux_spin}),
    "dirac-scan": _Command(_dirac_scan, "phase", {"phi": diracring.critical_flux_dirac}),
    "nonlinear": _Command(_nonlinear),
    "tbjj": _Command(_tbjj),
    "oracle-check": _Command(_oracle_check, fixed_cases=tuple(range(len(_ORACLE_SUITE)))),
}


# ---------------------------------------------------------------------------
# scan driver


def _point(params, key, value):
    """The parameters of one point: the base ones with the scanned key, or the suite case, set to its value."""
    return ParamSet(params if key is None else {**params, key: value})


def _parsed_point(command, params, key, value):
    """The row and model of a point parsed anew."""
    point = _COMMANDS[command].parse(_point(params, key, value))
    return point.row, point.p


def _eval_point(point_of, value):
    """Row evaluation, in the main process or a worker: the cells and status of the point whose row and model
    ``point_of(value)`` gives, no cells on failure."""
    try:
        row, p = point_of(value)
        return row(p), "ok"
    except Exception as exc:
        return None, f"error: {type(exc).__name__}: {exc}"


def _format_cell(value):
    """A cell's CSV text, and the one definition of it; csv writes every cell but a bool so by itself."""
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _write_csv(fh, config, columns, rows, summary):
    fh.write("# fluxqm output\n")
    fh.write(f"# schema_version = {SCHEMA_VERSION}\n")
    fh.write(f"# command = {config.command}\n")
    for key in sorted(config.params):
        fh.write(f"# param {key} = {config.params[key]}\n")
    if config.scan_param is not None:
        fh.write(
            f"# scan {config.scan_param}: {_format_cell(config.scan_values[0])}"
            f" .. {_format_cell(config.scan_values[-1])}, {len(config.scan_values)} points\n"
        )
    for name, desc in columns:
        fh.write(f"# column {name}: {desc}\n")
    writer = csv.writer(fh, lineterminator="\n")
    writer.writerow([name for name, _ in columns])
    # csv writes None as "", a float by repr and any other cell by str, as _format_cell does: only a bool differs
    writer.writerows(row if bool not in map(type, row) else map(_format_cell, row) for row in rows)
    for key in summary:
        fh.write(f"# summary {key} = {_format_cell(summary[key])}\n")


def _text_non_finite(values: dict):
    """Replace NaN and infinite floats in place by their CSV text, since RFC 8259 JSON has neither."""
    for key, value in values.items():
        if isinstance(value, float) and not math.isfinite(value):
            values[key] = repr(value)


# a list of flat rows, each an object whose cells are indented as at depth 2 of an indent=2 dump; indent=None
# keeps the C encoder, which also puts that separator between the rows, where the dump breaks its lines
_encode_rows = json.JSONEncoder(separators=(",\n      ", ": "), allow_nan=False).encode
_ROW_BREAK = "},\n      {"  # only between rows: an encoded string escapes its newlines
_INDENTED_ROW_BREAK = "\n    },\n    {\n      "
_JSON_BATCH = 256  # rows per encoder call: few enough to stream, enough that the loop costs little


def _write_json(fh, config, columns, rows, summary):
    """Write ``json.dump({"meta": ..., "rows": rows}, indent=2)`` byte for byte, streaming the rows.

    Each row holds one cell per column.  The rows are encoded _JSON_BATCH at a time, as one list of the objects
    of their named cells, and each batch is written at once, so no more than one batch is held as text.
    """
    _text_non_finite(summary)
    meta = {
        "schema_version": SCHEMA_VERSION,
        "command": config.command,
        "params": {key: config.params[key] for key in sorted(config.params)},
        "scan": None
        if config.scan_param is None
        else {
            "param": config.scan_param,
            "min": config.scan_values[0],
            "max": config.scan_values[-1],
            "steps": len(config.scan_values),
        },
        "columns": [{"name": name, "description": desc} for name, desc in columns],
        "summary": summary,
    }
    fh.write(json.dumps({"meta": meta}, indent=2, allow_nan=False)[:-2])  # drop the closing "\n}"
    fh.write(',\n  "rows": [')
    separator = "\n    {\n      "
    names = [name for name, _ in columns]
    for start in range(0, len(rows), _JSON_BATCH):
        batch = [dict(zip(names, row)) for row in rows[start:start + _JSON_BATCH]]
        try:
            body = _encode_rows(batch)
        except ValueError:  # a non-finite float; rows almost never hold one, so they are scanned only then
            for cells in batch:
                _text_non_finite(cells)
            body = _encode_rows(batch)
        fh.write(separator + body[2:-2].replace(_ROW_BREAK, _INDENTED_ROW_BREAK) + "\n    }")
        separator = ",\n    {\n      "
    fh.write("\n  ]\n}\n" if rows else "]\n}\n")


def _finite_bound(scan: ParamSet, key):
    """A scan bound; no layer reads it, so it is refused here unless finite."""
    value = scan.float(key)
    if not math.isfinite(value):
        raise UsageError(f"parameter '{key}' must be finite, got {scan.raw[key]!r}")
    return value


def _scan_grid(lo, hi, steps):
    """``numpy.linspace(lo, hi, steps)`` as a tuple of floats, computed as numpy computes it.

    ``lo <= hi`` with a finite span.  The points are ``i * step + lo``, or, when
    the step underflows to zero, ``(i / (steps - 1)) * span + lo``; the last is ``hi``.
    """
    span, div = hi - lo, steps - 1
    if div == 0:
        return (0.0 * span + lo,)  # as numpy adds it: -0.0 becomes 0.0
    step = span / div
    points = [(i / div) * span + lo if step == 0 else i * step + lo for i in range(steps)]
    points[-1] = hi
    return tuple(points)


def build_run_config(command, params, out, fmt, jobs) -> RunConfig:
    """Validate the scan axis, jobs and output directory; argparse has checked ``command`` and ``fmt``."""
    params = dict(params)
    scan_param = params.pop("scan_param", None)
    scan_min = params.pop("scan_min", None)
    scan_max = params.pop("scan_max", None)
    scan_steps = params.pop("scan_steps", None)
    cmd = _COMMANDS[command]
    if cmd.fixed_cases and scan_param is not None:
        raise UsageError(f"command {command!r} runs a fixed suite and does not accept a scan")
    if cmd.fixed_cases and "case" in params:
        raise UsageError(f"command {command!r} runs every case of its suite; 'case' cannot be set")
    if scan_param is None:
        if any(v is not None for v in (scan_min, scan_max, scan_steps)):
            raise UsageError("scan_min/scan_max/scan_steps require scan_param")
        values = ()
    else:
        if scan_min is None or scan_max is None or scan_steps is None:
            raise UsageError("a scan needs all of scan_param, scan_min, scan_max, scan_steps")
        scan = ParamSet({"scan_min": scan_min, "scan_max": scan_max, "scan_steps": scan_steps})
        lo, hi = (_finite_bound(scan, key) for key in ("scan_min", "scan_max"))
        steps = scan.int("scan_steps")
        if steps < 1:
            raise UsageError(f"scan_steps must be >= 1, got {steps}")
        if lo > hi:
            raise UsageError(f"scan_min must not exceed scan_max, got {lo} > {hi}")
        if not math.isfinite(hi - lo):
            raise UsageError(f"scan_max - scan_min must be finite, got {hi} - {lo}")
        values = _scan_grid(lo, hi, steps)
    if jobs is not None and jobs < 1:
        raise UsageError(f"jobs must be >= 1, got {jobs}")
    if not os.path.isdir(os.path.dirname(out) or "."):
        raise UsageError(f"output directory of {out!r} does not exist")
    return RunConfig(command=command, params=params, scan_param=scan_param,
                     scan_values=values, out=out, format=fmt, jobs=jobs)


def _first_parse(cmd: _Command, params, key, values):
    """The ParamSet and _Point of the first point that parses; when none does, its first error as a UsageError."""
    first_error = None
    for value in values:
        ps = _point(params, key, value)
        try:
            return ps, cmd.parse(ps)
        except UsageError:
            raise
        except Exception as exc:
            first_error = first_error or exc
    raise UsageError(str(first_error)) from first_error


def run(config: RunConfig) -> int:
    """Execute the scan and write the output file.  Returns the exit code."""
    cmd = _COMMANDS[config.command]
    # a point is its scan value, its suite case, or the single point of a run without a scan
    key, values = ("case", cmd.fixed_cases) if cmd.fixed_cases else (config.scan_param, config.scan_values or (None,))
    # validate the configuration before spawning any workers
    ps, first = _first_parse(cmd, config.params, key, values)
    if config.scan_param in ps.ints:
        # the parse reads the scanned key as an integer, so the grid is rounded and written as integers
        config = replace(config, scan_values=tuple(round(v) for v in config.scan_values))
        values = config.scan_values
    # every row is written under the first point's columns; the only scannable key that shapes them,
    # n_levels, adds columns as it grows, so the first and last points that parse bound them all
    if len(values) > 1 and first.columns != _first_parse(cmd, config.params, key, values[::-1])[1].columns:
        raise UsageError(f"scanning '{key}' changes the output columns; run each value on its own")
    names = [name for name, _ in first.columns]
    columns = [*first.columns, ("status", "ok, or the error that flagged this point")]
    # a flagged row writes only its scan value: in the axis column, or in a first column added for it
    axis = names.index(config.scan_param) if config.scan_param in names else None
    lead = config.scan_param is not None and axis is None
    if lead:
        columns.insert(0, (config.scan_param, f"scan value of {config.scan_param}"))

    # a closed-form scan of a model field binds each value into the parsed model, checking only that field
    bind = None if first.imports else _field_binder(first.p, key)
    point_of = (partial(_parsed_point, config.command, config.params, key) if bind is None
                else lambda value: (first.row, bind(value)))
    # a pool forks all its workers at once, so it never gets more than one per row
    jobs = min(config.jobs or os.cpu_count() or 1, len(values))
    # closed-form rows take microseconds: a pool would only add start-up and pickling
    if not first.imports or jobs == 1:
        rows = [_eval_point(point_of, value) for value in values]
    else:
        from concurrent.futures import ProcessPoolExecutor

        for module in first.imports:  # imported once before the fork, so the workers share them
            importlib.import_module(module)
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            rows = list(pool.map(partial(_eval_point, point_of), values, chunksize=max(1, len(values) // (4 * jobs))))

    for i, (value, (cells, status)) in enumerate(zip(values, rows)):
        if cells is None:
            cells = [None] * len(names)
            if axis is not None:
                cells[axis] = value
        elif len(cells) != len(names):  # a row of another length would put its cells under the wrong columns
            raise RuntimeError(f"{config.command} row has {len(cells)} cells for its {len(names)} columns")
        rows[i] = (value, *cells, status) if lead else (*cells, status)
    header = [name for name, _ in columns]
    passed = header.index("passed") if "passed" in header else None
    failed = any(row[-1] != "ok" or (passed is not None and row[passed] is False) for row in rows)

    summary = {}
    if cmd.jump_column is not None and config.scan_param is not None and len(rows) > 1:
        summary = _scan_summary(cmd, first.p, config.scan_param, config.scan_values, header, rows)

    with open(config.out, "w", encoding="utf-8", newline="") as fh:
        if config.format == "csv":
            _write_csv(fh, config, columns, rows, summary)
        else:
            _write_json(fh, config, columns, rows, summary)
    return 1 if failed else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="fluxqm",
        description="Parameter scans over exactly solvable flux-coupled ring models.",
    )
    parser.add_argument("command", choices=sorted(_COMMANDS))
    parser.add_argument("--config", help="flat key = value run configuration file")
    parser.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                        help="override one configuration key (repeatable)")
    parser.add_argument("--out", required=True, help="output file path")
    parser.add_argument("--format", choices=("csv", "json"), default="csv")
    parser.add_argument("--jobs", type=int, default=None,
                        help="worker processes for rows that diagonalise, at most one per row (default: "
                             "available parallelism); closed-form commands run in the main process")
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    try:
        params = parse_config_file(args.config) if args.config else {}
        for pair in args.set:
            if "=" not in pair:
                raise UsageError(f"--set expects KEY=VALUE, got {pair!r}")
            key, _, value = pair.partition("=")
            params[key.strip()] = value.strip()
        config = build_run_config(args.command, params, args.out, args.format, args.jobs)
        return run(config)
    except UsageError as exc:
        print(f"fluxqm: error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # unexpected hard failure: diagnostic, nonzero exit
        print(f"fluxqm: failed: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
