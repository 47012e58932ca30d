"""Correctness checkers for the benchmark's CLI outputs.

Each checker recomputes the closed forms from the parameters the workload
generator drew, independently of the ``fluxqm`` package, and compares them
with the rows the CLI wrote.  Columns are read by name and unknown columns
are ignored, so added diagnostic columns do not break a checker.

A row fails when its status is not ``ok``, its ``passed`` column is false,
or the checker rejects one of its values.  A failed whole-scan check (the
reported jump bracket misses the closed-form critical point), an unreadable
file or a missing row fails every row of that invocation.
"""

from __future__ import annotations

import csv
import json
import math

ORACLE_SUITE_SIZE = 20  # fluxqm oracle-check: 5 orbital sets x 2 mass ratios x 2 fluxes
CLOSED_FORM_RTOL = 1e-9
DUAL_SOLVER_RTOL = 1e-6  # acceptance criterion 8: Fock vs real-space levels


class CheckError(ValueError):
    """A value in a row disagrees with its closed form."""


# ---------------------------------------------------------------------------
# closed forms


def phase_critical_flux(params) -> float:
    """phi_c = sqrt(g_eff hw / (4 g N (g - g_eff))) of the orbital transition."""
    g, g_eff, hw, n = params["g"], params["g_eff"], params["hbar_omega"], params["n_particles"]
    return math.sqrt(g_eff * hw / (4.0 * g * n * (g - g_eff)))


def spin_critical_eta(params) -> float:
    """eta_c = sqrt(g N hw) / 2 of the Zeeman-assisted instability at g_eff = g."""
    return 0.5 * math.sqrt(params["g"] * params["n_particles"] * params["hbar_omega"])


def dirac_critical_flux(params) -> float:
    """phi_c = sqrt(hw / (4 g_d eps0 - 2 D_eff)) of the Dirac-ring transition."""
    return math.sqrt(params["hbar_omega"] / (4.0 * params["degeneracy"] * params["eps0"] - 2.0 * params["d_eff"]))


# ---------------------------------------------------------------------------
# reading outputs


def read_output(path: str, fmt: str):
    """Rows (dicts keyed by column name) and the summary dict of one output file."""
    with open(path, "r", encoding="utf-8", newline="") as fh:
        if fmt == "json":
            doc = json.load(fh)
            return doc["rows"], doc["meta"].get("summary", {})
        summary = {}
        data = []
        for line in fh:
            if line.startswith("# summary "):
                key, _, value = line[len("# summary "):].partition(" = ")
                summary[key] = value.strip()
            elif not line.startswith("#"):
                data.append(line)
    reader = csv.DictReader(data)
    return list(reader), summary


def _flag(value) -> bool:
    if value in (True, "true"):
        return True
    if value in (False, "false"):
        return False
    raise CheckError(f"not a boolean: {value!r}")


def _close(name, got, want, rtol=CLOSED_FORM_RTOL, floor=1.0):
    got = float(got)
    if not abs(got - want) <= rtol * max(floor, abs(got), abs(want)):
        raise CheckError(f"{name} = {got!r}, closed form {want!r}")


def _bracket(summary, scan_param, critical):
    """The summary's jump bracket must contain the closed-form critical value."""
    try:
        low = float(summary[f"jump_{scan_param}_low"])
        high = float(summary[f"jump_{scan_param}_high"])
    except KeyError:
        raise CheckError("no jump reported in the summary") from None
    if not low <= critical <= high:
        raise CheckError(f"jump bracket [{low!r}, {high!r}] misses the closed form {critical!r}")


def _near(x, x_c):
    """Too close to a critical value for the phase label to be decided by rounding."""
    return abs(x - x_c) <= CLOSED_FORM_RTOL * abs(x_c)


# ---------------------------------------------------------------------------
# per-command checkers: check(params, rows, summary) -> {row index: reason};
# a whole-scan failure raises CheckError


def _check_phase_scan(params, rows, summary):
    n, m_max = params["n_particles"], params["m_max"]
    g, g_eff, hw = params["g"], params["g_eff"], params["hbar_omega"]
    if n % 2 == 0:
        raise CheckError("the phase-scan checker needs an odd particle number")
    k = (n - 1) // 2
    w_bal = k * (k + 1) * (2 * k + 1) // 3
    edge = list(range(-m_max, -m_max + n))  # most boosted block; ties go to the negative one
    m_edge, w_edge = sum(edge), sum(m * m for m in edge)
    phi_c = phase_critical_flux(params)
    bad = {}
    for i, row in enumerate(rows):
        try:
            phi = float(row["phi"])
            beta = hw + 4.0 * g * n * phi * phi
            chi = 4.0 * g * g * phi * phi / beta
            omega = math.sqrt(hw * beta)

            def energy(w, m):
                return g_eff * w - chi * m * m + 0.5 * omega - 0.5 * hw

            orbitals = [int(tok) for tok in row["orbitals"].split("|")]
            m_total, w_kin = int(row["m_total"]), int(row["w_kinetic"])
            if (len(orbitals) != n or len(set(orbitals)) != n or max(map(abs, orbitals)) > m_max
                    or sum(orbitals) != m_total or sum(m * m for m in orbitals) != w_kin):
                raise CheckError(f"orbitals {row['orbitals']} inconsistent with M={m_total}, W={w_kin}")
            _close("energy", row["energy"], energy(w_kin, m_total))
            _close("energy", row["energy"], min(energy(w_bal, 0), energy(w_edge, m_edge)))
            a = 2.0 * g * phi * m_total / beta
            _close("displacement_a", row["displacement_a"], a)
            _close("photon_number", row["photon_number"], a * a)
            if not _near(phi, phi_c):
                want = "balanced" if phi < phi_c else "polarized"
                if row["phase"] != want:
                    raise CheckError(f"phase {row['phase']} at phi={phi!r}, phi_c={phi_c!r}")
        except (CheckError, KeyError, ValueError, TypeError) as exc:
            bad[i] = str(exc)
    _bracket(summary, "phi", phi_c)
    _close("phi_c_closed_form", summary.get("phi_c_closed_form", "nan"), phi_c)
    return bad


def _check_spin_phase(params, rows, summary):
    n, g, g_eff, hw, phi = (params[key] for key in ("n_particles", "g", "g_eff", "hbar_omega", "phi"))
    eta_c = spin_critical_eta(params)
    d_stiff = hw + 4.0 * g * n * phi * phi
    bad = {}
    for i, row in enumerate(rows):
        try:
            eta = float(row["eta"])
            a11 = 2.0 * g_eff / n - 8.0 * g * g * phi * phi / d_stiff
            a12 = -4.0 * g * phi * eta / d_stiff
            a22 = 0.5 * g_eff * n - 2.0 * eta * eta / d_stiff
            scale = max(1.0, abs(a11 * a22), a12 * a12)
            _close("determinant", row["determinant"], a11 * a22 - a12 * a12, floor=scale)
            mid, half = 0.5 * (a11 + a22), math.hypot(0.5 * (a11 - a22), a12)
            _close("eig_low", row["eig_low"], mid - half, floor=max(1.0, abs(mid)))
            _close("eig_high", row["eig_high"], mid + half, floor=max(1.0, abs(mid)))
            _close("soft vector norm", math.hypot(float(row["soft_m"]), float(row["soft_sigma"])), 1.0)
            den = g_eff * d_stiff / n - 4.0 * g * g * phi * phi
            _close("locking_ratio", row["locking_ratio"], 2.0 * g * phi * eta / den)
            if not _near(eta, eta_c) and _flag(row["stable"]) != (eta < eta_c):
                raise CheckError(f"stable={row['stable']} at eta={eta!r}, eta_c={eta_c!r}")
        except (CheckError, KeyError, ValueError, TypeError) as exc:
            bad[i] = str(exc)
    _bracket(summary, "eta", eta_c)
    return bad


def _check_dirac_scan(params, rows, summary):
    n, eps0, hw, d_eff = params["n_electrons"], params["eps0"], params["hbar_omega"], params["d_eff"]
    stiffness = eps0 / (4.0 * params["degeneracy"])
    phi_c = dirac_critical_flux(params)
    bad = {}
    for i, row in enumerate(rows):
        try:
            phi = float(row["phi"])
            chi = (eps0 * phi) ** 2 / (hw + 2.0 * d_eff * phi * phi)
            _close("chi", row["chi"], chi)
            _close("chi_crit", row["chi_crit"], stiffness)
            j = int(row["j_opt"])
            if not _near(phi, phi_c):
                # all electrons on one branch once polarized; ties go to the negative branch
                want = 0 if phi < phi_c else -n
                if j != want:
                    raise CheckError(f"j_opt={j} at phi={phi!r}, expected {want}")
            _close("energy", row["energy"], stiffness * n * n + (stiffness - chi) * j * j)
            amp = -eps0 * phi * j / (hw + 2.0 * phi * phi * d_eff)
            _close("displacement_a", row["displacement_a"], amp)
            _close("photon_number", row["photon_number"], amp * amp)
            if row["phase"] != ("balanced" if j == 0 else "polarized"):
                raise CheckError(f"phase {row['phase']} with j_opt={j}")
        except (CheckError, KeyError, ValueError, TypeError) as exc:
            bad[i] = str(exc)
    _bracket(summary, "phi", phi_c)
    _close("phi_c_closed_form", summary.get("phi_c_closed_form", "nan"), phi_c)
    return bad


def _levels(row, prefix, count):
    levels = [float(row[f"{prefix}{k}"]) for k in range(count)]
    if any(b < a for a, b in zip(levels, levels[1:])):
        raise CheckError(f"{prefix} levels not ascending: {levels}")
    return levels


def _check_tbjj(params, rows, summary):
    m_sites, t, hw, n_levels = params["m_sites"], params["t"], params["hbar_omega"], params["n_levels"]
    occupied = [int(tok) for tok in params["occupied"].split(",")]
    c_sum = math.fsum(math.cos(2.0 * math.pi * k / m_sites) for k in occupied)
    s_sum = math.fsum(math.sin(2.0 * math.pi * k / m_sites) for k in occupied)
    bad = {}
    for i, row in enumerate(rows):
        try:
            eta = float(row["eta"])
            _close("c_sum", row["c_sum"], c_sum)
            _close("s_sum", row["s_sum"], s_sum)
            e_j, e_l = 2.0 * t * math.hypot(c_sum, s_sum), hw / eta**2
            _close("e_j", row["e_j"], e_j)
            _close("e_l", row["e_l"], e_l)
            _close("e_c", row["e_c"], hw * eta**2 / 8.0)
            _close("beta_ratio", row["beta_ratio"], e_j / e_l)
            fock = _levels(row, "fock_e", n_levels)
            xrep = _levels(row, "xrep_e", n_levels)
            for k, (f, x) in enumerate(zip(fock, xrep)):
                _close(f"xrep_e{k} - hbar_omega/2", x - 0.5 * hw, f, rtol=DUAL_SOLVER_RTOL, floor=hw)
        except (CheckError, KeyError, ValueError, TypeError) as exc:
            bad[i] = str(exc)
    return bad


def _check_oracle_check(params, rows, summary):
    tol = params.get("tol", 1e-8)
    bad = {}
    for i, row in enumerate(rows):
        try:
            if int(row["case"]) != i:
                raise CheckError(f"case {row['case']} in row {i}")
            if not _flag(row["passed"]):
                raise CheckError("passed is false")
            if not float(row["max_rel_error"]) <= tol:
                raise CheckError(f"max_rel_error {row['max_rel_error']} above tol {tol}")
            if int(row["n_particles"]) != len(row["orbitals"].split("|")):
                raise CheckError("n_particles disagrees with orbitals")
        except (CheckError, KeyError, ValueError, TypeError) as exc:
            bad[i] = str(exc)
    return bad


def _check_nonlinear(params, rows, summary):
    n, g, phi, hw, alpha4 = (params[key] for key in ("n_particles", "g", "phi", "hbar_omega", "alpha4"))
    a_coef, b_coef, c_coef = 0.25 * hw, 0.25 * hw + g * phi * phi * n, 2.0 * g * phi
    n_levels = params["n_levels"]
    bad = {}
    levels_by_m = {}
    for i, row in enumerate(rows):
        try:
            m = int(row["m_total"])
            x0 = float(row["x0"])
            residual = 2.0 * b_coef * x0 + 4.0 * alpha4 * x0**3 - c_coef * m
            if not abs(residual) <= CLOSED_FORM_RTOL * max(1.0, abs(c_coef * m)):
                raise CheckError(f"x0={x0!r} misses the stationarity cubic by {residual!r}")
            b_eff = b_coef + 6.0 * alpha4 * x0 * x0
            _close("b_eff", row["b_eff"], b_eff)
            _close("beta3", row["beta3"], 4.0 * alpha4 * x0)
            _close("v_eff", row["v_eff"], b_coef * x0 * x0 - c_coef * m * x0 + alpha4 * x0**4)
            _close("omega_ratio", row["omega_ratio"], 4.0 * math.sqrt(a_coef * b_eff) / hw)
            levels_by_m[m] = (i, _levels(row, "eps", n_levels))
        except (CheckError, KeyError, ValueError, TypeError) as exc:
            bad[i] = str(exc)
    # the cubic term flips sign with M, so each level is even in M
    for m, (i, levels) in levels_by_m.items():
        if m <= 0:
            continue
        if -m not in levels_by_m:
            bad[i] = f"no row for M={-m} to check parity"
            continue
        j, mirror = levels_by_m[-m]
        for k, (e_plus, e_minus) in enumerate(zip(levels, mirror)):
            if not abs(e_plus - e_minus) <= CLOSED_FORM_RTOL * max(1.0, abs(e_plus)):
                reason = f"eps{k}(M={m}) = {e_plus!r} but eps{k}(M={-m}) = {e_minus!r}"
                bad.setdefault(i, reason)
                bad.setdefault(j, reason)
                break
    return bad


CHECKERS = {
    "phase-scan": _check_phase_scan,
    "spin-phase": _check_spin_phase,
    "dirac-scan": _check_dirac_scan,
    "tbjj": _check_tbjj,
    "oracle-check": _check_oracle_check,
    "nonlinear": _check_nonlinear,
}


def check_output(invocation, path):
    """(rows read, failed row count, first failure reasons) for one invocation's output file."""
    expected = invocation.expected_rows
    try:
        rows, summary = read_output(path, invocation.fmt)
    except (OSError, ValueError, KeyError) as exc:
        return 0, expected, [f"unreadable output {path}: {exc}"]
    try:
        bad = CHECKERS[invocation.command](invocation.params, rows, summary)
    except CheckError as exc:
        return len(rows), expected, [f"{invocation.command}: {exc}"]
    for i, row in enumerate(rows):
        if row.get("status") != "ok":
            bad.setdefault(i, f"status {row.get('status')!r}")
    reasons = [f"{invocation.command} row {i}: {bad[i]}" for i in sorted(bad)[:3]]
    missing = max(0, expected - len(rows))
    if missing:
        reasons.append(f"{invocation.command}: {missing} of {expected} rows missing")
    return len(rows), min(expected, len(bad) + missing), reasons
