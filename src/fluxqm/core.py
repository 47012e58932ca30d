"""Parameter types and unit handling for flux-coupled ring models.

Everything downstream of this module works in dimensionless units: energies
are measured in a reference quantum E0 (by default the cavity quantum, so
``hbar_omega = 1``), and angular momenta are integer multiples of hbar.  The
only place SI quantities appear is in ``LCParams`` and ``derive_ring`` here,
which map a physical LC circuit and ring geometry onto the dimensionless couplings.
Their two SI constants, ``HBAR`` and ``ELECTRON_MASS``, are CODATA 2022
literals, written out here (equal to ``scipy.constants.hbar`` and ``m_e``,
which a test checks) so that importing the package does not load scipy.

Conventions used throughout the package:

* ``g``      bare orbital scale hbar^2 / (2 m0 R^2), in E0
* ``g_eff``  effective orbital scale hbar^2 / (2 m_eff R^2), in E0
* ``phi``    dimensionless flux-coupling amplitude (free input parameter;
             its relation to loop geometry is not modeled here)
* ``eta``    Zeeman coupling (g_s mu_B / 2) B_zpf, in E0: the cavity drive per
             unit of the total spin S = Sigma / 2 (spins +-1/2, in hbar), so a
             configuration with spin sum Sigma of its +-1 labels drives eta S
"""

from __future__ import annotations

import math
import operator
import sys
from dataclasses import dataclass
from typing import ClassVar, Optional

HBAR = 1.0545718176461565e-34  # J s, exact in the 2019 SI (h / 2 pi)
ELECTRON_MASS = 9.1093837139e-31  # kg, CODATA 2022

__all__ = [
    "LCParams",
    "ModelParams",
    "FermionConfig",
    "derive_ring",
]


def _finite(value: float, name: str) -> float:
    """``value``, raising ValueError naming ``name`` if it is NaN or infinite: the one finiteness check.

    It takes the value and its name as arguments, not a keyword, so a call builds no dict: the closed-form
    rows make several per point.
    """
    if math.isfinite(value):
        return value
    raise ValueError(f"{name} must be finite, got {value}")


def _square(x: float, name: str) -> float:
    """``x**2``, raising ValueError naming ``name``, the quantity it feeds, where float ``**`` overflows."""
    try:
        return x**2  # not x * x, which can differ in the last bit
    except OverflowError:  # where x * x would give inf
        raise ValueError(f"{name} must be finite, but {x}**2 overflows") from None


def _root_product(a: float, b: float) -> float:
    """``sqrt(a * b)`` for a, b >= 0, as ``sqrt(a) * sqrt(b)`` where the product is below the smallest normal float.

    A subnormal product has lost digits and one that underflows to 0 has lost
    them all; the two roots keep them.  A normal product keeps the one root.
    """
    product = a * b
    return math.sqrt(product) if product >= sys.float_info.min else math.sqrt(a) * math.sqrt(b)


def _check_int(value, name: str, lo: Optional[int] = None, hi: Optional[int] = None) -> int:
    """Return ``value`` as an int, raising ValueError naming ``name`` unless it is an integer in [lo, hi].

    An integer is anything ``operator.index`` accepts: Python and numpy integers
    pass, a float such as 2.0 does not.  A bound left as None is not checked.
    """
    try:
        n = operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {value!r}") from None
    if (lo is not None and n < lo) or (hi is not None and n > hi):
        bound = f"be >= {lo}" if hi is None else f"be <= {hi}" if lo is None else f"lie in [{lo}, {hi}]"
        raise ValueError(f"{name} must {bound}, got {n}")
    return n


def _positive(value: float, name: str) -> float:
    """``value``, raising ValueError naming ``name`` unless it is finite (by ``_finite``) and > 0."""
    if _finite(value, name) > 0:
        return value
    raise ValueError(f"{name} must be positive, got {value}")


def _non_negative(value: float, name: str) -> float:
    """``value``, raising ValueError naming ``name`` unless it is finite (by ``_finite``) and >= 0."""
    if _finite(value, name) >= 0:
        return value
    raise ValueError(f"{name} must be non-negative, got {value}")


def _count(value, name: str) -> int:
    """``value`` as an int, raising ValueError naming ``name`` unless it is an integer >= 1."""
    return _check_int(value, name, lo=1)


def _check_positive(**values: float) -> None:
    """``_positive`` of several keyword values, after ``_finite`` of each: the first not finite is named before
    the first not > 0."""
    for name, value in values.items():
        _finite(value, name)
    for name, value in values.items():
        _positive(value, name)


def _check_fields(p) -> None:
    """Check every field of model ``p`` by the rules of its class, in their order: its ``__post_init__``.

    ``_RULES`` holds (check, names) pairs.  ``check(value, name)`` of one field raises ValueError naming it,
    or returns the value to store (an integer field stores its int); no call builds a dict.  A rule of several
    fields checks each by ``_finite`` before any by ``check``, so a non-finite value is named before one out
    of range.  Its check must refuse a non-finite value itself, as ``_positive`` and ``_non_negative`` do,
    since ``_field_binder`` calls it alone.
    """
    fields = vars(p)  # a frozen model: stored past its __setattr__
    for check, names in p._RULES:
        if len(names) > 1:
            for name in names:
                _finite(fields[name], name)
        for name in names:
            fields[name] = check(fields[name], name)


def _field_binder(p, name):
    """A function from a value to model ``p`` with field ``name`` set to it; None unless ``name`` is a field of p.

    The value is checked by that field's rule alone, on it alone.  p's other fields were checked when p
    was built, so the message is the one the whole model would give, and no model is built or checked anew.
    """
    check = next((check for check, names in p._RULES if name in names), None)
    if check is None:
        return None
    cls, fields = type(p), vars(p)

    def bind(value):
        value = check(value, name)
        q = object.__new__(cls)
        vars(q).update(fields)
        vars(q)[name] = value
        return q
    return bind


@dataclass(frozen=True)
class LCParams:
    """A lumped LC resonator (all SI), stored as its inductance and capacitance.

    The properties ``omega`` (resonance frequency ``1/sqrt(LC)``),
    ``impedance`` (``sqrt(L/C)``), ``phi_zpf`` (``sqrt(hbar Z/2)``) and
    ``q_zpf`` (``sqrt(hbar/(2Z))``) follow from them, so
    ``phi_zpf * q_zpf == hbar / 2`` up to rounding.
    """

    inductance: float  # H
    capacitance: float  # F

    def __post_init__(self):
        _check_positive(inductance=self.inductance, capacitance=self.capacitance)

    @property
    def omega(self) -> float:  # rad/s
        return 1.0 / math.sqrt(self.inductance * self.capacitance)

    @property
    def impedance(self) -> float:  # ohm
        return math.sqrt(self.inductance / self.capacitance)

    @property
    def phi_zpf(self) -> float:  # Wb
        return math.sqrt(HBAR * self.impedance / 2.0)

    @property
    def q_zpf(self) -> float:  # C
        return math.sqrt(HBAR / (2.0 * self.impedance))


def derive_ring(radius: float, m_eff_ratio: float, energy_unit: float) -> tuple[float, float]:
    """Orbital energy scales of a ring of ``radius`` meters.

    ``m_eff_ratio`` is m_eff/m0 and ``energy_unit`` is the reference quantum
    E0 in joules.  Returns ``(g, g_eff)`` in units of E0, with
    ``g = hbar^2/(2 m0 R^2)`` and ``g_eff = g / m_eff_ratio``.  Each input
    must be finite and positive, and so must both results.
    """
    _check_positive(radius=radius, m_eff_ratio=m_eff_ratio, energy_unit=energy_unit)
    mass_radius2 = 2.0 * ELECTRON_MASS * _square(radius, "g")
    if mass_radius2 == 0.0:
        raise ValueError(f"g must be finite, but 2 m0 {radius}**2 underflows to 0")
    g = HBAR**2 / mass_radius2 / energy_unit
    g_eff = g / m_eff_ratio
    _check_positive(g=g, g_eff=g_eff)
    return g, g_eff


@dataclass(frozen=True)
class ModelParams:
    """Dimensionless couplings of the flux-coupled ring model.

    All energies are in units of E0.  ``eta`` is the Zeeman coupling of the
    electron spins to the zero-point field; it is zero for purely orbital
    problems.
    """

    g: float
    g_eff: float
    phi: float
    n_particles: int
    hbar_omega: float = 1.0
    eta: float = 0.0

    _RULES: ClassVar[tuple] = (  # each field's rule, as _check_fields applies them
        (_positive, ("g", "g_eff", "hbar_omega")),
        (_non_negative, ("phi",)),
        (_finite, ("eta",)),
        (_count, ("n_particles",)),
    )

    def __post_init__(self):
        _check_fields(self)


@dataclass(frozen=True)
class FermionConfig:
    """An occupation set of angular-momentum orbitals, optionally with spins.

    Pauli exclusion is a construction invariant: spinless configurations must
    have pairwise distinct orbitals, spinful ones pairwise distinct
    ``(orbital, spin)`` pairs.  Orbitals are stored sorted (spins reordered
    alongside) so equal configurations compare equal.  The total angular
    momentum ``m_total``, total spin ``sigma_total`` (0 without spins) and
    kinetic weight ``w_kinetic = sum(m_i^2)`` are exact integer properties.
    """

    orbitals: tuple[int, ...]
    spins: Optional[tuple[int, ...]] = None

    def __post_init__(self):
        orbs = tuple(_check_int(m, "orbital") for m in self.orbitals)
        if not orbs:
            raise ValueError("configuration must contain at least one particle")
        if self.spins is None:
            sps = (0,) * len(orbs)  # spin 0 stands in for "no spins" while sorting and checking Pauli
        else:
            sps = tuple(_check_int(s, "spin") for s in self.spins)
            if len(sps) != len(orbs):
                raise ValueError("spins must match orbitals in length")
            if any(s not in (-1, 1) for s in sps):
                raise ValueError(f"spins must be +1 or -1, got {sps}")
        pairs = sorted(zip(orbs, sps))
        object.__setattr__(self, "orbitals", tuple(m for m, _ in pairs))
        if self.spins is not None:
            object.__setattr__(self, "spins", tuple(s for _, s in pairs))
        if len(set(pairs)) != len(pairs):
            duplicate = f"orbitals in {self.orbitals}" if self.spins is None else f"(orbital, spin) in {pairs}"
            raise ValueError(f"Pauli exclusion violated: duplicate {duplicate}")

    @property
    def n_particles(self) -> int:
        return len(self.orbitals)

    @property
    def m_total(self) -> int:
        return sum(self.orbitals)

    @property
    def sigma_total(self) -> int:
        return sum(self.spins) if self.spins is not None else 0

    @property
    def w_kinetic(self) -> int:
        return sum(m * m for m in self.orbitals)
