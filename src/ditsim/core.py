"""Steady-state scattering of a dipole-coupled drop-filter cavity.

A single cavity mode is evanescently coupled to two parallel waveguides
(energy decay rate ``gamma`` into each) and to a two-level dipole with
coupling strength ``g``.  The cavity additionally leaks into free space at
rate ``kappa`` and the dipole relaxes into non-cavity modes at rate ``tau``.
A monochromatic probe entering one waveguide scatters into four channels:

    through      remains in the input waveguide
    drop         transfers to the second waveguide
    cavity loss  leaves via the kappa reservoir
    dipole loss  leaves via the tau reservoir

With the dipole far detuned or absent, critical coupling routes a resonant
probe entirely into the drop channel.  A resonant dipole with cooperativity
well above one pins the cavity dark and restores transmission instead:
dipole-induced transparency.  All formulas below linearize the dipole in the
weak-excitation limit, so the response per unit input amplitude is closed
form and the four outputs are coherent amplitudes.

Conventions: every rate and detuning is an angular rate in rad/s; values
quoted in THz convert by the plain factor ``THZ`` (1e12, no extra 2*pi).
The probe is given as a detuning ``delta_omega`` from the bare cavity line.
"""

from __future__ import annotations

import cmath
import math
import operator
from dataclasses import dataclass
from typing import NamedTuple, Union

import numpy as np

__all__ = [
    "THZ",
    "SystemParams",
    "ProbeDetuning",
    "ScatterCoefficients",
    "FluxBudget",
    "DiagnosticNumbers",
    "WeakExcitationReport",
    "NumericsError",
    "DegenerateDipole",
    "SingularDenominator",
    "SingularSystem",
    "UndefinedDiagnostic",
    "scatter_coefficients",
    "scattering_arrays",
    "steady_state_oracle",
    "flux_budget",
    "diagnostics",
    "weak_excitation_check",
]

THZ = 1.0e12  # rad/s per THz

# |denominator| below this is treated as numerically singular.  The physical
# denominator has real part >= gamma > 0, so this only guards corrupt input.
_DENOM_FLOOR = 1e-280
# Complex division divides by a real scale |D|^2 / max(|Re D|, |Im D|), which
# overflows only when a part of D reaches this
_HUGE = 2.0**1023
# a complex D whose parts lie within this has a finite |D|^2 <= 2**1023
_DENOM_BOUND = 2.0**511
_TINY, _VAST = 2.0**-250, 2.0**250  # the range that _powers_in_range admits
# how far from 1 the flux fractions of a node whose |sigma|^2 overflows may sum
_BUDGET_SLACK = 1e-12
_SHOWN_INDICES = 10  # grid indices an array-path error message lists


class NumericsError(Exception):
    """Base class for numerical-domain failures (degenerate or singular)."""


class DegenerateDipole(NumericsError):
    """Dipole linewidth is zero and the probe sits exactly on its line, or
    the linewidth is so small that the dipole-loss term overflows."""


class SingularDenominator(NumericsError):
    """Scattering denominator collapsed below the numerical floor, or too
    large for complex division by it to stay finite."""


class SingularSystem(NumericsError):
    """Steady-state linear system is singular within machine precision."""


class UndefinedDiagnostic(NumericsError):
    """A figure of merit is undefined for the given parameters."""


_FIELDS = ("gamma", "g", "tau", "kappa", "delta", "omega0")
# the lower bound of each bounded field: its comparison with 0 and that comparison's text
_BOUNDS = {"gamma": (operator.gt, ">"), "g": (operator.ge, ">="), "tau": (operator.ge, ">="),
           "kappa": (operator.ge, ">="), "omega0": (operator.ge, ">=")}


def _field_problem(name: str, value, check_range: bool = True) -> str | None:
    """Why ``value`` cannot be the :class:`SystemParams` field ``name``, or None.

    With ``check_range`` false only the type and finiteness are checked.
    """
    try:
        number = _finite(value, name)
    except ValueError:
        return f"{name} must be a finite number, got {value!r}"
    if check_range and name in _BOUNDS:
        test, text = _BOUNDS[name]
        if not test(number, 0.0):
            return f"{name} must be {text} 0, got {number}"
    return None


def _invalid_params(problems) -> str:
    """Message of the ``ValueError`` an invalid :class:`SystemParams` raises."""
    return "invalid SystemParams: " + "; ".join(problems)


def _field_ok(name: str, values: np.ndarray) -> np.ndarray:
    """Where the float64 ``values`` pass :func:`_field_problem` for ``name``."""
    ok = np.isfinite(values)
    return ok & _BOUNDS[name][0](values, 0.0) if name in _BOUNDS else ok


@dataclass(frozen=True)
class SystemParams:
    """Physical parameters of one cavity-waveguide-dipole node.

    Attributes
    ----------
    gamma : float
        Cavity energy decay rate into each waveguide, rad/s.  Must be > 0.
    g : float
        Dipole-cavity coupling rate, rad/s.  g = 0 models a bare drop filter.
    tau : float
        Dipole energy decay rate into non-cavity modes, rad/s.  tau = 0 is
        allowed, but scattering then diverges if the probe lands exactly on
        the dipole line while g > 0.
    kappa : float, optional
        Intrinsic cavity loss rate, rad/s.  Defaults to 0.1 * gamma.
    delta : float
        Dipole detuning from the cavity resonance, rad/s.
    omega0 : float
        Absolute cavity frequency, rad/s.  Only used for Q bookkeeping; all
        scattering works in the rotating frame of the probe.
    """

    gamma: float
    g: float
    tau: float
    kappa: float | None = None
    delta: float = 0.0
    omega0: float = 0.0

    def __post_init__(self):
        problems = {}
        for name in _FIELDS:
            value = getattr(self, name)
            if value is None and name == "kappa":
                if "gamma" in problems:
                    continue  # the default follows only from a valid gamma
                value = 0.1 * self.gamma
            problem = _field_problem(name, value)
            if problem:
                problems[name] = problem
            else:
                object.__setattr__(self, name, float(value))
        if problems:
            # range problems are reported only once every field is a finite number
            finite = [p for name, p in problems.items()
                      if _field_problem(name, getattr(self, name), check_range=False)]
            raise ValueError(_invalid_params(finite or problems.values()))

    @property
    def quality_factor(self) -> float | None:
        """omega0 / kappa, or None when either is zero."""
        if self.omega0 > 0.0 and self.kappa > 0.0:
            return self.omega0 / self.kappa
        return None


@dataclass(frozen=True)
class ProbeDetuning:
    """Probe frequency relative to the bare cavity line, rad/s."""

    delta_omega: float

    def __post_init__(self):
        object.__setattr__(self, "delta_omega", _finite(self.delta_omega, "delta_omega"))


Probe = Union[ProbeDetuning, float]


def _number(value, name: str, kind: type = float):
    """``kind(value)`` for ``kind`` float or complex, with ``ValueError`` naming
    ``name`` for strings (never parsed) and values that are not numbers of
    that kind (None, sequences, complex for float).  numpy's complex scalars
    subclass complex; float() would drop their imaginary part."""
    if not isinstance(value, (str, bytes, complex) if kind is float else (str, bytes)):
        try:
            return kind(value)
        except (TypeError, OverflowError):
            pass
    what = "real" if kind is float else "complex"
    raise ValueError(f"{name} must be a {what} number, got {value!r}")


def _finite(value, name: str, kind: type = float, nonnegative: bool = False):
    """:func:`_number`, with ``ValueError`` naming ``name`` also for a value
    that is not finite, or (with ``nonnegative``) that is below 0."""
    number = _number(value, name, kind)
    if cmath.isfinite(number) and not (nonnegative and number < 0.0):
        return number
    bound = " and >= 0" if nonnegative else ""
    raise ValueError(f"{name} must be finite{bound}, got {value!r}")


def _iterable(values, name: str):
    """``iter(values)``, with ``ValueError`` naming ``name`` where it cannot iterate."""
    try:
        return iter(values)
    except TypeError:
        raise ValueError(f"{name} must be a sequence of real numbers, got {values!r}") from None


def _probe_value(probe: Probe) -> float:
    if isinstance(probe, ProbeDetuning):
        return probe.delta_omega
    return _finite(probe, "probe detuning")


class ScatterCoefficients(NamedTuple):
    """Steady-state amplitudes per unit input amplitude in one waveguide.

    ``t_through`` and ``t_drop`` are the waveguide output amplitudes,
    ``b_amp`` the intracavity field and ``sigma_amp`` the dipole coherence.
    The waveguide coefficients are dimensionless; ``b_amp`` and ``sigma_amp``
    carry 1/sqrt(rad/s) so that kappa*|b_amp|^2 and tau*|sigma_amp|^2 are
    dimensionless loss fractions.  Each field is a complex number at one
    probe, or a complex array from :func:`scattering_arrays`.
    """

    t_through: complex | np.ndarray
    t_drop: complex | np.ndarray
    b_amp: complex | np.ndarray
    sigma_amp: complex | np.ndarray


def _amplitudes(
    gamma: float, g: float, tau: float, kappa: float, delta: float, dw: float
) -> tuple[complex, complex, complex]:
    """``(t_drop, b_amp, sigma_amp)`` of :func:`scatter_coefficients` on plain floats."""
    x = complex(-1j * (dw - delta) + 0.5 * tau)
    if g > 0.0 and x == 0.0:
        raise DegenerateDipole(
            "dipole term diverges: g > 0 with tau = 0 and probe exactly on the "
            f"dipole line (delta_omega = delta = {dw!r})"
        )
    coupling = g * g / x if g > 0.0 else 0.0j
    denom = -1j * dw + gamma + 0.5 * kappa + coupling
    big = max(abs(denom.real), abs(denom.imag))  # abs(denom) itself can overflow
    if not cmath.isfinite(denom) or (big < _DENOM_FLOOR and abs(denom) < _DENOM_FLOOR):
        raise SingularDenominator(f"scattering denominator collapsed: D = {denom!r}")
    if big >= _HUGE:  # the real scale that complex division divides by, as _ratio forms it
        small = min(abs(denom.real), abs(denom.imag))
        if not math.isfinite(big + small * (small / big)):
            raise SingularDenominator(f"scattering denominator out of range: D = {denom!r}")
    t_drop = -gamma / denom
    b_amp = -math.sqrt(gamma) / denom
    sigma_amp = -1j * g * b_amp / x if g > 0.0 else 0.0j
    return t_drop, b_amp, sigma_amp


def scatter_coefficients(params: SystemParams, probe: Probe) -> ScatterCoefficients:
    """Closed-form scattering amplitudes of the driven node.

    Writing dw for the probe detuning, the dipole response enters through
    X = -i(dw - delta) + tau/2 and the cavity denominator is

        D = -i dw + gamma + kappa/2 + g^2 / X.

    Then t_drop = -gamma / D and t_through = 1 + t_drop, so the two-port
    identity t_drop = t_through - 1 holds exactly by construction.

    Raises
    ------
    DegenerateDipole
        If g > 0, tau = 0 and the probe sits exactly on the dipole line.
    SingularDenominator
        If D falls below the numerical floor (unreachable for valid params),
        or is so large that dividing by it overflows (rates near 1e308).
    """
    t_drop, b_amp, sigma_amp = _amplitudes(
        params.gamma, params.g, params.tau, params.kappa, params.delta, _probe_value(probe)
    )
    return ScatterCoefficients(1.0 + t_drop, t_drop, b_amp, sigma_amp)


def _grid_indices(bad: np.ndarray) -> str:
    shown = bad[:_SHOWN_INDICES].tolist()
    more = f" and {bad.size - len(shown)} more" if bad.size > len(shown) else ""
    return f"grid indices {shown}{more}"


def _drop_arrays(params: SystemParams, dw: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(x, denom)`` over a 1-d detuning array, with the degenerate-dipole
    test applied.  The caller applies :func:`_guard_denominators`, forms
    t_drop = -gamma / denom, and silences floating-point warnings (the points
    that raise them are the ones the guard reports).

    X = -i(dw - delta) + tau/2 and D = -i dw + gamma + kappa/2 + g^2/X are
    built from their real and imaginary parts, with the bits numpy's complex
    expressions gave them, evaluated left to right:

    - numpy's -1j * r is (-0*r - (-1)*0, -0*0 + (-1)*r) = (+0, -r): the real
      part is +0 for every finite r, ±0 included, and nan for an infinite r.
      Adding tau/2 + 0j gives X = (tau/2 + 0.0, -(dw - delta) + 0.0), and
      that imaginary part equals (delta + 0.0) - dw, signed zeros included.
    - Where dw - delta overflows, the nan real part made g^2/X and D nan, so
      with g > 0 the guard's exact test flags those points as collapsed.  The
      guard fails there first: such a dw is at least 2^970 in size and Im D is
      -dw (c is a zero there) or nan.
    - With c = g^2/X (or 0), ((0 + gamma) + kappa/2) + Re c equals
      Re c + (gamma + kappa/2).  ((-dw + 0) + 0) + Im c and Im c - dw differ
      at most in the sign of a zero, which -gamma / D and -sqrt(gamma) / D
      do not read: numpy divides a + 0j by D with Re D > |Im D| = 0 as
      ((a + 0 r) s, (0 - a r) s), r = Im D / Re D, s = 1 / (Re D + Im D r),
      the same bits for r = +0 and r = -0.  Where dw is infinite, the old
      Re D was nan and Im D is not finite now: the same points fail.
    - Re c >= 0 (a zero of either sign, or nan): numpy's division of g^2 + 0j
      by X with Re X >= 0 multiplies factors of one sign.  So
      Re D >= gamma + kappa/2, and the guard's floor test reads Re D only
      when gamma + kappa/2 is below the floor.
    """
    g, half_tau, floor = params.g, 0.5 * params.tau, params.gamma + 0.5 * params.kappa
    x = np.empty(dw.shape, complex)
    x.real.fill(half_tau + 0.0)
    np.subtract(params.delta + 0.0, dw, out=x.imag)
    if g > 0.0:
        if half_tau == 0.0:  # Re x is tau/2, so x is never 0 otherwise
            dead = np.flatnonzero(x.imag == 0.0)
            if dead.size:
                raise DegenerateDipole(
                    f"dipole term diverges at {_grid_indices(dead)}: "
                    "probe exactly on a zero-linewidth dipole line"
                )
        denom = np.divide(g * g, x)
    else:
        denom = np.zeros_like(x)
    np.add(denom.real, floor, out=denom.real)
    np.subtract(denom.imag, dw, out=denom.imag)
    return x, denom


def _powers_in_range(params: SystemParams, reach: float) -> bool:
    """Whether :func:`_power_arrays` forms every point with |dw| <= ``reach``
    in range, proved from scalars.

    With h = tau/2, Gamma = gamma + kappa/2 and u = delta - dw, it requires
    2^-250 <= h, Gamma and max(Gamma, h, g^2/h, |delta| + reach) <= 2^250:

    - |u| <= |delta| + reach, as rounding is monotone, so u^2 + h^2 lies in
      [2^-500, 2^501] and s = g^2/(u^2 + h^2) <= (g^2/h)/h is finite.
    - s h <= g^2/h and |s u| <= g^2/(2h), so Re D, Re N and Im D lie within
      2^252 up to rounding, and every square is finite.
    - Re D >= Gamma, as s h >= 0, so |D|^2 >= 2^-500 is normal, and no
      quotient overflows or divides by 0.  A sum of squares that underflows
      gives a fraction below 2^-500.

    The bounds leave a margin of 2^250 to the float range, which covers the
    rounding of each operation and of grid points about their ends.  h must
    be in the max: above 2^512 its square overflows, s is 0 and the dipole
    drops out.  Every term is a Python float, so an overflow makes the test
    fail.  Every point that passes also passes :func:`_guard_denominators`.
    """
    half_tau, floor = 0.5 * params.tau, params.gamma + 0.5 * params.kappa
    if not (half_tau >= _TINY and floor >= _TINY):
        return False
    return max(floor, half_tau, params.g * params.g / half_tau, abs(params.delta) + reach) <= _VAST


def _power_arrays(params: SystemParams, dw: np.ndarray, through: np.ndarray,
                  drop: np.ndarray, work: np.ndarray) -> None:
    """Write |t_through|^2 into ``through`` and |t_drop|^2 into ``drop`` at
    the detunings ``dw``, from real parts; ``work`` is a row of their size.

    With u = delta - dw, h = tau/2 and s = g^2/(u^2 + h^2), g^2/X = s h - i s u,
    so D = (gamma + kappa/2 + s h) - i (s u + dw), and the paper's through
    numerator N = D - gamma has Re N = kappa/2 + s h and Im N = Im D.  So
    |t_drop|^2 = gamma^2/|D|^2 and |t_through|^2 = |N|^2/|D|^2, with no complex
    division or abs and no 1 + t_drop to cancel.  Each point gets the bits of
    these float expressions on every CPU, as IEEE +, -, * and / round alike:

        u = delta - dw;  s = g*g / (u*u + h*h);  im = s*u + dw;  sh = s*h
        rn = sh + kappa/2;  rd = sh + (gamma + kappa/2);  d2 = rd*rd + im*im
        through = (rn*rn + im*im) / d2;  drop = gamma*gamma / d2

    Valid where :func:`_powers_in_range` holds; no point then raises or warns.
    """
    half_tau, half_kappa = 0.5 * params.tau, 0.5 * params.kappa
    np.subtract(params.delta, dw, out=work)  # u
    np.multiply(work, work, out=through)
    through += half_tau * half_tau
    np.divide(params.g * params.g, through, out=through)  # s
    np.multiply(through, work, out=drop)
    drop += dw
    drop *= drop  # (Im D)^2
    through *= half_tau
    np.add(through, half_kappa, out=work)
    work *= work
    work += drop  # |N|^2
    through += params.gamma + half_kappa
    through *= through
    through += drop  # |D|^2
    np.divide(params.gamma * params.gamma, through, out=drop)
    np.divide(work, through, out=through)


def _guard_denominators(params: SystemParams, x: np.ndarray, denom: np.ndarray) -> None:
    """Raise ``SingularDenominator`` where a point of :func:`_drop_arrays`
    collapses or leaves the range of complex division.

    The guard takes the minimum and maximum over both parts of D.  A point
    within ``_DENOM_BOUND`` has a finite |D|^2 <= 2^1023 and a finite scale
    for complex division, as every term of the finite sum of squares of D
    that the guard used to take had to; nan fails both comparisons.  When
    the guard fails, exact per-point tests name the bad grid indices.
    """
    floor = params.gamma + 0.5 * params.kappa
    re, im = denom.real, denom.imag
    parts = denom.view(float)
    if not (-_DENOM_BOUND <= np.min(parts, initial=0.0)
            and np.max(parts, initial=0.0) <= _DENOM_BOUND
            and (floor >= _DENOM_FLOOR or np.min(re, initial=np.inf) >= _DENOM_FLOOR)):
        bad = ~(np.isfinite(denom) & (np.abs(denom) >= _DENOM_FLOOR))
        if params.g > 0.0:  # where dw - delta overflowed, Re X was nan
            bad |= ~np.isfinite(x.imag)
        bad = np.flatnonzero(bad)
        if bad.size:
            raise SingularDenominator(
                f"scattering denominator collapsed at {_grid_indices(bad)}"
            )
        bad = np.flatnonzero(~np.isfinite(_ratio((re, im))[2]))
        if bad.size:
            raise SingularDenominator(
                f"scattering denominator out of range at {_grid_indices(bad)}"
            )


# complex division can overflow inside on a quotient in range (a huge tau gives sigma = -0)
@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def scattering_arrays(params: SystemParams, delta_omega: np.ndarray) -> ScatterCoefficients:
    """Vectorized :func:`scatter_coefficients` over a detuning array.

    The arrays have the shape of ``delta_omega``, 0-d included.  Raises
    ``ValueError`` for detunings that are not real numbers (strings are not
    parsed) or not finite, and :class:`DegenerateDipole` or
    :class:`SingularDenominator` under the conditions of the scalar
    function, each naming the offending (flat) grid indices.
    """
    dw = np.asarray(delta_omega)
    if dw.dtype.kind not in "biuf":
        raise ValueError(f"delta_omega must hold real numbers, got {delta_omega!r}")
    flat = np.asarray(dw.ravel(), dtype=float)
    try:
        x, denom = _drop_arrays(params, flat)
        _guard_denominators(params, x, denom)
    except SingularDenominator:
        bad = np.flatnonzero(~np.isfinite(flat))  # only a failed grid pays for this
        if bad.size:
            raise ValueError(f"delta_omega must be finite at {_grid_indices(bad)}") from None
        raise
    t_drop = -params.gamma / denom
    b_amp = -math.sqrt(params.gamma) / denom
    sigma = -1j * params.g * b_amp / x if params.g > 0.0 else np.zeros_like(b_amp)
    return ScatterCoefficients(*(a.reshape(dw.shape) for a in (1.0 + t_drop, t_drop, b_amp, sigma)))


def steady_state_oracle(params: SystemParams, probe: Probe) -> ScatterCoefficients:
    """Scattering amplitudes by direct solve of the steady-state equations.

    Assembles the linearized Heisenberg steady state for the cavity field b
    and dipole coherence sigma as a 2x2 complex linear system and solves it
    numerically, then forms the outputs from the input-output relations
    (out = in + sqrt(gamma) * b on each waveguide).  No closed-form
    coefficient expression is reused, so this provides an independent check
    of :func:`scatter_coefficients`.  The unit input drives the first
    waveguide; the node is symmetric under swapping the waveguides.
    """
    dw = _probe_value(probe)
    cavity_row = -1j * dw + params.gamma + 0.5 * params.kappa
    root_gamma = math.sqrt(params.gamma)
    if params.g == 0.0:
        # dipole decoupled: sigma row drops out, cavity equation is scalar
        b = -root_gamma / cavity_row
        sigma = 0.0j
    else:
        x = -1j * (dw - params.delta) + 0.5 * params.tau
        matrix = np.array(
            [[cavity_row, 1j * params.g], [1j * params.g, x]], dtype=complex
        )
        rhs = np.array([-root_gamma, 0.0], dtype=complex)
        try:
            b, sigma = np.linalg.solve(matrix, rhs)
        except np.linalg.LinAlgError as exc:
            raise SingularSystem(f"steady-state system is singular: {exc}") from exc
        if not (np.isfinite(b) and np.isfinite(sigma)):
            raise SingularSystem(
                f"steady-state solve returned non-finite fields (b={b!r})"
            )
    driven_out = 1.0 + root_gamma * b  # input-output on the driven waveguide
    other_out = root_gamma * b
    return ScatterCoefficients(
        t_through=complex(driven_out),
        t_drop=complex(other_out),
        b_amp=complex(b),
        sigma_amp=complex(sigma),
    )


class FluxBudget(NamedTuple):  # a tuple: sweeps build one per row
    """Fractions of the input photon flux leaving by each channel."""

    through: float
    drop: float
    cavity_loss: float
    dipole_loss: float

    @property
    def total(self) -> float:
        return self.through + self.drop + self.cavity_loss + self.dipole_loss


def _abs2(z: complex) -> float:
    """|z|^2 as ``a * a`` on ``a = abs(z)``: C ``pow`` misrounds some squares."""
    size = abs(z)
    return size * size


def _dipole_loss(t_drop: complex, b_amp: complex, sigma_amp: complex,
                 g: float, tau: float, kappa: float, dw: float) -> float:
    """``tau * _abs2(sigma_amp)``, the dipole-loss fraction of one node.

    Where |sigma_amp|^2 overflows (a subnormal tau probed near the dipole
    line) the fraction is formed as ``(tau * |sigma|) * |sigma|`` and kept if
    the four fractions still sum to 1 within ``_BUDGET_SLACK``; otherwise
    g^2 has dropped out of the denominator, and :class:`DegenerateDipole`
    says so.
    """
    try:
        size = abs(sigma_amp)
    except OverflowError:  # finite parts, |sigma| beyond the float range
        size = math.inf
    else:
        square = size * size
        if not (math.isinf(square) and math.isfinite(size)):
            return tau * square
    loss = (tau * size) * size
    total = _abs2(1.0 + t_drop) + _abs2(t_drop) + kappa * _abs2(b_amp) + loss
    if not abs(total - 1.0) <= _BUDGET_SLACK:
        raise DegenerateDipole(
            f"dipole-loss term unresolved: g^2 = {g * g!r} underflows out of the "
            f"denominator (g = {g!r}, tau = {tau!r}), so the flux fractions sum to "
            f"{total!r} (delta_omega = {dw!r})"
        )
    return loss


def _flux(
    gamma: float, g: float, tau: float, kappa: float, delta: float, dw: float
) -> FluxBudget:
    """:func:`flux_budget` on plain floats, without building a ``SystemParams``."""
    t_drop, b_amp, sigma_amp = _amplitudes(gamma, g, tau, kappa, delta, dw)
    return FluxBudget(
        through=_abs2(1.0 + t_drop),
        drop=_abs2(t_drop),
        cavity_loss=kappa * _abs2(b_amp),
        dipole_loss=_dipole_loss(t_drop, b_amp, sigma_amp, g, tau, kappa, dw),
    )


# CPython's complex arithmetic written out on (re, im) pairs, each part a
# float or a float64 array, so that array results carry the bits of the scalar
# expressions.  A real operand enters as (f, 0.0), as CPython promotes it; on
# float parts these are Python's own float operations.  numpy's complex
# division multiplies by a reciprocal and its complex abs is not C hypot, so
# neither is used.  Callers silence floating-point warnings: the rows that
# raise them are the ones the scalar kernel refuses.

_NEG_J = (-0.0, -1.0)  # the literal -1j


def _c_add(a, b):
    return a[0] + b[0], a[1] + b[1]


def _c_mul(a, b):
    (ar, ai), (br, bi) = a, b
    return ar * br - ai * bi, ar * bi + ai * br


def _ratio(b):
    """``(wide, ratio, scale)`` of CPython's ``_Py_c_quot`` dividing by ``b``:
    whether |Re b| >= |Im b|, the other part over that larger one, and the
    real scale, larger + other * ratio, that the quotient is divided by.
    Where b is 0, which Python refuses, the ratio is nan."""
    br, bi = b
    wide = np.abs(br) >= np.abs(bi)
    big, small = np.where(wide, br, bi), np.where(wide, bi, br)
    ratio = np.divide(small, big)
    return wide, ratio, big + small * ratio


def _c_quot(a, b, by=None):
    """``a / b``; ``by`` is ``_ratio(b)`` when already formed."""
    ar, ai = a
    wide, ratio, scale = by or _ratio(b)
    u, v = np.where(wide, ar, ai), np.where(wide, ai, ar)
    ur = u * ratio
    return (u + v * ratio) / scale, np.where(wide, v - ur, ur - v) / scale


def _c_abs2(z):
    """:func:`_abs2`: C ``hypot``, as CPython's ``abs``, then a product."""
    size = np.hypot(*z)
    return size * size


def _flux_arrays(gamma, g, tau, kappa, delta, dw):
    """:func:`_flux` with float64 arrays in place of any of its floats.

    Returns five arrays of the arguments' broadcast shape: the four flux
    fractions, then a mask of the rows that ``_flux`` may refuse or that came
    out non-finite: a denominator that is non-finite (x = 0 with g > 0 makes
    it nan), near or below the floor, or out of range, or a non-finite
    fraction.  On every other row each fraction has the bits ``_flux`` gives
    on that row's floats.  Terms that no array argument reaches are formed
    once, on floats.
    """
    # rows with g = 0 then get zero coupling and sigma, up to the sign of a
    # zero, which no |.|^2 sees
    coupled = type(g) is np.ndarray or g > 0.0
    with np.errstate(all="ignore"):
        x = _c_add(_c_mul(_NEG_J, (dw - delta, 0.0)), (0.5 * tau, 0.0))
        by_x = _ratio(x) if coupled else None
        coupling = _c_quot((g * g, 0.0), x, by_x) if coupled else (0.0, 0.0)
        denom = _c_add(_c_mul(_NEG_J, (dw, 0.0)), (gamma, 0.0))
        denom = _c_add(_c_add(denom, (0.5 * kappa, 0.0)), coupling)
        by_denom = _ratio(denom)
        # t_drop and b_amp share the denominator: one quotient, two rows
        root = math.sqrt(gamma) if type(gamma) is float else np.sqrt(gamma)
        numerators = np.reshape(np.array([-gamma, -root]), (2, -1))
        quot = _c_quot((numerators, 0.0), denom, by_denom)
        t_drop = quot[0][0], quot[1][0]
        b_amp = quot[0][1], quot[1][1]
        sigma_amp = (_c_quot(_c_mul(_c_mul(_NEG_J, (g, 0.0)), b_amp), x, by_x)
                     if coupled else (0.0, 0.0))
        drop_and_b = _c_abs2(quot)
        fractions = (
            _c_abs2(_c_add((1.0, 0.0), t_drop)),
            drop_and_b[0],
            kappa * drop_and_b[1],
            tau * _c_abs2(sigma_amp),
        )
        # |D| < floor puts |scale| below 2 floors; a non-finite D, scale or
        # fraction makes the sum non-finite
        scale = by_denom[2]
        total = fractions[0] + fractions[1] + fractions[2] + fractions[3] + scale
        flagged = ~np.isfinite(total) | (np.abs(scale) < 4.0 * _DENOM_FLOOR)
    # a fraction that no array argument reaches is a scalar or one row
    shape = max(getattr(a, "shape", ()) for a in (gamma, g, tau, kappa, delta, dw))
    return [f if type(f) is np.ndarray and f.shape == shape else np.broadcast_to(f, shape)
            for f in (*fractions, flagged)]


def flux_budget(params: SystemParams, probe: Probe) -> FluxBudget:
    """Steady-state flux fractions; their total is 1 for any valid params.

    Raises what :func:`scatter_coefficients` raises, and
    :class:`DegenerateDipole` where the dipole linewidth is so small that
    |sigma_amp|^2 overflows.
    """
    return _flux(
        params.gamma, params.g, params.tau, params.kappa, params.delta, _probe_value(probe)
    )


@dataclass(frozen=True)
class DiagnosticNumbers:
    """Cavity-QED figures of merit for one node.

    purcell : dipole emission enhancement into the cavity, 2g^2/((gamma+kappa/2)tau)
    critical_atom : (2 gamma + kappa) tau / g^2; purcell * critical_atom = 4
    critical_photon : (tau / 2g)^2, saturation photon number
    max_safe_flux : input photon flux (photons/s) keeping the dipole linear
    """

    purcell: float
    critical_atom: float
    critical_photon: float
    max_safe_flux: float


def diagnostics(params: SystemParams, eta: float = 0.01) -> DiagnosticNumbers:
    """Figures of merit; requires a coupled, radiating dipole.

    ``max_safe_flux`` is the fraction ``eta`` of the saturation flux scale
    g^2/gamma at which the linearization is still comfortably valid.

    Raises
    ------
    UndefinedDiagnostic
        If g = 0 or tau = 0, or where a figure leaves the float range.
    """
    if params.g == 0.0 or params.tau == 0.0:
        raise UndefinedDiagnostic(
            f"diagnostics need g > 0 and tau > 0 (got g={params.g}, tau={params.tau})"
        )
    eta = _number(eta, "eta")
    if not 0.0 < eta <= 1.0:
        raise ValueError(f"eta must lie in (0, 1], got {eta!r}")
    g2 = params.g * params.g
    try:
        return DiagnosticNumbers(
            purcell=2.0 * g2 / ((params.gamma + 0.5 * params.kappa) * params.tau),
            critical_atom=(2.0 * params.gamma + params.kappa) * params.tau / g2,
            critical_photon=(params.tau / (2.0 * params.g)) ** 2,
            max_safe_flux=eta * g2 / params.gamma,
        )
    except (ZeroDivisionError, OverflowError):
        raise UndefinedDiagnostic(f"diagnostics out of float range for {params}") from None


@dataclass(frozen=True)
class WeakExcitationReport:
    """Result of the linearization validity estimate."""

    valid: bool
    sigma_occupancy_estimate: float


def weak_excitation_check(params: SystemParams, input_flux: float) -> WeakExcitationReport:
    """Estimate the dipole excited-state occupancy at the transparency point.

    The linearized model assumes <sigma+ sigma-> << 1.  For a continuous
    input of ``input_flux`` photons/s the steady-state occupancy at the
    transparency point (probe on the bare cavity line) is estimated as
    input_flux * |sigma_amp|^2; the report flags valid when it is below 0.1.
    An overflowing |sigma_amp|^2 reads inf (0 at no input) unless :func:`flux_budget` refuses.
    """
    input_flux = _finite(input_flux, "input_flux", nonnegative=True)
    sigma_amp = scatter_coefficients(params, 0.0).sigma_amp
    try:
        occupancy = input_flux * abs(sigma_amp) ** 2
    except OverflowError:  # a subnormal tau probed on the dipole line
        flux_budget(params, 0.0)  # raises where g^2 has dropped out of the denominator
        occupancy = math.inf if input_flux else 0.0
    return WeakExcitationReport(valid=bool(occupancy < 0.1), sigma_occupancy_estimate=occupancy)
