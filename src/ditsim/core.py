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
from dataclasses import dataclass
from typing import NamedTuple, Union

import numpy as np

THZ = 1.0e12  # rad/s per THz

# |denominator| below this is treated as numerically singular.  The physical
# denominator has real part >= gamma > 0, so this only guards corrupt input.
_DENOM_FLOOR = 1e-280
# Complex division divides by a real scale |D|^2 / max(|Re D|, |Im D|), which
# overflows only when a part of D reaches this
_HUGE = 2.0**1023
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


def _field_problem(name: str, value, check_range: bool = True) -> str | None:
    """Why ``value`` cannot be the :class:`SystemParams` field ``name``, or None.

    With ``check_range`` false only the type and finiteness are checked.
    """
    if not isinstance(value, (int, float)) or not math.isfinite(value):
        return f"{name} must be a finite number, got {value!r}"
    if check_range:
        if name == "gamma" and value <= 0.0:
            return f"gamma must be > 0, got {float(value)}"
        if name in ("g", "tau", "kappa", "omega0") and value < 0.0:
            return f"{name} must be >= 0, got {float(value)}"
    return None


def _invalid_params(problems) -> str:
    """Message of the ``ValueError`` an invalid :class:`SystemParams` raises."""
    return "invalid SystemParams: " + "; ".join(problems)


def _field_ok(name: str, values: np.ndarray) -> np.ndarray:
    """Where the float64 ``values`` pass :func:`_field_problem` for ``name``."""
    ok = np.isfinite(values)
    if name == "gamma":
        ok &= values > 0.0
    elif name in ("g", "tau", "kappa", "omega0"):
        ok &= values >= 0.0
    return ok


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
        if self.kappa is None:
            object.__setattr__(self, "kappa", 0.1 * self.gamma)
        problems = []
        for name in _FIELDS:
            value = getattr(self, name)
            problem = _field_problem(name, value)
            if problem:
                problems.append(problem)
            else:
                object.__setattr__(self, name, float(value))
        if problems:
            # range problems are reported only once every field is a finite number
            finite = [p for name in _FIELDS
                      if (p := _field_problem(name, getattr(self, name), check_range=False))]
            raise ValueError(_invalid_params(finite or problems))

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
        value = _number(self.delta_omega, "delta_omega")
        if not math.isfinite(value):
            raise ValueError(f"delta_omega must be finite, got {self.delta_omega!r}")
        object.__setattr__(self, "delta_omega", value)


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


def _probe_value(probe: Probe) -> float:
    if isinstance(probe, ProbeDetuning):
        return probe.delta_omega
    value = _number(probe, "probe detuning")
    if not math.isfinite(value):
        raise ValueError(f"probe detuning must be finite, got {probe!r}")
    return value


@dataclass(frozen=True)
class ScatterCoefficients:
    """Steady-state amplitudes per unit input amplitude in one waveguide.

    ``t_through`` and ``t_drop`` are the waveguide output amplitudes,
    ``b_amp`` the intracavity field and ``sigma_amp`` the dipole coherence.
    The waveguide coefficients are dimensionless; ``b_amp`` and ``sigma_amp``
    carry 1/sqrt(rad/s) so that kappa*|b_amp|^2 and tau*|sigma_amp|^2 are
    dimensionless loss fractions.
    """

    t_through: complex
    t_drop: complex
    b_amp: complex
    sigma_amp: complex


class ScatterArrays(NamedTuple):
    """Vectorized scattering amplitudes over an array of probe detunings."""

    t_through: np.ndarray
    t_drop: np.ndarray
    b_amp: np.ndarray
    sigma_amp: np.ndarray


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
    if big >= _HUGE and not math.isfinite(_ratio((denom.real, denom.imag))[2]):
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


def _drop_arrays(
    params: SystemParams, dw: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(x, denom, t_drop)`` over a detuning array, both guards applied.

    Each term is computed into a buffer reused by the next, with the ufuncs
    and operand order of the plain expressions, so the bits are theirs.
    Overflow on extreme inputs is reported by the denominator guard, so the
    floating-point warnings it would also raise are silenced.
    """
    g, half_tau = params.g, 0.5 * params.tau
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        x = np.multiply(-1j, dw - params.delta)
        x += half_tau
        coupling = None
        if g > 0.0:
            if half_tau == 0.0:  # Re x is tau/2 (or nan), so x is never 0 otherwise
                dead = np.flatnonzero(x == 0.0)
                if dead.size:
                    raise DegenerateDipole(
                        "dipole term diverges at grid indices "
                        f"{dead.tolist()}: probe exactly on a zero-linewidth dipole line"
                    )
            coupling = np.divide(g * g, x)
        denom = np.multiply(-1j, dw)
        denom += params.gamma
        denom += 0.5 * params.kappa
        denom += 0.0 if coupling is None else coupling
        # a sum of squares is finite only if every part is, and |D| >= Re D,
        # so the exact per-point tests run only when one of these passes fails
        if not (np.isfinite(np.vdot(denom, denom))
                and np.min(denom.real, initial=np.inf) >= _DENOM_FLOOR):
            bad = np.flatnonzero(~(np.isfinite(denom) & (np.abs(denom) >= _DENOM_FLOOR)))
            if bad.size:
                raise SingularDenominator(
                    f"scattering denominator collapsed at {_grid_indices(bad)}"
                )
            bad = np.flatnonzero(~np.isfinite(_ratio((denom.real, denom.imag))[2]))
            if bad.size:
                raise SingularDenominator(
                    f"scattering denominator out of range at {_grid_indices(bad)}"
                )
    return x, denom, np.divide(-params.gamma, denom, out=coupling)


def scattering_arrays(params: SystemParams, delta_omega: np.ndarray) -> ScatterArrays:
    """Vectorized :func:`scatter_coefficients` over a detuning array.

    Raises :class:`DegenerateDipole` or :class:`SingularDenominator` under the
    conditions of the scalar function, naming the offending grid indices.
    """
    x, denom, t_drop = _drop_arrays(params, np.asarray(delta_omega, dtype=float))
    b_amp = -math.sqrt(params.gamma) / denom
    sigma = -1j * params.g * b_amp / x if params.g > 0.0 else np.zeros_like(b_amp)
    return ScatterArrays(1.0 + t_drop, t_drop, b_amp, sigma)


def steady_state_oracle(
    params: SystemParams, probe: Probe, drive: str = "a"
) -> ScatterCoefficients:
    """Scattering amplitudes by direct solve of the steady-state equations.

    Assembles the linearized Heisenberg steady state for the cavity field b
    and dipole coherence sigma as a 2x2 complex linear system and solves it
    numerically, then forms the outputs from the input-output relations
    (out = in + sqrt(gamma) * b on each waveguide).  No closed-form
    coefficient expression is reused, so this provides an independent check
    of :func:`scatter_coefficients`.

    Parameters
    ----------
    drive : {"a", "c"}
        Which waveguide carries the unit input.  The node is symmetric under
        swapping the waveguides, so both drives return identical values with
        through/drop roles relabeled.
    """
    if drive not in ("a", "c"):
        raise ValueError(f"drive must be 'a' or 'c', got {drive!r}")
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


def _sigma_power(sigma_amp: complex, g: float, tau: float, dw: float) -> float:
    """``abs(sigma_amp) ** 2``, or :class:`DegenerateDipole` where it overflows."""
    try:
        return abs(sigma_amp) ** 2
    except OverflowError:  # a subnormal tau probed on the dipole line
        raise DegenerateDipole(
            f"dipole-loss term tau*|sigma|^2 overflows: dipole linewidth tau = {tau!r} "
            f"is too small for g = {g!r} (delta_omega = {dw!r})"
        ) from None


def _flux(
    gamma: float, g: float, tau: float, kappa: float, delta: float, dw: float
) -> FluxBudget:
    """:func:`flux_budget` on plain floats, without building a ``SystemParams``."""
    t_drop, b_amp, sigma_amp = _amplitudes(gamma, g, tau, kappa, delta, dw)
    sigma2 = _sigma_power(sigma_amp, g, tau, dw)
    return FluxBudget(
        through=abs(1.0 + t_drop) ** 2,
        drop=abs(t_drop) ** 2,
        cavity_loss=kappa * abs(b_amp) ** 2,
        dipole_loss=tau * sigma2,
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
    if type(br) is float and type(bi) is float:
        wide = abs(br) >= abs(bi)
        big, small = (br, bi) if wide else (bi, br)
        ratio = small / big if big else math.nan
    else:
        wide = np.abs(br) >= np.abs(bi)
        big, small = np.where(wide, br, bi), np.where(wide, bi, br)
        ratio = np.divide(small, big)
    return wide, ratio, big + small * ratio


def _c_quot(a, b, by=None):
    """``a / b``; ``by`` is ``_ratio(b)`` when already formed."""
    ar, ai = a
    wide, ratio, scale = by or _ratio(b)
    if type(wide) is bool:
        u, v = (ar, ai) if wide else (ai, ar)
        ur = u * ratio
        im = v - ur if wide else ur - v
    else:
        u, v = np.where(wide, ar, ai), np.where(wide, ai, ar)
        ur = u * ratio
        im = np.where(wide, v - ur, ur - v)
    return (u + v * ratio) / scale, im / scale


def _c_abs2(z):
    """``abs(z) ** 2``: C ``hypot``, then C ``pow``, as CPython rounds them."""
    return np.float_power(np.hypot(*z), 2.0)


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
        If g = 0 or tau = 0.
    """
    if params.g == 0.0 or params.tau == 0.0:
        raise UndefinedDiagnostic(
            f"diagnostics need g > 0 and tau > 0 (got g={params.g}, tau={params.tau})"
        )
    if not 0.0 < eta <= 1.0:
        raise ValueError(f"eta must lie in (0, 1], got {eta!r}")
    g2 = params.g * params.g
    return DiagnosticNumbers(
        purcell=2.0 * g2 / ((params.gamma + 0.5 * params.kappa) * params.tau),
        critical_atom=(2.0 * params.gamma + params.kappa) * params.tau / g2,
        critical_photon=(params.tau / (2.0 * params.g)) ** 2,
        max_safe_flux=eta * g2 / params.gamma,
    )


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
    """
    if not math.isfinite(input_flux) or input_flux < 0.0:
        raise ValueError(f"input_flux must be a finite non-negative rate, got {input_flux!r}")
    sigma_amp = scatter_coefficients(params, 0.0).sigma_amp
    occupancy = input_flux * _sigma_power(sigma_amp, params.g, params.tau, 0.0)
    return WeakExcitationReport(valid=bool(occupancy < 0.1), sigma_occupancy_estimate=occupancy)
