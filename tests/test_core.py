import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ditsim import (
    THZ,
    DegenerateDipole,
    DetuningGrid,
    ProbeDetuning,
    SingularDenominator,
    SystemParams,
    TwoDipoleState,
    UndefinedDiagnostic,
    NodeRouting,
    WeakExcitationReport,
    bell_measurement,
    diagnostics,
    flux_budget,
    parameter_sweep,
    scatter_coefficients,
    scattering_arrays,
    steady_state_oracle,
    transmission_spectrum,
    weak_excitation_check,
)

# independently computed with a direct 2x2 linear solve (pre-build script)
TRANSPARENCY = 0.9908821994047542
T_THROUGH = 0.9954306602695911
T_DROP = -0.004569339730408862
BARE_T_THROUGH = 0.04761904761904767
BARE_DROP_POWER = 0.9070294784580498

# log-uniform rates over three decades, the library's intended regime
rate_thz = st.floats(min_value=1e-3, max_value=10.0, allow_nan=False)
detuning_thz = st.floats(min_value=-50.0, max_value=50.0, allow_nan=False)


def _rel(a: complex, b: complex) -> float:
    scale = max(abs(a), abs(b))
    return abs(a - b) / scale if scale > 0 else 0.0


# ------------------------------------------------------------ parameters --


def test_kappa_defaults_to_tenth_of_gamma():
    p = SystemParams(gamma=2.0 * THZ, g=0.5 * THZ, tau=0.01 * THZ)
    assert p.kappa == pytest.approx(0.2 * THZ, rel=1e-15)
    assert p.delta == 0.0
    assert p.omega0 == 0.0


def test_invalid_params_reported_together():
    """Every violated constraint shows up in the one error message."""
    with pytest.raises(ValueError) as err:
        SystemParams(gamma=-1.0, g=-2.0, tau=-3.0, kappa=-4.0)
    message = str(err.value)
    for name in ("gamma", "g", "tau", "kappa"):
        assert name in message


@pytest.mark.parametrize(
    "fields, message",
    [
        (dict(gamma=-1.0, g=float("nan"), tau=-1.0), "g must be a finite number, got nan"),
        (dict(gamma=-1.0, g=-2.0, tau=-3.0, kappa=-4.0, omega0=-5.0),
         "gamma must be > 0, got -1.0; g must be >= 0, got -2.0; tau must be >= 0, got -3.0; "
         "kappa must be >= 0, got -4.0; omega0 must be >= 0, got -5.0"),
        (dict(gamma=0, g=1, tau=1), "gamma must be > 0, got 0.0"),
        (dict(gamma=float("inf"), g=-float("inf"), tau=1, delta=float("nan")),
         "gamma must be a finite number, got inf; g must be a finite number, got -inf; "
         "delta must be a finite number, got nan"),
        # no OverflowError or TypeError leaks, and an omitted kappa, whose
        # default follows only from a valid gamma, is not blamed
        pytest.param(dict(gamma=10**400, g=1, tau=1, kappa=1),
                     f"gamma must be a finite number, got {10**400!r}", id="int_beyond_float"),
        pytest.param(dict(gamma=10**400, g=1, tau=1),
                     f"gamma must be a finite number, got {10**400!r}", id="int_beyond_float_no_kappa"),
        (dict(gamma="x", g=1, tau=1), "gamma must be a finite number, got 'x'"),
        (dict(gamma=-1.0, g=1, tau=1), "gamma must be > 0, got -1.0"),
    ],
)
def test_invalid_params_message(fields, message):
    # range problems are reported only once every field is a finite number
    with pytest.raises(ValueError) as err:
        SystemParams(**fields)
    assert str(err.value) == "invalid SystemParams: " + message


def test_params_accept_the_numbers_every_entry_point_accepts():
    # SystemParams reads its fields as a probe or a sweep value is read
    p = SystemParams(np.int64(2), np.float32(0.5), 0)
    assert (p.gamma, p.g, p.tau, p.kappa) == (2.0, 0.5, 0.0, 0.2)
    assert all(type(getattr(p, name)) is float
               for name in ("gamma", "g", "tau", "kappa", "delta", "omega0"))
    assert SystemParams(Fraction(1, 2), Fraction(1, 4), 1) == SystemParams(0.5, 0.25, 1.0)


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
def test_nonfinite_rates_rejected(bad):
    with pytest.raises(ValueError):
        SystemParams(gamma=bad, g=0.0, tau=1.0)
    with pytest.raises(ValueError):
        SystemParams(gamma=1.0, g=0.0, tau=1.0, delta=bad)
    with pytest.raises(ValueError, match="delta_omega must be finite"):
        ProbeDetuning(bad)
    with pytest.raises(ValueError, match=f"^grid endpoint start must be finite, got {bad!r}$"):
        DetuningGrid(bad, 1.0, 3)


def test_zero_gamma_rejected():
    with pytest.raises(ValueError, match="gamma"):
        SystemParams(gamma=0.0, g=1.0, tau=1.0)


def test_quality_factor(make_params):
    assert make_params().quality_factor is None
    p = make_params(omega0=200.0)
    assert p.quality_factor == pytest.approx(200.0 / 0.1, rel=1e-15)


def test_zero_linewidth_dipole_constructs_but_degenerates_on_resonance(make_params):
    """tau=0 is a legal idealization; only probing the bare line blows up."""
    p = make_params(tau=0.0)
    off = scatter_coefficients(p, 0.2 * THZ)
    assert math.isfinite(abs(off.t_through))
    with pytest.raises(DegenerateDipole):
        scatter_coefficients(p, 0.0)


def test_degenerate_needs_coupled_dipole(make_params):
    # with g=0 the dipole drops out entirely, so tau=0 on resonance is fine
    p = make_params(g=0.0, tau=0.0)
    c = scatter_coefficients(p, 0.0)
    assert c.sigma_amp == 0.0
    assert math.isfinite(abs(c.t_through))


# ------------------------------------------------------------- scattering --


def test_transparency_matches_independent_solve(baseline):
    c = scatter_coefficients(baseline, 0.0)
    assert abs(c.t_through - T_THROUGH) < 1e-12
    assert abs(abs(c.t_through) ** 2 - TRANSPARENCY) < 1e-12
    assert abs(c.t_drop - T_DROP) < 1e-12


def test_probe_forms_equivalent(baseline):
    a = scatter_coefficients(baseline, 0.7 * THZ)
    b = scatter_coefficients(baseline, ProbeDetuning(0.7 * THZ))
    assert a == b


def test_two_port_identity_exact(draw_params):
    """t_through = 1 + t_drop holds to the last bit, not just approximately."""
    rng = np.random.default_rng(7)
    for _ in range(200):
        p = draw_params(rng)
        c = scatter_coefficients(p, rng.uniform(-3, 3) * THZ)
        assert c.t_through == 1.0 + c.t_drop


def test_bare_filter_reduces_correctly(make_params):
    c = scatter_coefficients(make_params(g=0.0), 0.0)
    assert abs(c.t_through - BARE_T_THROUGH) < 1e-12
    assert abs(abs(c.t_drop) ** 2 - BARE_DROP_POWER) < 1e-12
    assert c.sigma_amp == 0.0


def test_critical_coupling_full_transfer(make_params):
    """Lossless resonant drop filter moves everything to the other guide."""
    c = scatter_coefficients(make_params(g=0.0, kappa=0.0), 0.0)
    assert abs(c.t_through) < 1e-12
    assert abs(c.t_drop + 1.0) < 1e-12


def test_oracle_agrees_with_closed_form(draw_params):
    rng = np.random.default_rng(11)
    for _ in range(300):
        p = draw_params(rng)
        probe = rng.uniform(-5, 5) * THZ
        c = scatter_coefficients(p, probe)
        o = steady_state_oracle(p, probe)
        assert _rel(c.t_through, o.t_through) < 1e-10
        assert _rel(c.t_drop, o.t_drop) < 1e-10
        assert _rel(c.b_amp, o.b_amp) < 1e-10
        assert _rel(c.sigma_amp, o.sigma_amp) < 1e-10


def test_oracle_handles_decoupled_dipole(make_params):
    o = steady_state_oracle(make_params(g=0.0), 0.0)
    c = scatter_coefficients(make_params(g=0.0), 0.0)
    assert _rel(c.t_through, o.t_through) < 1e-12
    assert o.sigma_amp == 0.0


def test_singular_denominator_guard():
    p = SystemParams(gamma=1e-290, g=0.0, tau=1e-290, kappa=0.0)
    with pytest.raises(SingularDenominator):
        scatter_coefficients(p, 0.0)


@pytest.mark.parametrize("params, probe", [
    (SystemParams(1.5e308, 0.0, 1.0, 1.0), 1.5e308),  # |D| overflows
    (SystemParams(1e308, 0.0, 0.0, 0.0), 1e308),  # D = 1e308 - 1e308j, |D| finite
])
def test_out_of_range_denominator_raises_everywhere(params, probe):
    # complex division by D would overflow its scale and return 0, where
    # the true t_drop = -gamma / D is about -(1 + 1j) / 2
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for call in (scatter_coefficients, flux_budget, NodeRouting.from_params):
            with pytest.raises(SingularDenominator, match="out of range: D = "):
                call(params, probe)
        grid = np.array([0.0, probe])
        with pytest.raises(SingularDenominator, match=r"out of range at grid indices \[1\]$"):
            scattering_arrays(params, grid)
        with pytest.raises(SingularDenominator, match=r"out of range at grid indices \[0\]$"):
            transmission_spectrum(params, DetuningGrid(probe, probe, 1))
        rows = parameter_sweep(params, "g", [0.0, 0.0], probe).rows
    assert [row.budget for row in rows] == [None, None]
    assert all(row.error.startswith("scattering denominator out of range") for row in rows)


@given(
    gamma=rate_thz, g=rate_thz, tau=rate_thz, kappa=rate_thz,
    delta=detuning_thz, probe=detuning_thz,
)
@settings(max_examples=100, deadline=None)
def test_closed_form_matches_oracle_property(gamma, g, tau, kappa, delta, probe):
    p = SystemParams(
        gamma=gamma * THZ, g=g * THZ, tau=tau * THZ, kappa=kappa * THZ,
        delta=delta * THZ,
    )
    c = scatter_coefficients(p, probe * THZ)
    o = steady_state_oracle(p, probe * THZ)
    assert _rel(c.t_through, o.t_through) < 1e-10
    assert _rel(c.t_drop, o.t_drop) < 1e-10


# ------------------------------------------------------------------- flux --


def test_flux_budget_components(baseline):
    b = flux_budget(baseline, 0.0)
    assert abs(b.total - 1.0) < 1e-12
    for part in (b.through, b.drop, b.cavity_loss, b.dipole_loss):
        assert part >= 0.0
    assert abs(b.through - TRANSPARENCY) < 1e-12


def test_dipole_loss_overflow_raises_degenerate_dipole():
    # g^2 = 1e-340 underflows out of D, while |sigma|^2 = |g b / x|^2 overflows;
    # the finite total would be 1 + 4e-7 with the dipole dropped from the model
    params = SystemParams(1e-10, 1e-170, 1e-323, 0.0)
    unresolved = r"^dipole-loss term unresolved: g\^2 = 0\.0 underflows out of the denominator "
    with pytest.raises(DegenerateDipole, match=unresolved):
        flux_budget(params, 0.0)
    with pytest.raises(DegenerateDipole, match=unresolved):
        NodeRouting.from_params(params, 0.0)
    with pytest.raises(DegenerateDipole, match=unresolved):
        bell_measurement(params, params, TwoDipoleState.bell("phi_plus"), 0.0, 1.0)
    with pytest.raises(DegenerateDipole, match=unresolved):
        weak_excitation_check(params, 1.0)
    rows = parameter_sweep(params, "tau", [1e-323, 1e-3], 0.0).rows
    assert rows[0].budget is None and rows[0].error.startswith("dipole-loss term")
    assert rows[1].budget == flux_budget(SystemParams(1e-10, 1e-170, 1e-3, 0.0), 0.0)


def test_overflowing_dipole_term_is_kept_where_the_budget_closes():
    # |sigma|^2 is about 2.5e308, but g^2 = 9e-310 still reaches D: the dipole
    # loss is (tau*|sigma|)*|sigma| and the four fractions sum to 1
    params = SystemParams(1.0, 3e-155, 2e-309, 0.0)
    sigma = scatter_coefficients(params, 0.0).sigma_amp
    with pytest.raises(OverflowError):
        abs(sigma) ** 2
    budget = flux_budget(params, 0.0)
    assert budget.dipole_loss == 0.49861495844875364
    assert budget.total == 1.0
    row = parameter_sweep(params, "tau", [params.tau], 0.0).rows[0]
    assert row.error is None and row.budget == budget and row.budget.total == 1.0
    routing = NodeRouting.from_params(params, 0.0)
    assert routing.label_g.drop == scatter_coefficients(params, 0.0).t_drop


def test_weak_excitation_check_agrees_with_the_flux_budget_on_an_overflowing_sigma():
    # the budget closes on this node, so the check evaluates it: an occupancy
    # beyond any float is no weak excitation, and no input excites nothing
    params = SystemParams(1.0, 3e-155, 2e-309, 0.0)
    assert weak_excitation_check(params, 1.0) == WeakExcitationReport(False, math.inf)
    assert weak_excitation_check(params, 0.0) == WeakExcitationReport(True, 0.0)


def test_large_dipole_loss_term_keeps_its_bits():
    # |sigma|^2 is about 4e270 here: finite, so the budget is the plain formula
    params = SystemParams(1e-10, 1e-170, 1e-300, 0.0)
    sigma = scatter_coefficients(params, 0.0).sigma_amp
    budget = flux_budget(params, 0.0)
    assert abs(sigma) ** 2 > 1e270
    assert budget.dipole_loss.hex() == (params.tau * abs(sigma) ** 2).hex()
    assert parameter_sweep(params, "tau", [1e-300], 0.0).rows[0].budget == budget


@given(
    gamma=rate_thz, g=rate_thz, tau=rate_thz, kappa=rate_thz,
    delta=detuning_thz, probe=detuning_thz,
)
@settings(max_examples=150, deadline=None)
def test_flux_conserved_property(gamma, g, tau, kappa, delta, probe):
    """Everything entering the through port leaves somewhere: sum is 1."""
    p = SystemParams(
        gamma=gamma * THZ, g=g * THZ, tau=tau * THZ, kappa=kappa * THZ,
        delta=delta * THZ,
    )
    b = flux_budget(p, probe * THZ)
    assert abs(b.total - 1.0) < 1e-9
    assert min(b.through, b.drop, b.cavity_loss, b.dipole_loss) >= 0.0


def _exact_fluxes(params: SystemParams, dw: float) -> tuple[Fraction, ...]:
    """(through, drop, cavity loss, dipole loss) of the node's float inputs,
    exactly: X = tau/2 - i(dw - delta), D = gamma + kappa/2 - i dw + g^2/X,
    |X|^2 and |D|^2 are rationals of them, so no square root is needed."""
    gamma, g, tau, kappa, delta = (
        Fraction(getattr(params, name)) for name in ("gamma", "g", "tau", "kappa", "delta")
    )
    dw = Fraction(dw)
    x_re, x_im = tau / 2, delta - dw
    x2 = x_re**2 + x_im**2
    d_re, d_im = gamma + kappa / 2, -dw
    if g:  # g^2/X = g^2 conj(X) / |X|^2
        d_re += g * g * x_re / x2
        d_im -= g * g * x_im / x2
    d2 = d_re**2 + d_im**2
    return (
        ((d_re - gamma) ** 2 + d_im**2) / d2,  # |1 + t_drop|^2 = |D - gamma|^2 / |D|^2
        gamma**2 / d2,
        kappa * gamma / d2,
        tau * g * g * gamma / (d2 * x2) if g else Fraction(0),
    )


def _ulps(got: float, exact: Fraction) -> Fraction:
    return abs(Fraction(got) - exact) / Fraction(math.ulp(float(exact)))


# log-uniform over the decades between lo and hi
def _log_rate(lo: float, hi: float):
    return st.floats(math.log10(lo), math.log10(hi)).map(lambda e: 10.0**e)


# bare-filter dips on resonance, where 1 + t_drop cancels, and probes on the dipole line
@example(gamma=1.0, g=0.0, tau=0.001, kappa=1e-2, delta=0.0, dw=0.0)
@example(gamma=1.0, g=0.0, tau=0.001, kappa=1e-4, delta=0.0, dw=0.0)
@example(gamma=1.0, g=0.0, tau=0.001, kappa=1e-6, delta=0.0, dw=0.0)
@example(gamma=1.0, g=0.0, tau=0.001, kappa=1e-8, delta=0.0, dw=0.0)
@example(gamma=1.0, g=0.33, tau=0.001, kappa=0.1, delta=0.0, dw=0.0)
@example(gamma=1.0, g=0.33, tau=1e-5, kappa=0.1, delta=0.7, dw=0.7)
@example(gamma=0.1, g=10.0, tau=1.0, kappa=1e-4, delta=-1.0, dw=-1.0)
@given(
    gamma=_log_rate(0.1, 10.0),
    g=_log_rate(0.01, 10.0) | st.just(0.0),
    tau=_log_rate(1e-5, 1.0),
    kappa=_log_rate(1e-4, 1.0),
    delta=st.floats(-1.0, 1.0),
    dw=st.floats(-3.0, 3.0),
)
@settings(max_examples=300, deadline=None)
def test_flux_fractions_round_within_their_budget_of_the_exact_values(
    gamma, g, tau, kappa, delta, dw
):
    """Each flux fraction against its exact rational value: the loss and drop
    fractions within 64 ulps, and ``through`` within 16 eps relative plus
    16 eps absolute, which covers the cancellation in 1 + t_drop.  Each comes
    from ``flux_budget``, ``scattering_arrays`` and a 1-point spectrum."""
    params = SystemParams(gamma * THZ, g * THZ, tau * THZ, kappa * THZ, delta * THZ)
    probe = dw * THZ
    through, drop, cavity_loss, dipole_loss = _exact_fluxes(params, probe)
    budget = flux_budget(params, probe)
    arrays = scattering_arrays(params, np.array([probe]))
    series = transmission_spectrum(params, DetuningGrid(probe, probe, 1))
    for got, exact in [
        (budget.drop, drop),
        (budget.cavity_loss, cavity_loss),
        (budget.dipole_loss, dipole_loss),
        (float(np.abs(arrays.t_drop[0]) ** 2), drop),
        (float(series.drop[0]), drop),
    ]:
        assert _ulps(got, exact) <= 64, (got, float(exact))
    eps = Fraction(2) ** -52
    for got in (budget.through, float(np.abs(arrays.t_through[0]) ** 2), float(series.through[0])):
        # relative error at most 16 eps (1 + 1/through)
        assert abs(Fraction(got) - through) <= 16 * eps * (through + 1), (got, float(through))


@pytest.mark.parametrize("kappa", [1e-2, 1e-4, 1e-6, 1e-8, 0.0])
def test_spectrum_keeps_the_digits_of_the_bare_filter_dip(kappa):
    # on resonance t_drop is -gamma/(gamma + kappa/2), and 1 + t_drop cancels;
    # the spectrum forms through as (kappa/2)^2 / (gamma + kappa/2)^2 instead
    params = SystemParams(1.0 * THZ, 0.0, 0.001 * THZ, kappa * THZ)
    through = float(transmission_spectrum(params, DetuningGrid(0.0, 0.0, 1)).through[0])
    exact = _exact_fluxes(params, 0.0)[0]
    if kappa == 0.0:  # critical coupling: the dip is exactly dark
        assert through == 0.0
    else:
        assert abs(Fraction(through) - exact) <= 4 * Fraction(2) ** -52 * exact, (through, float(exact))


# ----------------------------------------------------------------- arrays --


def test_scattering_arrays_match_scalar(baseline):
    # numpy and CPython complex division may differ in the last ulp
    grid = np.linspace(-2.0, 2.0, 41) * THZ
    arrays = scattering_arrays(baseline, grid)
    for i in (0, 13, 40):
        c = scatter_coefficients(baseline, float(grid[i]))
        assert _rel(arrays.t_through[i], c.t_through) < 1e-14
        assert _rel(arrays.t_drop[i], c.t_drop) < 1e-14
        assert _rel(arrays.b_amp[i], c.b_amp) < 1e-14
        assert _rel(arrays.sigma_amp[i], c.sigma_amp) < 1e-14


def test_scattering_arrays_report_degenerate_indices(make_params):
    p = make_params(tau=0.0, delta=0.5)
    grid = np.array([0.0, 0.5, 1.0]) * THZ
    with pytest.raises(DegenerateDipole, match=r"\[1\]"):
        scattering_arrays(p, grid)


# ------------------------------------------------------------ diagnostics --


def test_diagnostics_reference_numbers(baseline):
    d = diagnostics(baseline)
    assert d.purcell == pytest.approx(207.42857142857142, rel=1e-13)
    assert d.critical_atom == pytest.approx(0.01928374655647383, rel=1e-13)
    assert d.critical_photon == pytest.approx(2.295684113865932e-06, rel=1e-13)
    assert d.max_safe_flux == pytest.approx(1.089e9, rel=1e-13)


def test_purcell_times_critical_atom_is_four(draw_params):
    # algebraic identity: F_p * N0 = 2(2*gamma+kappa)/(gamma+kappa/2) = 4
    rng = np.random.default_rng(23)
    for _ in range(50):
        d = diagnostics(draw_params(rng))
        assert d.purcell * d.critical_atom == pytest.approx(4.0, rel=1e-12)


def test_diagnostics_undefined_cases(make_params):
    with pytest.raises(UndefinedDiagnostic):
        diagnostics(make_params(g=0.0))
    with pytest.raises(UndefinedDiagnostic):
        diagnostics(make_params(tau=0.0))
    with pytest.raises(ValueError):
        diagnostics(make_params(), eta=0.0)
    with pytest.raises(ValueError):
        diagnostics(make_params(), eta=1.5)


def test_diagnostics_read_eta_as_a_float(baseline):
    # a float32 eta used to make max_safe_flux a float32
    got = diagnostics(baseline, np.float32(0.5))
    assert got == diagnostics(baseline, 0.5) and type(got.max_safe_flux) is float


def test_max_safe_flux_scales_with_eta(baseline):
    assert diagnostics(baseline, eta=0.02).max_safe_flux == pytest.approx(
        2.0 * diagnostics(baseline, eta=0.01).max_safe_flux, rel=1e-13
    )


# -------------------------------------------------------- weak excitation --


def test_weak_excitation_flags(baseline):
    quiet = weak_excitation_check(baseline, 0.001 * baseline.g**2 / baseline.gamma)
    assert quiet.valid
    assert quiet.sigma_occupancy_estimate == pytest.approx(
        0.0009904274055154343, rel=1e-12
    )
    loud = weak_excitation_check(baseline, 100.0 * baseline.g**2 / baseline.gamma)
    assert not loud.valid
    assert loud.sigma_occupancy_estimate > 0.1


def test_weak_excitation_rejects_negative_flux(baseline):
    with pytest.raises(ValueError):
        weak_excitation_check(baseline, -1.0)


@pytest.mark.parametrize("bad", [None, "1", 1 + 2j])
def test_weak_excitation_rejects_non_numbers_by_name(baseline, bad):
    with pytest.raises(ValueError, match="^input_flux must be a real number"):
        weak_excitation_check(baseline, bad)
