"""The source paper's central claim, stated as laws that need no reference copy.

Waks & Vucković (PRL 96, 153601 (2006)) show that a drop filter turns
transparent once the Purcell factor is large, well short of strong coupling.
On resonance the dipole enters the scattering only through g^2/tau, so the
through power is a function of the Purcell factor alone, and every protocol
number is unchanged by (g, tau) -> (s*g, s^2*tau).  Rates and detunings
also scale together: multiplying all of them by a power of 4 is exact in
floating point, so the dimensionless outputs keep their bits.  As tau and
kappa go to 0 the transparency window's width follows a closed form from
weak coupling to strong.

Each law holds through any change that moves bits on purpose, within the
tolerance it states.
"""

import math

import numpy as np

from ditsim import (
    THZ,
    DetuningGrid,
    SystemParams,
    TwoDipoleState,
    diagnostics,
    entanglement_generation,
    false_even_probability,
    flux_budget,
    locate_transparency_peak,
    parity_probe,
    scatter_coefficients,
    transmission_spectrum,
)

EPS = 2.0**-52
PSI_PLUS = TwoDipoleState.bell("psi_plus")


def _log_uniform(rng: np.random.Generator, lo: float, hi: float) -> float:
    """A rate in rad/s, log-uniform over [lo, hi] THz."""
    return 10.0 ** rng.uniform(math.log10(lo), math.log10(hi)) * THZ


def _parity(node_a: SystemParams, node_b: SystemParams, probe: float) -> np.ndarray:
    """parity_probe's four outcome probabilities on psi+ at nbar 1."""
    return np.array([*parity_probe(node_a, node_b, PSI_PLUS, probe, 1.0).outcome_probabilities.values()])


def test_through_power_on_resonance_is_the_purcell_form():
    # at delta = 0 and probe 0 the dipole term is 2g^2/tau, so
    # |t_through|^2 = ((kappa/(2 Gamma) + P) / (1 + P))^2 with Gamma = gamma + kappa/2.
    # 1 + t_drop cancels at deep dips, where the error grows as sqrt(law)
    rng = np.random.default_rng(20060420)
    for _ in range(10000):
        gamma, g, tau, kappa = (_log_uniform(rng, *bounds)
                                for bounds in ((0.1, 10.0), (1e-3, 10.0), (1e-5, 1.0), (1e-6, 1.0)))
        node = SystemParams(gamma, g, tau, kappa)
        big_gamma = gamma + 0.5 * kappa
        purcell = diagnostics(node).purcell
        law = ((kappa / (2.0 * big_gamma) + purcell) / (1.0 + purcell)) ** 2
        through = flux_budget(node, 0.0).through
        assert abs(through - law) <= 4.0 * EPS * (law + math.sqrt(law)), node


def test_on_resonance_only_g_squared_over_tau_matters():
    # the abstract's claim: (g, tau) -> (s*g, s^2*tau) keeps the Purcell factor,
    # and with it every number, whether s*g is below the cavity linewidth or above.
    # The parity probabilities also carry the click factor's absolute error,
    # below ulp(1): it is the difference of two exponentials near 1
    rng = np.random.default_rng(153601)

    def figures(node_a, node_b):
        entangled = entanglement_generation(node_a, node_b, 0.0, 0.05)
        return (np.array([*flux_budget(node_a, 0.0), *flux_budget(node_b, 0.0),
                          false_even_probability(node_a, node_b, 0.0),
                          entangled.fidelity, entangled.success_probability]),
                _parity(node_a, node_b, 0.0))

    for _ in range(220):
        nodes = [SystemParams(_log_uniform(rng, 0.5, 2.0), _log_uniform(rng, 0.1, 0.33),
                              _log_uniform(rng, 1e-3, 1e-2), _log_uniform(rng, 0.01, 0.3))
                 for _ in range(2)]
        want, want_parity = figures(*nodes)
        for s in (0.5, 3.0, 10.0):
            got, got_parity = figures(*(SystemParams(n.gamma, s * n.g, s * s * n.tau, n.kappa) for n in nodes))
            assert np.all(np.abs(got - want) <= 1e-14 * np.abs(want)), (nodes, s)
            assert np.all(np.abs(got_parity - want_parity) <= 1e-14 * want_parity + EPS), (nodes, s)


def test_scaling_every_rate_by_a_power_of_four_keeps_every_bit():
    # c = 4^k scales every product exactly and sqrt(c * gamma) = 2^k sqrt(gamma),
    # so t_through and t_drop keep their bits and b and sigma scale by 2^-k,
    # and the loss fractions, squared as products, keep theirs too. The draws
    # stay far from the float range's edges
    rng = np.random.default_rng(4)
    for _ in range(300):
        gamma, g, tau, kappa = (_log_uniform(rng, 1e-3, 10.0) for _ in range(4))
        node = SystemParams(gamma, g, tau, kappa, delta=rng.uniform(-5.0, 5.0) * THZ)
        probe = rng.uniform(-3.0, 3.0) * THZ
        grid = DetuningGrid(-3.0 * gamma, 3.0 * gamma, 2001)
        amplitudes = scatter_coefficients(node, probe)
        budget = np.array(flux_budget(node, probe))
        parity = _parity(node, node, probe).tobytes()
        through = transmission_spectrum(node, grid).through.tobytes()
        for k in (1, -1, -10):
            c, root = 4.0**k, 2.0**k
            scaled = SystemParams(c * gamma, c * g, c * tau, c * kappa, delta=c * node.delta)
            scaled_grid = DetuningGrid(c * grid.start, c * grid.stop, grid.count)
            t_through, t_drop, b_amp, sigma_amp = scatter_coefficients(scaled, c * probe)
            assert (t_through, t_drop) == amplitudes[:2], (node, probe, k)
            for z, want in ((b_amp, amplitudes.b_amp), (sigma_amp, amplitudes.sigma_amp)):
                assert (z.real * root, z.imag * root) == (want.real, want.imag), (node, probe, k)
            fractions = np.array(flux_budget(scaled, c * probe))
            assert fractions.tobytes() == budget.tobytes(), (node, probe, k)
            assert _parity(scaled, scaled, c * probe).tobytes() == parity, (node, probe, k)
            assert transmission_spectrum(scaled, scaled_grid).through.tobytes() == through, (node, probe, k)


def test_transparency_width_follows_its_law_as_tau_and_kappa_vanish():
    # as tau, kappa -> 0 the through curve is (g^2 - w^2)^2 / ((g^2 - w^2)^2 + Gamma^2 w^2),
    # Gamma = gamma + kappa/2, whose full width at half height is
    # W = sqrt(Gamma^2 + 4 g^2) - Gamma: 2 g^2/Gamma in weak coupling, 2g - Gamma in
    # strong. The finder's width departs from W by about (tau + kappa) / (2W),
    # plus its interpolation error, below (step / W)^2
    gamma, grid = 1.0 * THZ, DetuningGrid(-3.0 * THZ, 3.0 * THZ, 200001)
    step = (grid.stop - grid.start) / (grid.count - 1)
    for rate in (1e-6 * THZ, 1e-4 * THZ):
        for g in (0.05 * THZ, 0.1 * THZ, 0.2 * THZ, 0.33 * THZ, 0.5 * THZ, 1.0 * THZ, 2.0 * THZ):
            node = SystemParams(gamma, g, rate, rate)
            big_gamma = gamma + 0.5 * rate
            law = math.sqrt(big_gamma**2 + 4.0 * g * g) - big_gamma
            fwhm = locate_transparency_peak(transmission_spectrum(node, grid)).fwhm
            assert abs(fwhm / law - 1.0) <= 2.0 * rate / law + (step / law) ** 2, node
