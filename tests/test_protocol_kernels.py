"""Repeater protocols against the code that did work their results never read.

``NodeRouting.from_params`` used to build the |m> node with
``dataclasses.replace`` and go through ``scatter_coefficients`` twice; the
threshold factors exponentiated the silent factor of all six modes; the Bell
classifier undid the basis rotation on every chain; the false-even figure ran
a full ``parity_probe`` to read two fluxes, and the tradeoff one to read a
post-state and a probability.
All of that is kept here as references, and the current code must reproduce
every result field bit for bit and every exception by type and message.
The protocols' ``post_state`` is formed only when read, so it is compared
by name, and no protocol may form it before then.
"""

import ast
import math
import os
import struct
import sys
import threading
from dataclasses import fields, is_dataclass, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ditsim import (
    BASIS,
    BELL_LABELS,
    PARITY_TO_BELL,
    THZ,
    BellMeasurementRecord,
    BellOutcome,
    DetuningGrid,
    InvalidRegime,
    NodeRouting,
    NumericsError,
    ParityProbeResult,
    PointerRecord,
    ProbeDetuning,
    ProtocolResult,
    RouteAmplitudes,
    SystemParams,
    TradeoffPoint,
    TradeoffTable,
    TwoDipoleState,
    bell_measurement,
    entanglement_generation,
    false_even_probability,
    fidelity_success_tradeoff,
    parity_probe,
    scatter_coefficients,
)
from ditsim import cli, core, repeater
from ditsim.repeater import _dominant_pure_state, _draw, _threshold_factors

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH = os.path.join(ROOT, "bench")
if BENCH not in sys.path:
    sys.path.insert(0, BENCH)

import workloads  # noqa: E402

# saturated probes overflow inside the coherent-state factors in both versions
pytestmark = pytest.mark.filterwarnings("ignore::RuntimeWarning")

# ------------------------------------------------------------- references --

_SQRT_HALF = 1.0 / math.sqrt(2.0)
_HADAMARD_PAIR = 0.5 * np.array(
    [[1.0, 1.0, 1.0, 1.0], [1.0, -1.0, 1.0, -1.0], [1.0, 1.0, -1.0, -1.0], [1.0, -1.0, -1.0, 1.0]]
)


def reference_from_params(params, probe):
    def route(p):
        c = scatter_coefficients(p, probe)
        return RouteAmplitudes(
            through=c.t_through,
            drop=c.t_drop,
            loss_kappa=complex(math.sqrt(p.kappa) * c.b_amp),
            loss_tau=complex(math.sqrt(p.tau) * c.sigma_amp),
        )

    return NodeRouting(label_g=route(params), label_m=route(replace(params, g=0.0)))


def reference_routing(node, probe):
    if isinstance(node, NodeRouting):
        return node
    if isinstance(node, SystemParams):
        return reference_from_params(node, probe)
    raise TypeError(f"node must be SystemParams or NodeRouting, got {type(node)!r}")


def reference_mean_photons(value):
    nbar = float(value)
    if not math.isfinite(nbar) or nbar < 0.0:
        raise ValueError(f"mean_photons must be finite and >= 0, got {value!r}")
    return nbar


def reference_normalized_vector(state):
    # squares added left to right, not by the builtin sum (compensated from 3.12)
    total = 0.0
    for a in state.amplitudes:
        total += abs(a) ** 2
    n = math.sqrt(total)
    if n == 0.0:
        raise ValueError("cannot normalize a zero state")
    return TwoDipoleState(tuple(a / n for a in state.amplitudes)).vector()


def reference_pointer_matrix(route_a, route_b, alpha):
    rows = []
    for sa in ("g", "m"):
        ra = route_a.for_label(sa)
        w1 = ra.through * alpha
        w2 = ra.drop * alpha
        loss_a = (ra.loss_kappa * alpha, ra.loss_tau * alpha)
        for sb in ("g", "m"):
            rb = route_b.for_label(sb)
            drive_b = w1 + w2
            rows.append([rb.through * w1 + rb.drop * w2, rb.drop * w1 + rb.through * w2,
                         loss_a[0], loss_a[1], rb.loss_kappa * drive_b, rb.loss_tau * drive_b])
    return np.array(rows, dtype=complex)


def reference_threshold_factors(amps):
    n = np.abs(amps) ** 2
    pair_n = 0.5 * (n[:, None, :] + n[None, :, :])
    cross = amps[:, None, :] * np.conj(amps[None, :, :])
    traced = np.exp(-pair_n + cross)
    silent = np.exp(-pair_n)
    click = traced - silent
    loss = np.prod(traced[:, :, 2:], axis=2)
    return {
        "even": click[:, :, 0] * silent[:, :, 1] * loss,
        "odd": silent[:, :, 0] * click[:, :, 1] * loss,
        "both": click[:, :, 0] * click[:, :, 1] * loss,
        "none": silent[:, :, 0] * silent[:, :, 1] * loss,
    }


def reference_probe_pass(node_a, node_b, probe, mean_photons):
    nbar = reference_mean_photons(mean_photons)
    amps = reference_pointer_matrix(
        reference_routing(node_a, probe), reference_routing(node_b, probe), math.sqrt(nbar)
    )
    return PointerRecord(nbar, amps), reference_threshold_factors(amps)


def reference_condition(rho, factor):
    unnormalized = rho * factor
    p = float(np.trace(unnormalized).real)
    if p <= 1e-300:
        return 0.0, None
    return p, unnormalized / p


def reference_parity_probe(node_a, node_b, state, probe, mean_photons):
    pointer, factors = reference_probe_pass(node_a, node_b, probe, mean_photons)
    c = reference_normalized_vector(state)
    weights = np.abs(c) ** 2
    rho = np.outer(c, np.conj(c))
    amps = pointer.amplitudes
    return ParityProbeResult(
        pointer=pointer,
        even_flux=float(weights @ (np.abs(amps[:, 0]) ** 2)),
        odd_flux=float(weights @ (np.abs(amps[:, 1]) ** 2)),
        outcome_probabilities={
            o: float(np.trace(rho * factors[o]).real) for o in ("even", "odd", "both", "none")
        },
        post_states={o: reference_condition(rho, factors[o])[1] for o in ("even", "odd")},
    )


def reference_checked_parity_probe(node_a, node_b, state, probe, mean_photons):
    # a non-finite outcome probability is refused, as in the Bell classifier
    result = reference_parity_probe(node_a, node_b, state, probe, mean_photons)
    for outcome, p in result.outcome_probabilities.items():
        if not math.isfinite(p):
            raise InvalidRegime(f"parity herald probability is not finite: P({outcome}) = {p!r}")
    return result


def reference_false_even_probability(node_a, node_b, probe):
    result = reference_parity_probe(
        node_a, node_b, TwoDipoleState.bell("psi_plus"), probe, mean_photons=1.0
    )
    total = result.even_flux + result.odd_flux
    if total <= 1e-300:
        raise InvalidRegime("no probe flux reaches the parity detectors")
    return result.even_flux / total


def reference_result(density, fidelity, probability, post_state):
    """A ``ProtocolResult`` whose ``post_state`` is given, not formed by its property."""
    result = ProtocolResult(density, fidelity, probability)
    object.__setattr__(result, "post_state", post_state)
    return result


def reference_bell_measurement(node_a, node_b, state, probe, mean_photons, rng=None):
    _, factors = reference_probe_pass(node_a, node_b, probe, mean_photons)
    c = reference_normalized_vector(state)

    def herald(rho):
        branches = {}
        for outcome in ("even", "odd"):
            p, conditioned = reference_condition(rho, factors[outcome])
            if conditioned is not None:
                branches[outcome] = (p, conditioned)
        total = sum(p for p, _ in branches.values())
        if total <= 1e-300:
            p_both, p_none = (np.trace(rho * factors[o]).real for o in ("both", "none"))
            if p_both > p_none:
                cause = f"both detectors click with certainty (P(both) = {p_both:.3g})"
            else:
                cause = f"no probe flux reaches the detectors (P(none) = {p_none:.3g})"
            raise InvalidRegime(f"parity herald cannot fire: {cause}")
        if not math.isfinite(total):
            raise InvalidRegime(f"parity herald probability is not finite: P = {total!r}")
        return {o: (p / total, r) for o, (p, r) in branches.items()}

    h = _HADAMARD_PAIR
    chains = []
    for first, (p1, rho1) in herald(np.outer(c, np.conj(c))).items():
        rotated = h @ rho1 @ h
        for second, (p2, rho2) in herald(rotated).items():
            final = h @ rho2 @ h
            outcome = BellOutcome(PARITY_TO_BELL[(first, second)], first, second)
            chains.append((outcome, p1 * p2, final))
    if rng is None:
        pick = max(range(len(chains)), key=lambda i: chains[i][1])
    else:
        cumulative = np.cumsum([p for _, p, _ in chains])
        pick = int(np.searchsorted(cumulative, float(rng.random()), side="right"))
        pick = min(pick, len(chains) - 1)
    outcome, probability, final = chains[pick]
    target = TwoDipoleState.bell(outcome.label).vector()
    fidelity = float(np.real(np.conj(target) @ final @ target))
    return BellMeasurementRecord(
        outcome=outcome,
        result=reference_result(final, fidelity, probability, _dominant_pure_state(final)),
        distribution=tuple((o, p) for o, p, _ in chains),
    )


def reference_entanglement_generation(node_a, node_b, probe, mean_photons):
    nbar = reference_mean_photons(mean_photons)
    if not 0.0 < nbar <= 0.1:
        raise InvalidRegime(
            "entanglement generation requires 0 < mean_photons <= 0.1 "
            f"(single-photon herald regime), got {mean_photons!r}"
        )
    route_a = reference_routing(node_a, probe)
    route_b = reference_routing(node_b, probe)
    alpha = math.sqrt(nbar)
    dark_through = np.zeros(4, dtype=complex)
    dark_drop = np.zeros(4, dtype=complex)
    for i, (sa, sb) in enumerate((a + b for a in "gm" for b in "gm")):
        ra = route_a.for_label(sa)
        rb = route_b.for_label(sb)
        dark_through[i] = 0.5 * alpha * (ra.through - rb.through)
        dark_drop[i] = 0.5 * alpha * (ra.drop - rb.drop)
    superposition = 0.5 * np.ones(4)
    click_t = superposition * dark_through
    click_d = superposition * dark_drop
    p_t = float(np.vdot(click_t, click_t).real)
    p_d = float(np.vdot(click_d, click_d).real)
    herald_probability = p_t + p_d
    if herald_probability <= 1e-300:
        r = complex(_SQRT_HALF)  # the product of two (|g> + |m>)/sqrt2 qubits
        product = np.full(4, r * r)
        # the state as given, not the eigenvector of its projector
        return reference_result(np.outer(product, np.conj(product)), 0.0, 0.0,
                                TwoDipoleState((r * r,) * 4))
    singlet = TwoDipoleState.bell("psi_minus").vector()
    fidelity = 0.0
    mixture = np.zeros((4, 4), dtype=complex)
    for vec, p in ((click_t, p_t), (click_d, p_d)):
        if p <= 0.0:
            continue
        fidelity += abs(np.vdot(singlet, vec)) ** 2 / p * (p / herald_probability)
        mixture += np.outer(vec, np.conj(vec)) / herald_probability
    return reference_result(mixture, float(fidelity), float(herald_probability),
                            _dominant_pure_state(mixture))


def reference_fidelity_success_tradeoff(node_a, node_b, probe, mean_photons_grid):
    nbars = [reference_mean_photons(raw) for raw in mean_photons_grid]
    if any(nbars):
        node_a, node_b = reference_routing(node_a, probe), reference_routing(node_b, probe)
    target = TwoDipoleState.bell("phi_plus")
    vec = target.vector()
    points = []
    for nbar in nbars:
        if nbar == 0.0:
            points.append(TradeoffPoint(0.0, 1.0, 0.0))
            continue
        probed = reference_parity_probe(node_a, node_b, target, probe, nbar)
        conditioned = probed.post_states["even"]
        if conditioned is None:
            raise InvalidRegime("even-parity herald cannot fire for this node configuration")
        p_even = probed.outcome_probabilities["even"]
        if not math.isfinite(p_even):
            raise InvalidRegime(f"even-parity herald probability is not finite: P = {p_even!r}")
        fidelity = float(np.real(np.conj(vec) @ conditioned @ vec))
        points.append(TradeoffPoint(nbar, fidelity, 1.0 - probed.outcome_probabilities["none"]))
    return TradeoffTable(points=tuple(points))


# ---------------------------------------------------------------- helpers --

# values a result derives on read rather than holds as a field
_DERIVED = {ProtocolResult: ("post_state",)}


def _bits(value):
    """A result as nested tuples of bit patterns, type names and strings."""
    if isinstance(value, bool) or value is None or isinstance(value, str):
        return value
    if isinstance(value, (float, np.floating)):
        return "f", struct.pack("<d", value)
    if isinstance(value, (complex, np.complexfloating)):
        return "c", struct.pack("<dd", value.real, value.imag)
    if isinstance(value, np.ndarray):
        return "a", value.shape, value.dtype.str, np.ascontiguousarray(value).tobytes()
    if isinstance(value, (tuple, list)):
        return tuple(_bits(v) for v in value)
    if isinstance(value, dict):
        return tuple((k, _bits(value[k])) for k in sorted(value))
    if is_dataclass(value):
        names = [f.name for f in fields(value)] + list(_DERIVED.get(type(value), ()))
        return type(value).__name__, tuple(_bits(getattr(value, name)) for name in names)
    raise TypeError(f"no bit pattern for {type(value)!r}")


def _outcome(fn, *args, **kwargs):
    try:
        return _bits(fn(*args, **kwargs))
    except Exception as exc:  # compared by type and message
        return type(exc), str(exc)


def _assert_same(fn, reference, *args, **kwargs):
    got = _outcome(fn, *args, **kwargs)
    want = _outcome(reference, *args, **kwargs)
    assert got == want


def _assert_same_protocols(node_a, node_b, state, probe, nbar, grid, rng_seed=7):
    _assert_same(parity_probe, reference_checked_parity_probe, node_a, node_b, state, probe, nbar)
    _assert_same(bell_measurement, reference_bell_measurement, node_a, node_b, state, probe, nbar)
    got = _outcome(bell_measurement, node_a, node_b, state, probe, nbar,
                   rng=np.random.default_rng(rng_seed))
    want = _outcome(reference_bell_measurement, node_a, node_b, state, probe, nbar,
                    rng=np.random.default_rng(rng_seed))
    assert got == want
    _assert_same(false_even_probability, reference_false_even_probability, node_a, node_b, probe)
    _assert_same(entanglement_generation, reference_entanglement_generation,
                 node_a, node_b, probe, min(nbar, 0.1))
    _assert_same(fidelity_success_tradeoff, reference_fidelity_success_tradeoff,
                 node_a, node_b, probe, grid)


# ------------------------------------------------------------- strategies --

OUTCOMES = ("even", "odd", "both", "none")

BASELINE = SystemParams(gamma=1.0 * THZ, g=0.33 * THZ, tau=0.001 * THZ, kappa=0.1 * THZ)
thz = st.floats(1e-3, 10.0).map(lambda v: v * THZ)
PHOTONS = (0.0, 5e-324, 1e-300, 1e-12, 1e-3, 0.05, 0.1, 1.0, 3.0, 30.0, 1e3, 1e8, 1e300)
photons = st.one_of(st.sampled_from(PHOTONS), st.floats(0.0, 10.0))
amplitudes = st.one_of(
    st.just(0.0), st.complex_numbers(max_magnitude=1e3, allow_nan=False, allow_infinity=False)
)


@st.composite
def param_nodes(draw):
    tau = draw(st.one_of(st.just(0.0), thz))
    return SystemParams(
        gamma=draw(thz),
        g=draw(st.one_of(st.just(0.0), thz)),
        tau=tau,
        kappa=draw(st.one_of(st.just(0.0), thz)),
        delta=draw(st.floats(-5.0, 5.0).map(lambda v: v * THZ)),
    )


route_amplitudes = st.builds(RouteAmplitudes, amplitudes, amplitudes, amplitudes, amplitudes)
any_nodes = st.one_of(
    param_nodes(), st.just(NodeRouting.ideal()), st.builds(NodeRouting, route_amplitudes, route_amplitudes)
)
probes = st.one_of(st.just(0.0), st.floats(-5.0, 5.0).map(lambda v: v * THZ),
                   st.floats(-5.0, 5.0).map(lambda v: ProbeDetuning(v * THZ)))
# a nonzero state whose sum of squares underflows is rescaled now, where the
# reference refused it; those states are tested on their own below
states = st.lists(amplitudes, min_size=4, max_size=4).map(lambda a: TwoDipoleState(tuple(a))).filter(
    lambda s: s.norm() != 0.0 or not any(s.amplitudes)
)


# ------------------------------------------------------------------ tests --


@settings(max_examples=300, deadline=None)
@given(node=param_nodes(), probe=probes, on_line=st.booleans())
def test_routing_matches_reference(node, probe, on_line):
    # on the dipole line a tau = 0 node raises DegenerateDipole in both
    _assert_same(NodeRouting.from_params, reference_from_params,
                 node, node.delta if on_line else probe)


@settings(max_examples=200, deadline=None)
@given(node_a=any_nodes, node_b=any_nodes, nbar=photons)
def test_threshold_factors_match_reference(node_a, node_b, nbar):
    try:
        route_a, route_b = reference_routing(node_a, 0.0), reference_routing(node_b, 0.0)
    except NumericsError:  # a tau = 0 node with its dipole line on the probe
        return
    amps = reference_pointer_matrix(route_a, route_b, math.sqrt(nbar))
    want = reference_threshold_factors(amps)
    # the factors come back stacked in the order of the outcomes
    assert _bits(list(_threshold_factors(amps))) == _bits([want[o] for o in OUTCOMES])


def _special_nodes():
    off_line = replace(BASELINE, tau=0.0, delta=0.02 * THZ)  # tau = 0, probe off the line
    dead = NodeRouting(RouteAmplitudes(0j, 0j, 0j, 0j), RouteAmplitudes(0j, 0j, 0j, 0j))
    return [BASELINE, replace(BASELINE, g=0.0), off_line, NodeRouting.ideal(), dead]


@settings(max_examples=200, deadline=None)
@given(node_a=st.one_of(any_nodes, st.sampled_from(_special_nodes())),
       node_b=st.one_of(any_nodes, st.sampled_from(_special_nodes())),
       nbars=st.lists(photons, min_size=1, max_size=8))
def test_stacked_threshold_factors_match_each_matrix(node_a, node_b, nbars):
    try:
        route_a, route_b = reference_routing(node_a, 0.0), reference_routing(node_b, 0.0)
    except NumericsError:  # a tau = 0 node with its dipole line on the probe
        return
    amps = np.array([reference_pointer_matrix(route_a, route_b, math.sqrt(n)) for n in nbars])
    stacked = _threshold_factors(amps)
    assert stacked.shape == (len(OUTCOMES), len(nbars), 4, 4)
    for j, single in enumerate(amps):
        want = reference_threshold_factors(single)
        assert _bits(list(stacked[:, j])) == _bits([want[o] for o in OUTCOMES])
    # one more stack axis changes no bit either
    assert _bits(_threshold_factors(amps[None])[:, 0]) == _bits(stacked)


@settings(max_examples=150, deadline=None)
@given(node_a=any_nodes, node_b=any_nodes, state=states, probe=probes, nbar=photons,
       grid=st.lists(photons, max_size=6), rng_seed=st.integers(0, 2**32 - 1))
def test_protocols_match_reference(node_a, node_b, state, probe, nbar, grid, rng_seed):
    _assert_same_protocols(node_a, node_b, state, probe, nbar, grid, rng_seed)


@st.composite
def tradeoff_pairs(draw):
    # two mismatched nodes that always route (tau > 0), or two ideal ones
    if draw(st.booleans()):
        return NodeRouting.ideal(), NodeRouting.ideal()
    node = SystemParams(gamma=draw(thz), g=draw(thz), tau=draw(thz), kappa=draw(thz),
                        delta=draw(st.floats(-5.0, 5.0).map(lambda v: v * THZ)))
    scale = st.floats(0.8, 1.25)
    return node, replace(node, gamma=node.gamma * draw(scale), kappa=node.kappa * draw(scale))


@settings(max_examples=300, deadline=None)
@given(pair=tradeoff_pairs(), probe=probes,
       grid=st.lists(st.one_of(st.sampled_from((0.0, 1e-12, 1e-3, 0.05, 1.0, 3.0, 30.0)),
                               st.floats(1e-3, 10.0)), min_size=1, max_size=4))
def test_tradeoff_points_are_the_parity_probes_figures(pair, probe, grid):
    # one detector model: every point is parity_probe's on phi+, bit for bit
    node_a, node_b = pair
    phi_plus = TwoDipoleState.bell("phi_plus")
    vec = phi_plus.vector()
    for point in fidelity_success_tradeoff(node_a, node_b, probe, grid).points:
        if point.mean_photons == 0.0:
            continue
        probed = parity_probe(node_a, node_b, phi_plus, probe, point.mean_photons)
        fidelity = float(np.real(np.conj(vec) @ probed.post_states["even"] @ vec))
        success = 1.0 - probed.outcome_probabilities["none"]
        assert _bits((point.fidelity, point.success_probability)) == _bits((fidelity, success))


@pytest.mark.parametrize("nbar", PHOTONS)
def test_special_nodes_and_photon_numbers_match_reference(baseline, nbar):
    decoupled = replace(baseline, g=0.0)
    off_line = replace(baseline, tau=0.0, delta=0.02 * THZ)  # tau = 0, probe off the line
    dead = NodeRouting(RouteAmplitudes(0j, 0j, 0j, 0j), RouteAmplitudes(0j, 0j, 0j, 0j))
    pairs = [(baseline, baseline), (decoupled, baseline), (decoupled, decoupled),
             (off_line, baseline), (NodeRouting.ideal(), NodeRouting.ideal()),
             (NodeRouting.ideal(), baseline), (dead, dead)]
    zero_heavy = [TwoDipoleState.bell(label) for label in ("phi_plus", "psi_minus")] + [
        TwoDipoleState((1.0, 0.0, 0.0, 0.0)), TwoDipoleState((0.0, 0.0, 0.0, 2.0j)),
        TwoDipoleState((0.0, 0.0, 0.0, 0.0)),
    ]
    for node_a, node_b in pairs:
        for state in zero_heavy:
            _assert_same_protocols(node_a, node_b, state, 0.0, nbar, [0.0, nbar, 2.0 * nbar])


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, -1.0, -5e-324])
def test_photon_number_errors_match_reference(baseline, bad):
    state = TwoDipoleState.bell("phi_plus")
    _assert_same_protocols(baseline, baseline, state, 0.0, bad, [0.5, bad])


def test_non_finite_tradeoff_herald_matches_reference():
    # at 1e300 photons the even-outcome probability is nan: both refuse it
    node_a, node_b = SystemParams(1e12, 0, 0, 0), SystemParams(8e12, 0, 0, 0)
    with pytest.raises(InvalidRegime, match=r"^even-parity herald probability is not finite: P = nan$"):
        reference_fidelity_success_tradeoff(node_a, node_b, 1e12, [1e300])
    _assert_same(fidelity_success_tradeoff, reference_fidelity_success_tradeoff,
                 node_a, node_b, 1e12, [0.0, 1.0, 1e300])


def test_protocols_pool_matches_reference():
    # every output of the seed-0 pool of the benchmark's protocols workload
    work = workloads.Protocols(0, "")
    for case in work.pool:
        a, b, probe = case.node_a, case.node_b, case.probe
        for state in [*work.bell_states, case.state]:
            _assert_same(bell_measurement, reference_bell_measurement,
                         a, b, state, probe, case.nbar_bell)
        got = _bits(bell_measurement(a, b, case.state, probe, case.nbar_bell,
                                     rng=np.random.default_rng(case.rng_seed)))
        want = _bits(reference_bell_measurement(a, b, case.state, probe, case.nbar_bell,
                                                rng=np.random.default_rng(case.rng_seed)))
        assert got == want
        _assert_same(parity_probe, reference_checked_parity_probe, a, b, case.state, probe,
                     case.nbar_parity)
        _assert_same(false_even_probability, reference_false_even_probability, a, b, probe)
        _assert_same(entanglement_generation, reference_entanglement_generation,
                     a, b, probe, case.nbar_entangle)
        _assert_same(fidelity_success_tradeoff, reference_fidelity_success_tradeoff,
                     a, b, probe, case.nbar_grid)
        for node in (a, b):
            if isinstance(node, SystemParams):
                _assert_same(NodeRouting.from_params, reference_from_params, node, probe)


# ------------------------------------------------- work the results skip --


def test_routing_builds_no_params_and_no_coefficients(baseline, monkeypatch):
    built = []
    init = SystemParams.__init__

    def counting(self, *args, **kwargs):
        built.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(SystemParams, "__init__", counting)
    monkeypatch.setattr(core, "ScatterCoefficients", None)  # building one would fail
    NodeRouting.from_params(baseline, 0.0)
    fidelity_success_tradeoff(baseline, baseline, 0.0, [0.0, 0.5, 1.0])
    false_even_probability(baseline, baseline, 0.0)
    assert built == []


def test_false_even_and_tradeoff_skip_the_parity_probe(baseline, monkeypatch):
    def fail(*args, **kwargs):
        raise AssertionError("parity_probe called")

    monkeypatch.setattr(repeater, "parity_probe", fail)
    fidelity_success_tradeoff(baseline, baseline, 0.0, [0.0, 0.5, 1.0])
    false_even_probability(baseline, baseline, 0.0)
    for label in ("phi_plus", "psi_minus"):
        bell_measurement(baseline, baseline, TwoDipoleState.bell(label), 0.0, 1.0)


def _counting_eigensolve(monkeypatch):
    """Every density the protocols hand to ``_dominant_pure_state``, in order."""
    calls = []

    def counting(rho):
        calls.append(rho)
        return _dominant_pure_state(rho)

    monkeypatch.setattr(repeater, "_dominant_pure_state", counting)
    return calls


@pytest.mark.parametrize("pair", ["ideal", "params"])
def test_post_state_is_formed_on_first_read_only(baseline, monkeypatch, pair):
    if pair == "ideal":
        node_a = node_b = NodeRouting.ideal()
    else:
        node_a, node_b = baseline, replace(baseline, gamma=2.0 * THZ)
    calls = _counting_eigensolve(monkeypatch)
    results = []
    for label in BELL_LABELS:
        state = TwoDipoleState.bell(label)
        results.append(bell_measurement(node_a, node_b, state, 0.0, 1.0).result)
        results.append(bell_measurement(node_a, node_b, state, 0.0, 1.0,
                                        rng=np.random.default_rng(5)).result)
    results.append(entanglement_generation(node_a, node_b, 0.0, 0.05))
    assert calls == []
    for result in results:
        with pytest.raises(ValueError):
            result.density[0, 0] = 1.0
        first = result.post_state
        assert len(calls) == 1 and calls[0] is result.density
        assert result.post_state is first
        assert len(calls) == 1
        assert _bits(first) == _bits(_dominant_pure_state(result.density))
        calls.clear()


@pytest.mark.parametrize("node", ["dead", "decoupled"])
def test_no_herald_returns_the_product_state_as_given(baseline, monkeypatch, node):
    if node == "dead":
        node = NodeRouting(RouteAmplitudes(0j, 0j, 0j, 0j), RouteAmplitudes(0j, 0j, 0j, 0j))
    else:
        node = replace(baseline, g=0.0)  # no routing contrast between the arms
    calls = _counting_eigensolve(monkeypatch)
    result = entanglement_generation(node, node, 0.0, 0.05)
    product = TwoDipoleState((repeater._SQRT_HALF * repeater._SQRT_HALF,) * 4)
    assert product.amplitudes == (0.4999999999999999 + 0j,) * 4  # two ulps below 0.5
    assert _bits((result.post_state, result.fidelity, result.success_probability)) == _bits(
        (product, 0.0, 0.0))
    assert calls == []
    # the eigenvector of its projector rounds to 0.5, and _bits tells the two apart
    assert _dominant_pure_state(result.density).amplitudes == (0.5 + 0j,) * 4
    assert _bits(result) != _bits(ProtocolResult(result.density, 0.0, 0.0))


# ------------------------------------------------------ the engine's memo --
#
# Consecutive calls on the same node and probe objects reuse the engine's last
# routing, pointer matrix and factors; every result must still be the
# reference's, bit for bit, whatever ran before it.


def _each_protocol(fns, node_a, node_b, state, probe, nbar):
    """Every protocol's outcome on one pair, in one order, as bits."""
    parity, bell, false_even, entangle, tradeoff = fns
    return (
        _outcome(parity, node_a, node_b, state, probe, nbar),
        _outcome(bell, node_a, node_b, state, probe, nbar),
        _outcome(bell, node_a, node_b, state, probe, nbar, rng=np.random.default_rng(3)),
        _outcome(false_even, node_a, node_b, probe),
        _outcome(entangle, node_a, node_b, probe, 0.05),
        _outcome(tradeoff, node_a, node_b, probe, [0.0, nbar]),
    )


PROTOCOLS = (parity_probe, bell_measurement, false_even_probability,
             entanglement_generation, fidelity_success_tradeoff)
REFERENCES = (reference_checked_parity_probe, reference_bell_measurement,
              reference_false_even_probability, reference_entanglement_generation,
              reference_fidelity_success_tradeoff)


def _assert_memo_safe(node_a, node_b, state, probe, nbar):
    want = _each_protocol(REFERENCES, node_a, node_b, state, probe, nbar)
    assert _each_protocol(PROTOCOLS, node_a, node_b, state, probe, nbar) == want
    return want


def test_memo_serves_interleaved_pairs(baseline):
    pair_a = (baseline, replace(baseline, gamma=2.0 * THZ))
    pair_b = (replace(baseline, g=0.1 * THZ), NodeRouting.ideal())
    probe = ProbeDetuning(0.01 * THZ)
    for node_a, node_b in (pair_a, pair_b, pair_a, pair_a, pair_b):
        for label in ("phi_plus", "psi_minus"):
            _assert_memo_safe(node_a, node_b, TwoDipoleState.bell(label), probe, 1.5)
    # one call at a time, alternating pairs
    state = TwoDipoleState.bell("psi_plus")
    for node_a, node_b in (pair_a, pair_b, pair_a):
        _assert_same(bell_measurement, reference_bell_measurement, node_a, node_b, state, probe, 1.5)


def test_memo_keeps_equal_but_distinct_objects_apart():
    # equal by ==, but the zeros of one carry a minus sign: the pointer matrix differs
    z = complex(-0.0, -0.0)
    ideal = NodeRouting.ideal()
    twin = NodeRouting(RouteAmplitudes(1.0 + 0.0j, z, z, z), RouteAmplitudes(z, -1.0 + 0.0j, z, z))
    assert twin == ideal and twin is not ideal
    state = TwoDipoleState.bell("psi_plus")
    first = _assert_memo_safe(ideal, ideal, state, 0.0, 1.0)
    second = _assert_memo_safe(twin, twin, state, 0.0, 1.0)
    assert first != second
    # equal-valued nodes and probes built apart
    nodes = [SystemParams(1.0 * THZ, 0.33 * THZ, 0.001 * THZ, 0.1 * THZ) for _ in range(2)]
    probes = [ProbeDetuning(0.002 * THZ), ProbeDetuning(0.002 * THZ), float("2e9"), float("2e9")]
    for node in nodes:
        for probe in probes:
            _assert_memo_safe(node, nodes[0], state, probe, 1.0)


def test_memo_keeps_signed_zero_photon_numbers_apart(baseline):
    state = TwoDipoleState.bell("phi_plus")
    for nbar in (0.0, -0.0, 0.0, -0.0):
        _assert_same(parity_probe, reference_checked_parity_probe, baseline, baseline, state, 0.0, nbar)
    assert _bits(parity_probe(baseline, baseline, state, 0.0, 0.0)) != _bits(
        parity_probe(baseline, baseline, state, 0.0, -0.0))


def test_memo_recomputes_a_probe_changed_in_place(baseline):
    probe = np.array(0.0)
    state = TwoDipoleState.bell("phi_minus")
    before = _assert_memo_safe(baseline, baseline, state, probe, 1.0)
    probe[()] = 0.02 * THZ
    after = _assert_memo_safe(baseline, baseline, state, probe, 1.0)
    assert before != after


def test_writing_into_a_returned_pointer_leaves_the_next_result(baseline):
    state = TwoDipoleState.bell("psi_plus")
    args = (baseline, baseline, state, 0.0, 1.0)
    want = _bits(reference_checked_parity_probe(*args))
    first = parity_probe(*args)
    first.pointer.amplitudes[:] = 7.0
    assert _bits(parity_probe(*args)) == want
    assert _bits(bell_measurement(*args)) == _bits(reference_bell_measurement(*args))


def test_a_call_that_raises_leaves_the_memo_as_it_was(baseline):
    state = TwoDipoleState.bell("phi_plus")
    on_line = replace(baseline, tau=0.0)  # tau = 0 with its dipole line on the probe
    dead = NodeRouting(RouteAmplitudes(0j, 0j, 0j, 0j), RouteAmplitudes(0j, 0j, 0j, 0j))
    failing = [
        (bell_measurement, (baseline, baseline, state, 0.0, -1.0)),  # ValueError
        (bell_measurement, (baseline, baseline, state, math.nan, 1.0)),  # ValueError
        (bell_measurement, (dead, dead, state, 0.0, 1.0)),  # InvalidRegime
        (parity_probe, (baseline, on_line, state, 0.0, 1.0)),  # DegenerateDipole
        (entanglement_generation, (baseline, baseline, 0.0, 0.5)),  # InvalidRegime
        (false_even_probability, (baseline, "node", 0.0)),  # TypeError
    ]
    want = _assert_memo_safe(baseline, baseline, state, 0.0, 1.0)
    for fn, args in failing:
        reference = REFERENCES[PROTOCOLS.index(fn)]
        got = _outcome(fn, *args)
        assert got == _outcome(reference, *args) and isinstance(got[0], type)
        assert _outcome(fn, *args) == got  # the same call raises the same way again
        assert _assert_memo_safe(baseline, baseline, state, 0.0, 1.0) == want


def test_threads_on_two_pairs_match_a_serial_run(baseline):
    pairs = [(baseline, replace(baseline, gamma=2.0 * THZ), ProbeDetuning(0.0), 1.0),
             (replace(baseline, g=0.2 * THZ), baseline, 0.01 * THZ, 2.5)]
    states = [TwoDipoleState.bell(label) for label in ("phi_plus", "phi_minus", "psi_plus")]

    def work(k):
        # _bits reads each post_state, so its deferred eigensolve runs in the thread
        out = []
        for r in range(40):
            node_a, node_b, probe, nbar = pairs[(k + r // 3) % 2]
            state = states[r % 3]
            out.append(_bits(bell_measurement(node_a, node_b, state, probe, nbar)))
            out.append(_bits(parity_probe(node_a, node_b, state, probe, nbar)))
            out.append(_bits(false_even_probability(node_a, node_b, probe)))
            out.append(_bits(entanglement_generation(node_a, node_b, probe, 0.05)))
        return out

    serial = [work(k) for k in range(4)]
    threaded = [None] * 4

    def run(k):
        threaded[k] = work(k)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads as often as the interpreter can
    try:
        threads = [threading.Thread(target=run, args=(k,)) for k in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert threaded == serial


def test_threads_reading_one_post_state_first_see_the_same_bits(baseline):
    # no lock: two first reads both form the state, and either one may be kept
    results = [bell_measurement(baseline, baseline, TwoDipoleState.bell(label), 0.0, 1.0).result
               for label in BELL_LABELS] + [entanglement_generation(baseline, baseline, 0.0, 0.05)]
    want = [_bits(_dominant_pure_state(r.density)) for r in results]
    seen = [None] * 4

    def run(k):
        seen[k] = [_bits(r.post_state) for r in results]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=run, args=(k,)) for k in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert seen == [want] * 4
    assert [_bits(r.post_state) for r in results] == want


def test_cli_bell_over_four_states_interrogates_the_pair_once(tmp_path, monkeypatch):
    calls = {"from_params": 0, "threshold_factors": 0}
    from_params, factors = NodeRouting.from_params.__func__, repeater._threshold_factors

    def counting_from_params(cls, params, probe):
        calls["from_params"] += 1
        return from_params(cls, params, probe)

    def counting_factors(*args, **kwargs):
        calls["threshold_factors"] += 1
        return factors(*args, **kwargs)

    monkeypatch.setattr(NodeRouting, "from_params", classmethod(counting_from_params))
    monkeypatch.setattr(repeater, "_threshold_factors", counting_factors)
    conf = tmp_path / "bell.conf"
    conf.write_text("mean_photons: 1.0\n")
    assert cli.main(["bell", "--config", str(conf), "--out", str(tmp_path)]) == 0
    assert calls == {"from_params": 2, "threshold_factors": 1}


# ---------------------------------------------------------------- sampler --
#
# ``_draw`` runs the steps of ``Generator.choice`` after its input checks, so
# it must give choice's indices and leave the generator where choice leaves it.

positive_weights = st.floats(1e-300, 1e300)


@st.composite
def weight_lists(draw, sizes=st.integers(1, 4)):
    n = draw(sizes)
    kind = draw(st.sampled_from(("any", "equal", "tiny", "unit sum")))
    if kind == "equal":
        return [draw(positive_weights)] * n
    weights = draw(st.lists(positive_weights, min_size=n, max_size=n))
    if kind == "tiny":  # one outcome near the herald floor
        weights[draw(st.integers(0, n - 1))] = draw(st.floats(1e-300, 2e-300))
    elif kind == "unit sum":  # a distribution as the protocols report it
        weights = (np.asarray(weights) / math.fsum(weights)).tolist()
    return weights


def _choice(rng, weights, size):
    p = np.asarray(weights, dtype=float)
    return rng.choice(len(p), size, p=p / p.sum())


@settings(max_examples=400, deadline=None)
@given(weights=weight_lists(), seed=st.integers(0, 2**64 - 1),
       size=st.sampled_from((None, 0, 1, 500)), as_array=st.booleans())
def test_draw_matches_generator_choice(weights, seed, size, as_array):
    ours, theirs = np.random.default_rng(seed), np.random.default_rng(seed)
    got = _draw(ours, np.asarray(weights) if as_array else weights, size)
    want = _choice(theirs, weights, size)
    assert type(got) is type(want)
    assert np.shape(got) == np.shape(want) and np.asarray(got).dtype == np.asarray(want).dtype
    assert np.array_equal(got, want)
    assert np.all(np.asarray(got) < len(weights))
    assert ours.bit_generator.state == theirs.bit_generator.state


class _FixedUniform(np.random.Generator):
    """A generator whose ``random`` returns ``u``; ``choice`` reads it too."""

    def __init__(self, u):
        super().__init__(np.random.PCG64(0))
        self.u = u

    def random(self, size=None, dtype=np.float64, out=None):
        return self.u if size in (None, ()) else np.full(size, self.u)


def _float(bits):
    return struct.unpack("<d", struct.pack("<q", bits))[0]


def _switch_points(weights):
    """The bit patterns in [0, 1) at which choice's pick moves up, found by
    bisection with choice itself as the oracle."""
    p = np.asarray(weights, dtype=float)

    def pick(bits):
        return _FixedUniform(_float(bits)).choice(len(p), p=p / p.sum())

    points, lo, top = [], 0, struct.unpack("<q", struct.pack("<d", np.nextafter(1.0, 0.0)))[0]
    while pick(lo) < pick(top):
        floor, hi = pick(lo), top  # hi: the smallest bits picking above floor
        while hi - lo > 1:
            mid = (lo + hi) // 2
            lo, hi = (lo, mid) if pick(mid) > floor else (mid, hi)
        points.append(hi)
        lo = hi
    return points


@settings(max_examples=200, deadline=None)
@given(weights=weight_lists(st.integers(1, 9)), size=st.sampled_from((None, 3)))
def test_draw_switches_outcome_exactly_where_choice_does(weights, size):
    # numpy sums 8 or more weights pairwise; _draw must sum them as choice does
    switches = _switch_points(weights)
    for bits in [0, *switches, *(b - 1 for b in switches)]:
        u = _float(bits)
        want = _choice(_FixedUniform(u), weights, size)
        got = _draw(_FixedUniform(u), weights, size)
        assert type(got) is type(want) and np.array_equal(got, want)
        assert np.all(np.asarray(got) < len(weights))


@pytest.mark.parametrize("size", [None, 3])
def test_draw_on_a_cumulative_boundary_picks_the_next_outcome(size):
    weights = [1.0, 1.0, 2.0, 1e-300]  # cumulative 0.25, 0.5, 1.0, 1.0
    below_one = np.nextafter(1.0, 0.0)
    for u, want in ((0.0, 0), (np.nextafter(0.25, 0.0), 0), (0.25, 1), (0.5, 2), (below_one, 2)):
        got = _draw(_FixedUniform(u), weights, size)
        assert np.array_equal(got, np.full(size, want) if size else want)
        assert np.array_equal(_choice(_FixedUniform(u), weights, size), got)


def _banned(node) -> bool:
    """A ``.choice(`` call, or a float sum whose bits depend on the Python
    version: builtin ``sum`` (compensated from 3.12), ``math.fsum`` or the
    ``statistics`` module."""
    if isinstance(node, ast.Call):
        func = node.func
        return (isinstance(func, ast.Name) and func.id == "sum"
                or isinstance(func, ast.Attribute) and (func.attr == "choice" or func.attr == "fsum"))
    if isinstance(node, ast.Import):
        return any(alias.name.split(".")[0] == "statistics" for alias in node.names)
    if isinstance(node, ast.ImportFrom):
        return node.module == "statistics" or node.module == "math" and any(
            alias.name == "fsum" for alias in node.names)
    return False


def test_no_choice_call_is_left_in_the_package():
    # nor a float sum whose bits depend on the Python version
    for text in ("sum(p)", "math.fsum(p)", "from math import fsum", "import statistics",
                 "from statistics import fmean", "rng.choice(4)"):
        assert any(_banned(node) for node in ast.walk(ast.parse(text))), text
    package = os.path.join(ROOT, "src", "ditsim")
    for name in sorted(os.listdir(package)):
        if name.endswith(".py"):
            with open(os.path.join(package, name), encoding="utf-8") as f:
                tree = ast.parse(f.read())
            assert [node.lineno for node in ast.walk(tree) if _banned(node)] == [], name


# --------------------------------------------------------- error contract --

BAD_NUMBERS = (math.nan, math.inf, -math.inf, -1.0, -1e300, 1e300, 1e-300, 5e-324, -5e-324, 0.0)
BAD_OTHER = (None, "0.5", "1e9", "nan", "", b"1", 1 + 2j, [0.5], object())
bad_values = st.one_of(st.sampled_from(BAD_NUMBERS + BAD_OTHER), st.floats(), st.text(max_size=4))


def _only_contract_errors(fn, *args, **kwargs):
    try:
        result = fn(*args, **kwargs)
        if isinstance(result, BellMeasurementRecord):
            result = result.result
        if isinstance(result, ProtocolResult):
            result.post_state  # formed on first read, under the same contract
    except (ValueError, NumericsError):
        pass


@settings(max_examples=200, deadline=None)
@given(bad=bad_values, node=st.sampled_from(("params", "ideal")), slot=st.integers(0, 3))
def test_repeater_entry_points_raise_only_contract_errors(bad, node, slot):
    baseline = BASELINE
    node = baseline if node == "params" else NodeRouting.ideal()
    state = TwoDipoleState.bell("phi_plus")
    good_nbar, good_probe = 0.05, 0.0
    nbar = bad if slot in (0, 2) else good_nbar
    probe = bad if slot in (1, 2) else good_probe
    _only_contract_errors(parity_probe, node, node, state, probe, nbar)
    _only_contract_errors(bell_measurement, node, node, state, probe, nbar)
    _only_contract_errors(false_even_probability, node, node, probe)
    _only_contract_errors(entanglement_generation, node, node, probe, nbar)
    _only_contract_errors(fidelity_success_tradeoff, node, node, probe, [0.0, nbar])
    _only_contract_errors(NodeRouting.from_params, baseline, probe)
    _only_contract_errors(TwoDipoleState, (bad, 1.0, 0.0, 0.0))
    _only_contract_errors(TwoDipoleState, bad)
    if slot == 3:  # a state built from the bad value, when it is one
        try:
            odd = TwoDipoleState((bad, bad, 1.0, 0.0))
        except ValueError:
            return
        _only_contract_errors(bell_measurement, node, node, odd, good_probe, 1.0)
        _only_contract_errors(parity_probe, node, node, odd, good_probe, 1.0)


@pytest.mark.parametrize("bad", [None, "0.5", "1e9", b"1", 1 + 2j, [0.5], np.complex128(0.5)])
def test_non_numbers_are_refused_by_name(baseline, bad):
    state = TwoDipoleState.bell("phi_plus")
    for fn in (parity_probe, bell_measurement):
        with pytest.raises(ValueError, match="mean_photons"):
            fn(baseline, baseline, state, 0.0, bad)
        with pytest.raises(ValueError, match="probe detuning"):
            fn(baseline, baseline, state, bad, 0.5)
    with pytest.raises(ValueError, match="mean_photons"):
        entanglement_generation(baseline, baseline, 0.0, bad)
    with pytest.raises(ValueError, match="mean_photons"):
        fidelity_success_tradeoff(baseline, baseline, 0.0, [0.5, bad])
    with pytest.raises(ValueError, match="probe detuning"):
        false_even_probability(baseline, baseline, bad)
    with pytest.raises(ValueError, match="probe detuning"):
        NodeRouting.from_params(baseline, bad)
    with pytest.raises(ValueError, match="delta_omega must be a real number"):
        ProbeDetuning(bad)
    with pytest.raises(ValueError, match="grid endpoint start must be a real number"):
        DetuningGrid(bad, 1.0, 3)
    with pytest.raises(ValueError, match="grid endpoint stop must be a real number"):
        DetuningGrid(0.0, bad, 3)
    if not isinstance(bad, complex):
        with pytest.raises(ValueError, match="amplitudes"):
            TwoDipoleState((1.0, bad, 0.0, 0.0))
    with pytest.raises(ValueError, match="amplitudes"):
        TwoDipoleState(None)


def test_ints_and_numpy_numbers_stay_accepted(baseline):
    state = TwoDipoleState.bell("psi_plus")
    want = _bits(parity_probe(baseline, baseline, state, 0.0, 2.0))
    for nbar in (2, np.float64(2.0), np.float32(2.0), np.int64(2)):
        for probe in (0, np.float64(0.0), np.int32(0), ProbeDetuning(0)):
            assert _bits(parity_probe(baseline, baseline, state, probe, nbar)) == want
    assert TwoDipoleState((1, 0, np.float64(0.0), 0)).amplitudes == (1, 0, 0, 0)


# ----------------------------------------------------- norm out of range --


@pytest.mark.parametrize("scale", [1e300, 1e-320, 5e-324, 1.7e308])
def test_states_outside_the_normal_range_normalize(baseline, scale):
    plain = TwoDipoleState((1.0, 1.0j, 0.0, 0.0))
    big = TwoDipoleState((scale, scale * 1j, 0.0, 0.0))
    assert big.normalized().amplitudes == plain.normalized().amplitudes
    want = bell_measurement(baseline, baseline, plain, 0.0, 1.0)
    assert _bits(bell_measurement(baseline, baseline, big, 0.0, 1.0)) == _bits(want)
    assert _bits(parity_probe(baseline, baseline, big, 0.0, 1.0)) == _bits(
        parity_probe(baseline, baseline, plain, 0.0, 1.0)
    )


def test_norm_overflow_reports_infinity_and_zero_still_fails():
    assert TwoDipoleState((1e300, 1e300, 0.0, 0.0)).norm() == math.inf
    assert TwoDipoleState((complex(1e308, 1e308), 0.0, 0.0, 0.0)).norm() == math.inf
    huge = TwoDipoleState((complex(1.7e308, 1.7e308), 0.0, 0.0, 0.0)).normalized()
    assert huge.norm() == pytest.approx(1.0)
    with pytest.raises(ValueError, match="cannot normalize a zero state"):
        TwoDipoleState((0.0, 0.0, 0.0, 0.0)).normalized()


def test_norm_adds_the_squares_left_to_right():
    # the builtin sum compensates from Python 3.12 and gives 8.306 here
    amps = (1.98 - 0.09j, 0.65 + 0.62j, -0.28 - 1.55j, 0.96 - 0.41j)
    state = TwoDipoleState(amps)
    assert state.norm() == 8.306000000000001
    assert state.normalized().amplitudes == tuple(a / math.sqrt(8.306000000000001) for a in amps)


@settings(max_examples=300, deadline=None)
@given(state=states)
def test_normal_range_states_keep_their_bits(state):
    _assert_same(lambda s: s.normalized().vector(), reference_normalized_vector, state)
