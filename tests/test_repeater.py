import math
import warnings

import numpy as np
import pytest

from ditsim import (
    BASIS,
    BELL_LABELS,
    PARITY_TO_BELL,
    PORTS,
    THZ,
    InvalidRegime,
    NodeRouting,
    ProbeDetuning,
    RouteAmplitudes,
    SystemParams,
    TwoDipoleState,
    bell_measurement,
    entanglement_generation,
    false_even_probability,
    fidelity_success_tradeoff,
    parity_probe,
    scatter_coefficients,
)
from ditsim.repeater import _HADAMARD_PAIR

PROBE = ProbeDetuning(0.0)

# frozen against the pre-build enumeration script
FALSE_EVEN_BASE = 0.002969888429932798
FALSE_EVEN_G3 = 0.0009251662534133594
FALSE_EVEN_G4 = 0.0009510747863290563
HERALD_BASE = 0.011229335663440294
# fidelity, success; the successes are 1 - P(none) of the threshold detectors
TRADEOFF_G4 = {
    0.5: (0.9856988153987257, 0.3756302199117634),
    1.0: (0.971831165730574, 0.6101519084973448),
    2.0: (0.9452607434122728, 0.8480021403758595),
    3.0: (0.9201785628300811, 0.9407311958357215),
    5.0: (0.8741679771827267, 0.9909854648450181),
}


def _dead_node():
    zero = RouteAmplitudes(0j, 0j, 0j, 0j)
    return NodeRouting(label_g=zero, label_m=zero)


# ------------------------------------------------------------ state types --


def test_bell_states_are_orthonormal():
    vectors = np.array([TwoDipoleState.bell(b).vector() for b in BELL_LABELS])
    gram = vectors.conj() @ vectors.T
    assert np.max(np.abs(gram - np.eye(4))) < 1e-15


def test_bell_label_validation():
    for label in ("singlet", None, 3, [1.0], np.array(1.0), ["phi_plus"]):
        with pytest.raises(ValueError, match="phi_plus"):
            TwoDipoleState.bell(label)


def test_normalization_and_fidelity():
    state = TwoDipoleState((2.0, 0.0, 0.0, 0.0))
    assert state.normalized().norm() == pytest.approx(1.0, abs=1e-15)
    assert state.fidelity(TwoDipoleState((1.0, 0.0, 0.0, 0.0))) == pytest.approx(1.0)
    with pytest.raises(ValueError):
        TwoDipoleState((0.0, 0.0, 0.0, 0.0)).normalized()
    with pytest.raises(ValueError):
        TwoDipoleState((float("nan"), 0.0, 0.0, 0.0))


def test_hadamard_action():
    # kron(H, H) fixes phi+ and psi- (up to sign) and exchanges phi- with psi+
    vectors = {label: TwoDipoleState.bell(label).vector() for label in BELL_LABELS}
    for label, image in (("phi_plus", "phi_plus"), ("psi_minus", "psi_minus"),
                         ("phi_minus", "psi_plus"), ("psi_plus", "phi_minus")):
        overlap = np.vdot(vectors[image], _HADAMARD_PAIR @ vectors[label])
        assert abs(abs(overlap) - 1.0) < 1e-15


def test_hadamard_is_involutive():
    assert np.array_equal(_HADAMARD_PAIR @ _HADAMARD_PAIR, np.eye(4))


# ---------------------------------------------------- conditional routing --


def test_routing_matches_scattering(baseline):
    route = NodeRouting.from_params(baseline, PROBE).for_label("g")
    c = scatter_coefficients(baseline, PROBE)
    assert route.through == c.t_through
    assert route.drop == c.t_drop


def test_decoupled_label_is_bare_filter(baseline):
    route = NodeRouting.from_params(baseline, PROBE).for_label("m")
    assert route.through == pytest.approx(0.04761904761904767, rel=1e-12)
    assert route.drop == pytest.approx(-0.9523809523809523, rel=1e-12)
    assert route.loss_tau == 0.0  # nothing couples to the dipole reservoir


def test_routing_label_validation(baseline):
    with pytest.raises(ValueError, match="label"):
        NodeRouting.from_params(baseline, PROBE).for_label("x")
    with pytest.raises(TypeError, match="node must be SystemParams or NodeRouting"):
        parity_probe("not a node", baseline, TwoDipoleState.bell("phi_plus"), PROBE, 1.0)


def test_ideal_routing_limits():
    ideal = NodeRouting.ideal()
    assert ideal.label_g.through == 1.0 and ideal.label_g.drop == 0.0
    assert ideal.label_m.through == 0.0 and ideal.label_m.drop == -1.0
    assert ideal.label_g.loss_kappa == 0.0 and ideal.label_m.loss_tau == 0.0


def test_route_flux_conservation(draw_params):
    """Per dipole label: |t|^2 + |d|^2 + |loss_k|^2 + |loss_t|^2 = 1."""
    rng = np.random.default_rng(31)
    for _ in range(100):
        node = NodeRouting.from_params(draw_params(rng), rng.uniform(-2, 2) * THZ)
        for route in (node.label_g, node.label_m):
            total = (
                abs(route.through) ** 2
                + abs(route.drop) ** 2
                + abs(route.loss_kappa) ** 2
                + abs(route.loss_tau) ** 2
            )
            assert abs(total - 1.0) < 1e-9


# ------------------------------------------------------------ parity probe --


def test_pointer_rows_conserve_probe_flux(baseline, draw_params):
    rng = np.random.default_rng(41)
    state = TwoDipoleState.bell("phi_plus")
    for _ in range(20):
        nbar = rng.uniform(0.1, 4.0)
        result = parity_probe(draw_params(rng), draw_params(rng), state, PROBE, nbar)
        for basis_state in BASIS:
            row = result.pointer.row(basis_state)
            assert abs(float(np.sum(np.abs(row) ** 2)) - nbar) < 1e-9 * nbar
        assert result.pointer.amplitudes.shape == (len(BASIS), len(PORTS))


def test_parity_outcome_probabilities_sum_to_one(baseline):
    result = parity_probe(baseline, baseline, TwoDipoleState.bell("phi_plus"), PROBE, 2.0)
    assert sum(result.outcome_probabilities.values()) == pytest.approx(1.0, abs=1e-12)
    assert set(result.outcome_probabilities) == {"even", "odd", "both", "none"}


def test_ideal_even_parity_is_noiseless():
    """Perfect nodes: the probe heralds parity without touching the state."""
    ideal = NodeRouting.ideal()
    state = TwoDipoleState.bell("phi_plus")
    result = parity_probe(ideal, ideal, state, PROBE, mean_photons=1.5)
    assert result.even_flux == pytest.approx(1.5, abs=1e-12)
    assert result.odd_flux == 0.0
    probs = result.outcome_probabilities
    assert probs["even"] == pytest.approx(1.0 - math.exp(-1.5), abs=1e-12)
    assert probs["none"] == pytest.approx(math.exp(-1.5), abs=1e-12)
    assert probs["odd"] == 0.0 and probs["both"] == 0.0
    rho = result.post_states["even"]
    target = np.outer(state.vector(), state.vector().conj())
    assert np.max(np.abs(rho - target)) < 1e-12
    assert result.post_states["odd"] is None


def test_ideal_odd_states_route_to_odd_port():
    ideal = NodeRouting.ideal()
    for label in ("psi_plus", "psi_minus"):
        result = parity_probe(ideal, ideal, TwoDipoleState.bell(label), PROBE, 1.0)
        assert result.odd_flux == pytest.approx(1.0, abs=1e-12)
        assert result.even_flux == 0.0


def test_parity_even_amplitude_symmetric_under_exchange(baseline):
    # t_m t_g + d_m d_g is the same whichever node holds the bright dipole
    result = parity_probe(baseline, baseline, TwoDipoleState.bell("psi_plus"), PROBE, 1.0)
    assert result.pointer.amplitudes.shape == (len(BASIS), len(PORTS))
    gm = result.pointer.row("gm")[PORTS.index("even")]
    mg = result.pointer.row("mg")[PORTS.index("even")]
    assert gm == pytest.approx(mg, rel=1e-12)


def test_parity_post_states_are_physical(baseline):
    result = parity_probe(baseline, baseline, TwoDipoleState.bell("phi_plus"), PROBE, 2.0)
    for rho in result.post_states.values():
        assert rho is not None
        assert np.max(np.abs(rho - rho.conj().T)) < 1e-12
        assert np.trace(rho).real == pytest.approx(1.0, abs=1e-12)
        assert np.linalg.eigvalsh(rho).min() > -1e-12


def test_parity_rejects_negative_photon_number(baseline):
    with pytest.raises(ValueError):
        parity_probe(baseline, baseline, TwoDipoleState.bell("phi_plus"), PROBE, -1.0)


# -------------------------------------------------------------- false even --


def test_false_even_reference_values(make_params):
    assert false_even_probability(
        make_params(), make_params(), PROBE
    ) == pytest.approx(FALSE_EVEN_BASE, rel=1e-12)
    assert false_even_probability(
        make_params(gamma=3.0), make_params(gamma=3.0), PROBE
    ) == pytest.approx(FALSE_EVEN_G3, rel=1e-12)
    assert false_even_probability(
        make_params(gamma=4.0), make_params(gamma=4.0), PROBE
    ) == pytest.approx(FALSE_EVEN_G4, rel=1e-12)


def test_false_even_has_interior_minimum(make_params):
    gammas = np.linspace(0.5, 8.0, 50)
    values = [
        false_even_probability(make_params(gamma=gv), make_params(gamma=gv), PROBE)
        for gv in gammas
    ]
    best = int(np.argmin(values))
    assert 0 < best < len(values) - 1
    assert values[best] == pytest.approx(0.0009169751093355023, rel=1e-9)
    assert gammas[best] == pytest.approx(3.2551020408163267, rel=1e-12)


@pytest.mark.parametrize("pair", [
    ({}, {}), ({"gamma": 3.0}, {"gamma": 3.0}), ({"gamma": 4.0}, {"gamma": 3.5, "kappa": 0.12}),
    ({}, {"g": 0.2}), ("ideal", "ideal"),
])
def test_false_even_is_the_weak_probe_limit_of_parity(make_params, pair):
    # the threshold model's P(even) / (P(even) + P(odd)) on psi+ at 1e-6 photons
    node_a, node_b = (NodeRouting.ideal() if p == "ideal" else make_params(**p) for p in pair)
    want = false_even_probability(node_a, node_b, PROBE)
    p = parity_probe(node_a, node_b, TwoDipoleState.bell("psi_plus"), PROBE, 1e-6).outcome_probabilities
    assert abs(p["even"] / (p["even"] + p["odd"]) - want) <= 1e-5 * want


def test_false_even_requires_detectable_flux():
    with pytest.raises(InvalidRegime):
        false_even_probability(_dead_node(), _dead_node(), PROBE)


# ------------------------------------------------ entanglement generation --


def test_heralded_singlet_reference_nodes(baseline):
    result = entanglement_generation(baseline, baseline, PROBE, 0.05)
    assert result.success_probability == pytest.approx(HERALD_BASE, rel=1e-9)
    assert result.fidelity == pytest.approx(1.0, abs=1e-12)
    singlet = TwoDipoleState.bell("psi_minus")
    assert result.post_state.fidelity(singlet) == pytest.approx(1.0, abs=1e-12)


def test_heralded_singlet_ideal_nodes():
    ideal = NodeRouting.ideal()
    result = entanglement_generation(ideal, ideal, PROBE, 0.08)
    assert result.fidelity == pytest.approx(1.0, abs=1e-12)
    # full routing contrast on both couplers: herald probability n/4 exactly
    assert result.success_probability == pytest.approx(0.08 / 4.0, rel=1e-12)


def test_no_herald_without_routing_contrast(make_params):
    bare = make_params(g=0.0)
    result = entanglement_generation(bare, bare, PROBE, 0.05)
    assert result.success_probability == 0.0
    assert result.fidelity == 0.0


def test_asymmetric_nodes_still_herald(baseline, make_params):
    result = entanglement_generation(baseline, make_params(g=0.1), PROBE, 0.05)
    assert 0.0 < result.success_probability < 0.05
    assert 0.0 < result.fidelity <= 1.0


@pytest.mark.parametrize("bad", [0.0, 0.2])
def test_entanglement_regime_guard(baseline, bad):
    with pytest.raises(InvalidRegime):
        entanglement_generation(baseline, baseline, PROBE, bad)


@pytest.mark.parametrize("bad", [-0.01, float("nan"), float("inf"), float("-inf")])
def test_entanglement_rejects_bad_mean_photons(baseline, bad):
    with pytest.raises(ValueError, match="mean_photons"):
        entanglement_generation(baseline, baseline, PROBE, bad)


def test_herald_probability_scales_linearly(baseline):
    p1 = entanglement_generation(baseline, baseline, PROBE, 0.02).success_probability
    p2 = entanglement_generation(baseline, baseline, PROBE, 0.04).success_probability
    assert p2 == pytest.approx(2.0 * p1, rel=1e-12)


# --------------------------------------------------------- bell classifier --


def test_bell_signature_table_is_a_bijection():
    assert set(PARITY_TO_BELL.values()) == set(BELL_LABELS)
    assert len(PARITY_TO_BELL) == 4


def test_ideal_bell_classification_exact():
    ideal = NodeRouting.ideal()
    signatures = set()
    for label in BELL_LABELS:
        record = bell_measurement(
            ideal, ideal, TwoDipoleState.bell(label), PROBE, 1.0
        )
        assert record.outcome.label == label
        assert record.result.success_probability == pytest.approx(1.0, abs=1e-12)
        assert abs(record.result.fidelity - 1.0) < 1e-12
        assert record.result.post_state.fidelity(
            TwoDipoleState.bell(label)
        ) == pytest.approx(1.0, abs=1e-12)
        signatures.add((record.outcome.first_parity, record.outcome.second_parity))
    assert len(signatures) == 4


def test_physical_bell_classification(baseline):
    """Lossy nodes still classify every Bell input correctly at nbar = 1."""
    for label in BELL_LABELS:
        record = bell_measurement(baseline, baseline, TwoDipoleState.bell(label), PROBE, 1.0)
        assert record.outcome.label == label
        assert record.result.success_probability > 0.9
        assert 0.9 < record.result.fidelity <= 1.0
        total = sum(p for _, p in record.distribution)
        assert total == pytest.approx(1.0, abs=1e-12)


def test_bell_sampling_is_seed_deterministic(baseline):
    state = TwoDipoleState.bell("psi_plus")
    first = bell_measurement(
        baseline, baseline, state, PROBE, 1.0, rng=np.random.default_rng(5)
    )
    second = bell_measurement(
        baseline, baseline, state, PROBE, 1.0, rng=np.random.default_rng(5)
    )
    assert first.outcome == second.outcome
    assert first.result.success_probability == second.result.success_probability


def test_bell_sampling_follows_distribution(baseline):
    state = TwoDipoleState.bell("phi_minus")
    rng = np.random.default_rng(99)
    outcomes = [
        bell_measurement(baseline, baseline, state, PROBE, 1.0, rng=rng).outcome.label
        for _ in range(60)
    ]
    assert outcomes.count("phi_minus") > 45  # dominant branch has p ~ 0.95


def test_bell_sampling_matches_cumulative_loop(baseline):
    """The sampled signature is the first whose running sum exceeds the draw."""
    state = TwoDipoleState((0.3, 0.5j, -0.2, 0.7))
    picks = set()
    for seed in range(200):
        record = bell_measurement(
            baseline, baseline, state, PROBE, 1.0, rng=np.random.default_rng(seed)
        )
        draw = np.random.default_rng(seed).random()
        acc, pick = 0.0, len(record.distribution) - 1
        for i, (_, p) in enumerate(record.distribution):
            acc += p
            if draw < acc:
                pick = i
                break
        assert record.outcome == record.distribution[pick][0]
        picks.add(pick)
    assert len(picks) > 1


def test_bell_requires_detectable_probe():
    ideal = NodeRouting.ideal()
    with pytest.raises(InvalidRegime):
        bell_measurement(ideal, ideal, TwoDipoleState.bell("phi_plus"), PROBE, 0.0)
    with pytest.raises(InvalidRegime):
        bell_measurement(
            _dead_node(), _dead_node(), TwoDipoleState.bell("phi_plus"), PROBE, 1.0
        )


# ---------------------------------------------------------------- tradeoff --


def test_tradeoff_reference_curve(make_params):
    strong = make_params(gamma=4.0)
    table = fidelity_success_tradeoff(
        strong, strong, PROBE, sorted(TRADEOFF_G4)
    )
    for point in table.points:
        f_ref, s_ref = TRADEOFF_G4[point.mean_photons]
        assert point.fidelity == pytest.approx(f_ref, rel=1e-12)
        assert point.success_probability == pytest.approx(s_ref, rel=1e-12)


def test_tradeoff_zero_probe_point(baseline):
    table = fidelity_success_tradeoff(baseline, baseline, PROBE, [0.0])
    assert table.points[0].fidelity == 1.0
    assert table.points[0].success_probability == 0.0


def test_tradeoff_monotone(baseline):
    table = fidelity_success_tradeoff(baseline, baseline, PROBE, [0.5, 1.0, 2.0, 4.0])
    fids = [p.fidelity for p in table.points]
    succ = [p.success_probability for p in table.points]
    assert all(a > b for a, b in zip(fids, fids[1:]))
    assert all(a < b for a, b in zip(succ, succ[1:]))


def test_tradeoff_rejects_bad_photon_numbers(baseline):
    with pytest.raises(ValueError):
        fidelity_success_tradeoff(baseline, baseline, PROBE, [-0.5])
    with pytest.raises(ValueError):
        fidelity_success_tradeoff(baseline, baseline, PROBE, [float("nan")])


# ----------------------------------------------------------- error contract --


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf"), -1.0])
def test_protocols_reject_bad_photon_numbers(baseline, bad):
    state = TwoDipoleState.bell("phi_plus")
    with pytest.raises(ValueError, match="mean_photons"):
        parity_probe(baseline, baseline, state, PROBE, bad)
    with pytest.raises(ValueError, match="mean_photons"):
        bell_measurement(baseline, baseline, state, PROBE, bad)
    with pytest.raises(ValueError, match="mean_photons"):
        fidelity_success_tradeoff(baseline, baseline, PROBE, [0.5, bad])
    # the grid is checked before any node is resolved
    with pytest.raises(ValueError, match="mean_photons"):
        fidelity_success_tradeoff("not a node", "not a node", PROBE, [0.5, bad])


def test_tradeoff_resolves_routing_once(baseline, monkeypatch):
    calls = []
    original = NodeRouting.from_params.__func__

    def counting(cls, params, probe):
        calls.append(params)
        return original(cls, params, probe)

    monkeypatch.setattr(NodeRouting, "from_params", classmethod(counting))
    fidelity_success_tradeoff(baseline, baseline, PROBE, [0.0, 0.5, 1.0, 2.0])
    assert len(calls) == 2
    calls.clear()
    fidelity_success_tradeoff(baseline, baseline, PROBE, [0.0, 0.0])
    assert calls == []


def test_ideal_nodes_raise_no_runtime_warnings():
    # on ideal nodes one parity branch of each Bell state has probability 0
    ideal = NodeRouting.ideal()
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        for label in BELL_LABELS:
            state = TwoDipoleState.bell(label)
            probabilities = parity_probe(ideal, ideal, state, PROBE, 1.0).outcome_probabilities
            assert min(probabilities["even"], probabilities["odd"]) == 0.0
            bell_measurement(ideal, ideal, state, PROBE, 1.0)
            bell_measurement(ideal, ideal, state, PROBE, 1.0, rng=np.random.default_rng(1))
        fidelity_success_tradeoff(ideal, ideal, PROBE, [0.0, 0.5, 1.0, 2.0])
        entanglement_generation(ideal, ideal, PROBE, 0.05)
        false_even_probability(ideal, ideal, PROBE)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_non_finite_herald_probability_is_refused():
    # at 1e300 photons the coherent-state factors overflow to inf and nan
    node_a = SystemParams(gamma=1e12, g=0, tau=0, kappa=0)
    node_b = NodeRouting(RouteAmplitudes(0, 0, 0, 0), RouteAmplitudes(0, 0, 0, 1.5 + 1j))
    state = TwoDipoleState((0, 0, 0, 1))
    with pytest.raises(InvalidRegime, match=r"^parity herald probability is not finite: P = nan$"):
        bell_measurement(node_a, node_b, state, 0.0, 1e300)
    with pytest.raises(InvalidRegime, match=r"^parity herald probability is not finite: P\(even\)"):
        parity_probe(node_a, node_b, state, 0.0, 1e300)
    with pytest.raises(InvalidRegime, match=r"^even-parity herald probability is not finite: P = nan$"):
        fidelity_success_tradeoff(node_a, SystemParams(8e12, 0, 0, 0), 1e12, [1e300])


def test_non_finite_herald_is_refused_with_warnings_as_errors():
    # the engine's overflow at 1e300 photons is silent; the callers' finiteness
    # checks raise the contract error, not a numpy RuntimeWarning
    node_a = SystemParams(gamma=1e12, g=0, tau=0, kappa=0)
    node_b = NodeRouting(RouteAmplitudes(0, 0, 0, 0), RouteAmplitudes(0, 0, 0, 1.5 + 1j))
    state = TwoDipoleState((0, 0, 0, 1))
    calls = [
        lambda: fidelity_success_tradeoff(node_a, SystemParams(8e12, 0, 0, 0), 1e12, [1e300]),
        lambda: parity_probe(node_a, node_b, state, 0.0, 1e300),
        lambda: bell_measurement(node_a, node_b, state, 0.0, 1e300),
    ]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for call in calls:
            with pytest.raises(InvalidRegime, match="not finite"):
                call()


def test_bell_herald_failure_names_its_cause(baseline):
    state = TwoDipoleState.bell("phi_plus")
    with pytest.raises(InvalidRegime, match="no probe flux reaches the detectors"):
        bell_measurement(_dead_node(), _dead_node(), state, PROBE, 1.0)
    # at 1e8 photons both detectors click with certainty
    assert parity_probe(
        baseline, baseline, state, PROBE, 1e8
    ).outcome_probabilities["both"] == pytest.approx(1.0)
    with pytest.raises(InvalidRegime, match="both detectors click") as info:
        bell_measurement(baseline, baseline, state, PROBE, 1e8)
    assert "no probe flux" not in str(info.value)
