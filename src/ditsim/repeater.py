"""Coherent-field repeater protocols built on conditional cavity routing.

Each node stores a qubit in two dipole levels: |g> couples to the cavity and
makes the node transparent (through), |m> is decoupled so the node acts as a
bare drop filter (drop, with a sign flip).  A weak coherent probe therefore
routes conditionally on the qubit, which yields

* heralded entanglement generation: split a weak beam onto two nodes and
  recombine; a click in a dark port projects the pair onto the singlet,
* a nondestructive parity measurement: send the probe through two nodes in
  series on a shared waveguide pair; even-parity states return it to the
  input waveguide, odd-parity states move it to the other one,
* a full Bell-state classifier: parity, dipole-basis Hadamards, parity.

Fields stay coherent throughout, so every branch of the dipole state drags a
product of coherent pointer amplitudes (detector ports plus loss channels).
Loss channels are traced out, which suppresses coherences between branches by
coherent-state overlap factors; detectors are threshold detectors (click =
not vacuum).  The probe must stay in the weak-excitation regime; protocol
entry points guard the mean photon number where the model requires it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Mapping, Sequence, Union

import numpy as np

from .core import (
    NumericsError,
    Probe,
    SystemParams,
    scatter_coefficients,
)

BASIS = ("gg", "gm", "mg", "mm")
PORTS = ("even", "odd", "kappa_a", "tau_a", "kappa_b", "tau_b")
BELL_LABELS = ("phi_plus", "phi_minus", "psi_plus", "psi_minus")

# (first parity, second parity) -> Bell label.  Parity is preserved by the
# probe, and the dipole-basis Hadamard pair fixes phi+ and psi- while
# exchanging phi- with psi+, so the signature pairs are all distinct.
PARITY_TO_BELL = {
    ("even", "even"): "phi_plus",
    ("even", "odd"): "phi_minus",
    ("odd", "even"): "psi_plus",
    ("odd", "odd"): "psi_minus",
}

_SQRT_HALF = 1.0 / math.sqrt(2.0)

# kron(H, H) for the dipole-basis Hadamard; entries are exactly +-1/2
_HADAMARD_PAIR = 0.5 * np.array(
    [
        [1.0, 1.0, 1.0, 1.0],
        [1.0, -1.0, 1.0, -1.0],
        [1.0, 1.0, -1.0, -1.0],
        [1.0, -1.0, -1.0, 1.0],
    ]
)

_PROB_FLOOR = 1e-300


class InvalidRegime(NumericsError):
    """Requested operating point violates the protocol's validity regime."""


# ============================================================ qubit states ==


@dataclass(frozen=True)
class DipoleQubit:
    """Single dipole qubit over the coupled |g> / decoupled |m> levels."""

    amplitude_g: complex
    amplitude_m: complex

    def __post_init__(self):
        for name in ("amplitude_g", "amplitude_m"):
            value = complex(getattr(self, name))
            if not (math.isfinite(value.real) and math.isfinite(value.imag)):
                raise ValueError(f"{name} must be finite, got {value!r}")
            object.__setattr__(self, name, value)

    def norm(self) -> float:
        return abs(self.amplitude_g) ** 2 + abs(self.amplitude_m) ** 2

    def normalized(self) -> "DipoleQubit":
        n = math.sqrt(self.norm())
        if n == 0.0:
            raise ValueError("cannot normalize a zero qubit state")
        return DipoleQubit(self.amplitude_g / n, self.amplitude_m / n)


def hadamard(qubit: DipoleQubit) -> DipoleQubit:
    """Dipole-basis Hadamard: g -> (g+m)/sqrt2, m -> (g-m)/sqrt2.

    Unitary and involutive: applying it twice returns the input state.
    """
    return DipoleQubit(
        _SQRT_HALF * (qubit.amplitude_g + qubit.amplitude_m),
        _SQRT_HALF * (qubit.amplitude_g - qubit.amplitude_m),
    )


@dataclass(frozen=True)
class TwoDipoleState:
    """Pure state of two dipole qubits, amplitudes over ``BASIS`` order."""

    amplitudes: tuple[complex, complex, complex, complex]

    def __post_init__(self):
        amps = tuple(complex(a) for a in self.amplitudes)
        if len(amps) != 4:
            raise ValueError(f"need 4 amplitudes over {BASIS}, got {len(amps)}")
        for a in amps:
            if not (math.isfinite(a.real) and math.isfinite(a.imag)):
                raise ValueError(f"amplitudes must be finite, got {a!r}")
        object.__setattr__(self, "amplitudes", amps)

    def vector(self) -> np.ndarray:
        return np.array(self.amplitudes, dtype=complex)

    def norm(self) -> float:
        return float(sum(abs(a) ** 2 for a in self.amplitudes))

    def normalized(self) -> "TwoDipoleState":
        n = math.sqrt(self.norm())
        if n == 0.0:
            raise ValueError("cannot normalize a zero state")
        return TwoDipoleState(tuple(a / n for a in self.amplitudes))

    def fidelity(self, other: "TwoDipoleState") -> float:
        a = self.normalized().vector()
        b = other.normalized().vector()
        return float(abs(np.vdot(a, b)) ** 2)

    @classmethod
    def product(cls, qubit_a: DipoleQubit, qubit_b: DipoleQubit) -> "TwoDipoleState":
        a, b = qubit_a, qubit_b
        return cls(
            (
                a.amplitude_g * b.amplitude_g,
                a.amplitude_g * b.amplitude_m,
                a.amplitude_m * b.amplitude_g,
                a.amplitude_m * b.amplitude_m,
            )
        )

    @classmethod
    def bell(cls, label: str) -> "TwoDipoleState":
        r = _SQRT_HALF
        table = {
            "phi_plus": (r, 0.0, 0.0, r),
            "phi_minus": (r, 0.0, 0.0, -r),
            "psi_plus": (0.0, r, r, 0.0),
            "psi_minus": (0.0, r, -r, 0.0),
        }
        if label not in table:
            raise ValueError(f"label must be one of {BELL_LABELS}, got {label!r}")
        return cls(table[label])


# ======================================================= conditional route ==


@dataclass(frozen=True)
class RouteAmplitudes:
    """Output amplitudes of one node per unit input, for one dipole label.

    ``loss_kappa`` and ``loss_tau`` multiply the *sum* of the amplitudes
    entering the node's two waveguides (the cavity is driven by that sum).
    """

    through: complex
    drop: complex
    loss_kappa: complex
    loss_tau: complex


@dataclass(frozen=True)
class NodeRouting:
    """Conditional scattering of one node at a fixed probe detuning."""

    label_g: RouteAmplitudes
    label_m: RouteAmplitudes

    def for_label(self, label: str) -> RouteAmplitudes:
        if label == "g":
            return self.label_g
        if label == "m":
            return self.label_m
        raise ValueError(f"dipole label must be 'g' or 'm', got {label!r}")

    @classmethod
    def from_params(cls, params: SystemParams, probe: Probe) -> "NodeRouting":
        def route(p: SystemParams) -> RouteAmplitudes:
            c = scatter_coefficients(p, probe)
            return RouteAmplitudes(
                through=c.t_through,
                drop=c.t_drop,
                loss_kappa=complex(math.sqrt(p.kappa) * c.b_amp),
                loss_tau=complex(math.sqrt(p.tau) * c.sigma_amp),
            )

        # |m> decouples the dipole: same node with g = 0
        return cls(label_g=route(params), label_m=route(replace(params, g=0.0)))

    @classmethod
    def ideal(cls) -> "NodeRouting":
        """Lossless limit: |g> perfectly transparent, |m> a perfect drop."""
        return cls(
            label_g=RouteAmplitudes(1.0 + 0.0j, 0.0j, 0.0j, 0.0j),
            label_m=RouteAmplitudes(0.0j, -1.0 + 0.0j, 0.0j, 0.0j),
        )


Node = Union[SystemParams, NodeRouting]


def _routing(node: Node, probe: Probe) -> NodeRouting:
    if isinstance(node, NodeRouting):
        return node
    if isinstance(node, SystemParams):
        return NodeRouting.from_params(node, probe)
    raise TypeError(f"node must be SystemParams or NodeRouting, got {type(node)!r}")


def conditional_route(node: Node, label: str, probe: Probe) -> RouteAmplitudes:
    """Output amplitudes for a unit probe conditioned on the dipole label.

    With the dipole in |g> a high-cooperativity node transmits the probe
    (through ~ 1); in |m> it behaves as a bare drop filter (drop ~ -1).
    """
    return _routing(node, probe).for_label(label)


# ====================================================== pointer bookkeeping ==


@dataclass(frozen=True, eq=False)
class PointerRecord:
    """Coherent pointer amplitudes of one probe pass.

    ``amplitudes`` is a 4x6 complex array with rows over ``BASIS`` and
    columns over ``PORTS``: entry ``[i, j]`` is the coherent amplitude left
    in port ``PORTS[j]`` when the dipoles sit in basis state ``BASIS[i]``.
    Flux is conserved per basis state: the squared amplitudes of one row sum
    to the probe's mean photon number.
    """

    mean_photons: float
    amplitudes: np.ndarray

    def row(self, basis_state: str) -> np.ndarray:
        return self.amplitudes[BASIS.index(basis_state)]


def _mean_photons(value) -> float:
    nbar = float(value)
    if not math.isfinite(nbar) or nbar < 0.0:
        raise ValueError(f"mean_photons must be finite and >= 0, got {value!r}")
    return nbar


def _pointer_matrix(route_a: NodeRouting, route_b: NodeRouting, alpha: float) -> np.ndarray:
    """4x6 coherent amplitudes, rows over BASIS, columns over PORTS.

    The probe enters waveguide 1 of node A; both waveguides continue into
    node B.  Port 'even' is the final waveguide-1 output, 'odd' the final
    waveguide-2 output.
    """
    rows = []
    for sa in ("g", "m"):
        ra = route_a.for_label(sa)
        w1 = ra.through * alpha
        w2 = ra.drop * alpha
        loss_a = (ra.loss_kappa * alpha, ra.loss_tau * alpha)
        for sb in ("g", "m"):
            rb = route_b.for_label(sb)
            drive_b = w1 + w2
            rows.append(
                [
                    rb.through * w1 + rb.drop * w2,
                    rb.drop * w1 + rb.through * w2,
                    loss_a[0],
                    loss_a[1],
                    rb.loss_kappa * drive_b,
                    rb.loss_tau * drive_b,
                ]
            )
    return np.array(rows, dtype=complex)


def _threshold_factors(amps: np.ndarray) -> dict[str, np.ndarray]:
    """Per-outcome coherence factors M[s, s'] for threshold detection.

    Modes 0/1 (even/odd ports) end on threshold detectors, the remaining
    modes are traced.  For coherent pointer rows the conditioned two-dipole
    density matrix for an outcome is rho[s,s'] * M[s,s'] up to normalization:

        traced mode   exp(-(n_s + n_s')/2 + A_s conj(A_s'))
        silent mode   exp(-(n_s + n_s')/2)
        click mode    difference of the two lines above

    Every factor matrix is Hermitian with entries of magnitude <= 1 and
    diagnostic diagonal equal to the outcome probability per basis state.
    """
    n = np.abs(amps) ** 2
    pair_n = 0.5 * (n[:, None, :] + n[None, :, :])  # (s, s', mode)
    cross = amps[:, None, :] * np.conj(amps[None, :, :])
    traced = np.exp(-pair_n + cross)  # full trace of one mode
    silent = np.exp(-pair_n)  # vacuum projection (no click)
    click = traced - silent
    loss = np.prod(traced[:, :, 2:], axis=2)
    return {
        "even": click[:, :, 0] * silent[:, :, 1] * loss,
        "odd": silent[:, :, 0] * click[:, :, 1] * loss,
        "both": click[:, :, 0] * click[:, :, 1] * loss,
        "none": silent[:, :, 0] * silent[:, :, 1] * loss,
    }


def _probe_pass(
    node_a: Node, node_b: Node, probe: Probe, mean_photons: float
) -> tuple[PointerRecord, dict[str, np.ndarray]]:
    """One coherent probe through both nodes: pointer record and threshold factors.

    ``mean_photons`` is validated before either node is resolved.
    """
    nbar = _mean_photons(mean_photons)
    amps = _pointer_matrix(
        _routing(node_a, probe), _routing(node_b, probe), math.sqrt(nbar)
    )
    return PointerRecord(nbar, amps), _threshold_factors(amps)


def _condition(rho: np.ndarray, factor: np.ndarray) -> tuple[float, np.ndarray | None]:
    unnormalized = rho * factor
    p = float(np.trace(unnormalized).real)
    if p <= _PROB_FLOOR:
        return 0.0, None
    return p, unnormalized / p


def _dominant_pure_state(rho: np.ndarray) -> TwoDipoleState:
    """Largest-eigenvalue component of a two-dipole density matrix."""
    _, vectors = np.linalg.eigh(rho)
    vec = vectors[:, -1]
    lead = int(np.argmax(np.abs(vec)))
    phase = vec[lead] / abs(vec[lead])
    vec = vec / phase
    return TwoDipoleState(tuple(vec))


# ========================================================= parity / Bell ==


@dataclass(frozen=True, eq=False)
class ParityProbeResult:
    """Outcome of one coherent-probe parity interrogation.

    ``even_flux`` / ``odd_flux`` are mean photon numbers reaching the two
    detectors, weighted by the input state.  ``post_states`` holds the
    conditioned two-dipole density matrices (4x4, BASIS order) for the
    single-click outcomes, or None when an outcome cannot occur.
    """

    pointer: PointerRecord
    even_flux: float
    odd_flux: float
    outcome_probabilities: Mapping[str, float]
    post_states: Mapping[str, np.ndarray | None]


def parity_probe(
    node_a: Node,
    node_b: Node,
    state: TwoDipoleState,
    probe: Probe,
    mean_photons: float,
) -> ParityProbeResult:
    """Nondestructive parity measurement of two dipoles in series.

    A coherent probe of ``mean_photons`` enters waveguide 1 and traverses
    both nodes.  Even-parity basis states (gg, mm) return it to waveguide 1
    (the 'even' detector), odd-parity states move it to waveguide 2 ('odd');
    for ideal nodes the mm branch acquires two drop sign flips, so its even
    amplitude is +alpha like gg and the parity herald leaves relative phases
    inside each parity sector untouched.

    Detection is modeled with threshold detectors and traced loss channels,
    so the conditioned states include loss-induced decoherence between
    branches.
    """
    pointer, factors = _probe_pass(node_a, node_b, probe, mean_photons)
    c = state.normalized().vector()
    weights = np.abs(c) ** 2
    rho = np.outer(c, np.conj(c))
    amps = pointer.amplitudes
    return ParityProbeResult(
        pointer=pointer,
        even_flux=float(weights @ (np.abs(amps[:, 0]) ** 2)),
        odd_flux=float(weights @ (np.abs(amps[:, 1]) ** 2)),
        outcome_probabilities={
            outcome: float((weights * factors[outcome].diagonal().real).sum())
            for outcome in ("even", "odd", "both", "none")
        },
        post_states={o: _condition(rho, factors[o])[1] for o in ("even", "odd")},
    )


def false_even_probability(node_a: Node, node_b: Node, probe: Probe) -> float:
    """Fraction of detected probe flux hitting the even port for odd parity.

    Probes an equal odd-parity superposition and normalizes by the total
    detected flux; photons lost to the kappa and tau reservoirs do not
    count as detected.  This is the probability that a single detected
    photon misreports odd parity as even.
    """
    result = parity_probe(
        node_a, node_b, TwoDipoleState.bell("psi_plus"), probe, mean_photons=1.0
    )
    total = result.even_flux + result.odd_flux
    if total <= _PROB_FLOOR:
        raise InvalidRegime("no probe flux reaches the parity detectors")
    return result.even_flux / total


@dataclass(frozen=True)
class ProtocolResult:
    """Heralded protocol summary: conditioned state, fidelity, probability."""

    post_state: TwoDipoleState
    fidelity: float
    success_probability: float


@dataclass(frozen=True)
class BellOutcome:
    """Classifier verdict: Bell label plus its two-parity signature."""

    label: str
    first_parity: str
    second_parity: str


@dataclass(frozen=True, eq=False)
class BellMeasurementRecord:
    """Reported Bell outcome together with the full herald distribution."""

    outcome: BellOutcome
    result: ProtocolResult
    distribution: tuple[tuple[BellOutcome, float], ...]


def bell_measurement(
    node_a: Node,
    node_b: Node,
    state: TwoDipoleState,
    probe: Probe,
    mean_photons: float,
    rng: np.random.Generator | None = None,
) -> BellMeasurementRecord:
    """Nondestructive Bell-state classification of two dipole qubits.

    Sequence: parity probe, dipole-basis Hadamard on both qubits, second
    parity probe, Hadamard again to undo the basis rotation.  The signature
    (first, second) identifies the Bell state per ``PARITY_TO_BELL``, and
    because each parity probe preserves the states inside its parity sector
    the qubits end in the state the classifier reports (exactly so for ideal
    nodes, up to loss-induced decoherence otherwise).

    Herald outcomes are enumerated and, when ``rng`` is None, the most
    likely signature is reported; passing a seeded generator samples the
    signature from the (detection-conditioned) distribution instead.  The
    full distribution is returned either way.
    """
    _, factors = _probe_pass(node_a, node_b, probe, mean_photons)
    c = state.normalized().vector()

    def herald(rho: np.ndarray) -> dict[str, tuple[float, np.ndarray]]:
        branches = {}
        for outcome in ("even", "odd"):
            p, conditioned = _condition(rho, factors[outcome])
            if conditioned is not None:
                branches[outcome] = (p, conditioned)
        total = sum(p for p, _ in branches.values())
        if total <= _PROB_FLOOR:
            p_both, p_none = (np.trace(rho * factors[o]).real for o in ("both", "none"))
            if p_both > p_none:
                cause = f"both detectors click with certainty (P(both) = {p_both:.3g})"
            else:
                cause = f"no probe flux reaches the detectors (P(none) = {p_none:.3g})"
            raise InvalidRegime(f"parity herald cannot fire: {cause}")
        return {o: (p / total, r) for o, (p, r) in branches.items()}

    h = _HADAMARD_PAIR
    chains = []
    for first, (p1, rho1) in herald(np.outer(c, np.conj(c))).items():
        rotated = h @ rho1 @ h
        for second, (p2, rho2) in herald(rotated).items():
            final = h @ rho2 @ h  # undo the rotation: qubits keep the labeled state
            outcome = BellOutcome(
                label=PARITY_TO_BELL[(first, second)],
                first_parity=first,
                second_parity=second,
            )
            chains.append((outcome, p1 * p2, final))

    if rng is None:
        pick = max(range(len(chains)), key=lambda i: chains[i][1])
    else:
        cumulative = np.cumsum([p for _, p, _ in chains])
        draw = float(rng.random())
        pick = int(np.searchsorted(cumulative, draw, side="right"))
        pick = min(pick, len(chains) - 1)  # rounding can leave the sum below 1

    outcome, probability, final = chains[pick]
    target = TwoDipoleState.bell(outcome.label).vector()
    fidelity = float(np.real(np.conj(target) @ final @ target))
    result = ProtocolResult(
        post_state=_dominant_pure_state(final),
        fidelity=fidelity,
        success_probability=probability,
    )
    return BellMeasurementRecord(
        outcome=outcome,
        result=result,
        distribution=tuple((o, p) for o, p, _ in chains),
    )


# ============================================== heralded entanglement ==


def entanglement_generation(
    node_a: Node, node_b: Node, probe: Probe, mean_photons: float
) -> ProtocolResult:
    """Herald a two-node singlet from a split weak coherent probe.

    A coherent probe of ``mean_photons`` (at most 0.1, enforcing the
    single-photon regime) is split 50/50 onto the two nodes, each prepared
    in (|g> + |m>)/sqrt2.  The through outputs recombine on one 50/50
    coupler and the drop outputs on another, phased so that equal node
    responses interfere constructively into the bright ports.  A click in
    either dark port then requires a dipole-state contrast between the arms
    and, for identical nodes, projects the pair onto the singlet
    (|g,m> - |m,g>)/sqrt2.  The bookkeeping is first order: one detected
    photon is taken to leave every other mode in vacuum, and the kappa and
    tau loss ports are dropped, not traced.  They hold different amplitudes
    for |g> and |m>, so a loss-traced fidelity is lower (about 0.9988 at the
    reference node with nbar = 0.05) than the first-order one reported here.

    Returns the heralded state, its fidelity to the singlet and the herald
    probability per probe pulse.  ``mean_photons`` that is nan, infinite or
    negative raises ``ValueError``; 0 or above 0.1 raises ``InvalidRegime``.
    If no light can reach the dark ports (no
    routing contrast between the arms) the initial product state is returned
    with zero fidelity and zero success probability.
    """
    nbar = _mean_photons(mean_photons)
    if not 0.0 < nbar <= 0.1:
        raise InvalidRegime(
            "entanglement generation requires 0 < mean_photons <= 0.1 "
            f"(single-photon herald regime), got {mean_photons!r}"
        )
    route_a = _routing(node_a, probe)
    route_b = _routing(node_b, probe)
    alpha = math.sqrt(nbar)

    # Dark-port amplitudes per branch; input split alpha/sqrt2 into A and
    # i*alpha/sqrt2 into B, recombiners (i*armA + armB)/sqrt2 bright and
    # (armA + i*armB)/sqrt2 dark, which reduce to contrast/2 and sum/2.
    dark_through = np.zeros(4, dtype=complex)
    dark_drop = np.zeros(4, dtype=complex)
    for i, (sa, sb) in enumerate((a + b for a in "gm" for b in "gm")):
        ra = route_a.for_label(sa)
        rb = route_b.for_label(sb)
        dark_through[i] = 0.5 * alpha * (ra.through - rb.through)
        dark_drop[i] = 0.5 * alpha * (ra.drop - rb.drop)

    superposition = 0.5 * np.ones(4)  # (g+m)/sqrt2 on each node
    click_t = superposition * dark_through
    click_d = superposition * dark_drop
    p_t = float(np.vdot(click_t, click_t).real)
    p_d = float(np.vdot(click_d, click_d).real)
    herald_probability = p_t + p_d

    if herald_probability <= _PROB_FLOOR:
        plus = DipoleQubit(_SQRT_HALF, _SQRT_HALF)
        return ProtocolResult(
            post_state=TwoDipoleState.product(plus, plus),
            fidelity=0.0,
            success_probability=0.0,
        )

    singlet = TwoDipoleState.bell("psi_minus").vector()
    fidelity = 0.0
    mixture = np.zeros((4, 4), dtype=complex)
    for vec, p in ((click_t, p_t), (click_d, p_d)):
        if p <= 0.0:
            continue
        fidelity += abs(np.vdot(singlet, vec)) ** 2 / p * (p / herald_probability)
        mixture += np.outer(vec, np.conj(vec)) / herald_probability
    return ProtocolResult(
        post_state=_dominant_pure_state(mixture),
        fidelity=float(fidelity),
        success_probability=float(herald_probability),
    )


# ===================================================== fidelity tradeoff ==


@dataclass(frozen=True)
class TradeoffPoint:
    mean_photons: float
    fidelity: float
    success_probability: float


@dataclass(frozen=True)
class TradeoffTable:
    points: tuple[TradeoffPoint, ...]


def fidelity_success_tradeoff(
    node_a: Node,
    node_b: Node,
    probe: Probe,
    mean_photons_grid: Sequence[float],
) -> TradeoffTable:
    """Parity-measurement fidelity versus success over probe strength.

    For each mean photon number the probe interrogates (|gg> + |mm>)/sqrt2;
    the reported fidelity is the overlap of the even-conditioned state with
    that input, and success is 1 - exp(-n_detected) with n_detected the
    total flux reaching the two parity detectors.  A brighter probe heralds
    more reliably but leaks more which-path information into the loss
    channels, so fidelity falls as success rises.  A zero entry means no
    measurement at all: fidelity 1, success 0.
    """
    nbars = [_mean_photons(raw) for raw in mean_photons_grid]
    if any(nbars):
        # routing does not depend on the probe strength: resolve it once
        node_a, node_b = _routing(node_a, probe), _routing(node_b, probe)
    target = TwoDipoleState.bell("phi_plus")
    vec = target.vector()
    points = []
    for nbar in nbars:
        if nbar == 0.0:
            points.append(TradeoffPoint(0.0, 1.0, 0.0))
            continue
        probed = parity_probe(node_a, node_b, target, probe, nbar)
        conditioned = probed.post_states["even"]
        if conditioned is None:
            raise InvalidRegime(
                "even-parity herald cannot fire for this node configuration"
            )
        fidelity = float(np.real(np.conj(vec) @ conditioned @ vec))
        detected = probed.even_flux + probed.odd_flux
        points.append(
            TradeoffPoint(
                mean_photons=nbar,
                fidelity=fidelity,
                success_probability=float(1.0 - math.exp(-detected)),
            )
        )
    return TradeoffTable(points=tuple(points))
