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
from dataclasses import dataclass
from functools import cached_property
from typing import Mapping, Sequence, Union

import numpy as np

from .core import (  # scatter_coefficients stays importable from here
    NumericsError,
    Probe,
    ProbeDetuning,
    SystemParams,
    _amplitudes,
    _dipole_loss,
    _finite,
    _iterable,
    _probe_value,
    scatter_coefficients,  # noqa: F401
)

__all__ = [
    "BASIS",
    "PORTS",
    "BELL_LABELS",
    "PARITY_TO_BELL",
    "TwoDipoleState",
    "RouteAmplitudes",
    "NodeRouting",
    "PointerRecord",
    "ParityProbeResult",
    "ProtocolResult",
    "BellOutcome",
    "BellMeasurementRecord",
    "TradeoffPoint",
    "TradeoffTable",
    "InvalidRegime",
    "parity_probe",
    "false_even_probability",
    "entanglement_generation",
    "bell_measurement",
    "fidelity_success_tradeoff",
]

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


def _constant(array: np.ndarray) -> np.ndarray:
    array.flags.writeable = False
    return array


# kron(H, H) for the dipole-basis Hadamard; entries are exactly +-1/2, stored
# complex so that products with density matrices need no cast
_HADAMARD_PAIR = _constant(
    0.5
    * np.array(
        [
            [1.0, 1.0, 1.0, 1.0],
            [1.0, -1.0, 1.0, -1.0],
            [1.0, 1.0, -1.0, -1.0],
            [1.0, -1.0, -1.0, 1.0],
        ],
        dtype=complex,
    )
)

_PROB_FLOOR = 1e-300


class InvalidRegime(NumericsError):
    """Requested operating point violates the protocol's validity regime."""


# ============================================================ qubit states ==


def _sum_squares(amps) -> float:
    """|a|^2 added left to right, or inf where it overflows.

    Not the builtin ``sum``: from Python 3.12 it compensates float sums, so
    the same state would normalize to other bits on other Python versions.
    """
    total = 0.0
    try:
        for a in amps:
            total += abs(a) ** 2
    except OverflowError:
        return math.inf
    return total


def _unit(amps: tuple) -> tuple:
    """``amps`` divided by their norm.

    Only when the plain sum of squares underflows to 0 or overflows to inf
    are the amplitudes first divided by the largest real or imaginary part,
    so every state in the normal range keeps its bits.
    """
    n = math.sqrt(_sum_squares(amps))
    if n == 0.0 or n == math.inf:
        scale = max(max(abs(a.real), abs(a.imag)) for a in amps)
        if scale == 0.0:
            raise ValueError("cannot normalize a zero state")
        amps = tuple(a / scale for a in amps)
        n = math.sqrt(_sum_squares(amps))
    return tuple(a / n for a in amps)


@dataclass(frozen=True)
class TwoDipoleState:
    """Pure state of two dipole qubits, amplitudes over ``BASIS`` order."""

    amplitudes: tuple[complex, complex, complex, complex]

    def __post_init__(self):
        try:
            if isinstance(self.amplitudes, (str, bytes)):
                raise TypeError
            raw = tuple(self.amplitudes)
        except TypeError:
            raise ValueError(
                f"amplitudes must be a sequence of 4 complex numbers, got {self.amplitudes!r}"
            ) from None
        amps = tuple(_finite(a, "amplitudes", complex) for a in raw)
        if len(amps) != 4:
            raise ValueError(f"need 4 amplitudes over {BASIS}, got {len(amps)}")
        object.__setattr__(self, "amplitudes", amps)

    def vector(self) -> np.ndarray:
        return np.array(self.amplitudes, dtype=complex)

    def norm(self) -> float:
        return _sum_squares(self.amplitudes)

    def normalized(self) -> "TwoDipoleState":
        return TwoDipoleState(_unit(self.amplitudes))

    def fidelity(self, other: "TwoDipoleState") -> float:
        a = self.normalized().vector()
        b = other.normalized().vector()
        return float(abs(np.vdot(a, b)) ** 2)

    @classmethod
    def bell(cls, label: str) -> "TwoDipoleState":
        r = _SQRT_HALF
        table = {
            "phi_plus": (r, 0.0, 0.0, r),
            "phi_minus": (r, 0.0, 0.0, -r),
            "psi_plus": (0.0, r, r, 0.0),
            "psi_minus": (0.0, r, -r, 0.0),
        }
        if not isinstance(label, str) or label not in table:  # a list or array would not hash
            raise ValueError(f"label must be one of {BELL_LABELS}, got {label!r}")
        return cls(table[label])


def _unit_vector(state: TwoDipoleState) -> np.ndarray:
    """``state.normalized().vector()`` without the intermediate state object."""
    return np.array(_unit(state.amplitudes), dtype=complex)


# Bell vectors as given (fidelity targets) with their conjugates, and the
# normalized probe states of the false-even figure (psi+) and the tradeoff (phi+)
_BELL_VECTORS = {label: _constant(TwoDipoleState.bell(label).vector()) for label in BELL_LABELS}
_BELL_CONJUGATES = {label: _constant(np.conj(v)) for label, v in _BELL_VECTORS.items()}
_PSI_PLUS_WEIGHTS = _constant(np.abs(_unit_vector(TwoDipoleState.bell("psi_plus"))) ** 2)
_PHI_PLUS_UNIT = _unit_vector(TwoDipoleState.bell("phi_plus"))
_PHI_PLUS_RHO = _constant(np.outer(_PHI_PLUS_UNIT, np.conj(_PHI_PLUS_UNIT)))
# branch weights of (|g> + |m>)/sqrt2 on each node, entanglement generation's input
_SUPERPOSITION = _constant(0.5 * np.ones(4))


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
        gamma, tau, kappa, delta = params.gamma, params.tau, params.kappa, params.delta
        dw = _probe_value(probe)

        def route(g: float) -> RouteAmplitudes:
            t_drop, b_amp, sigma_amp = _amplitudes(gamma, g, tau, kappa, delta, dw)
            if g:  # refuse the nodes that flux_budget refuses
                _dipole_loss(t_drop, b_amp, sigma_amp, g, tau, kappa, dw)
            return RouteAmplitudes(
                through=1.0 + t_drop,
                drop=t_drop,
                loss_kappa=complex(math.sqrt(kappa) * b_amp),
                loss_tau=complex(math.sqrt(tau) * sigma_amp),
            )

        # |m> decouples the dipole: same node with g = 0
        return cls(label_g=route(params.g), label_m=route(0.0))

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


def _pointer_rows(route_a: NodeRouting, route_b: NodeRouting, alpha: float) -> list:
    """4x6 coherent amplitudes as one flat list of 24, rows over BASIS, columns
    over PORTS, so ``np.array(rows, complex).reshape(-1, 4, 6)`` stacks them.

    The probe enters waveguide 1 of node A; both waveguides continue into
    node B.  Port 'even' is the final waveguide-1 output, 'odd' the final
    waveguide-2 output.
    """
    rows = []
    for ra in (route_a.label_g, route_a.label_m):
        w1 = ra.through * alpha
        w2 = ra.drop * alpha
        loss_a = (ra.loss_kappa * alpha, ra.loss_tau * alpha)
        for rb in (route_b.label_g, route_b.label_m):
            drive_b = w1 + w2
            rows += (rb.through * w1 + rb.drop * w2, rb.drop * w1 + rb.through * w2,
                     *loss_a, rb.loss_kappa * drive_b, rb.loss_tau * drive_b)
    return rows


_OUTCOMES = ("even", "odd", "both", "none")
# (even port, odd port) per outcome, in _OUTCOMES order: 0 clicks, 1 stays silent
_DETECTOR_STATES = ((0, 1), (1, 0), (0, 0), (1, 1))


# the factors overflow to inf and nan near 1e300 photons; the callers raise InvalidRegime
@np.errstate(over="ignore", invalid="ignore")
def _threshold_factors(amps: np.ndarray) -> np.ndarray:
    """Per-outcome coherence factors M[s, s'] for threshold detection.

    ``amps`` is a stack of pointer matrices of shape (..., 4, 6); the result
    has shape (4, ..., 4, 4), entry [k, ...] holding the factors of
    ``_OUTCOMES[k]`` for the pointer matrix at [...].  Every entry comes
    from the same elementwise operations in the same order whatever the
    stack, so one stacked call returns the bits of one call per matrix.

    Modes 0/1 (even/odd ports) end on threshold detectors, the remaining
    modes are traced.  For coherent pointer rows the conditioned two-dipole
    density matrix for an outcome is rho[s,s'] * M[s,s'] up to normalization,
    and the outcome's probability is the trace of that product:

        traced mode   exp(-(n_s + n_s')/2 + A_s conj(A_s'))
        silent mode   exp(-(n_s + n_s')/2)
        click mode    difference of the two lines above

    The traced exponential is taken on all six modes, the silent one only on
    the two detector modes.  Every factor matrix is Hermitian with entries
    of magnitude <= 1 and diagonal equal to the outcome probability per
    basis state.
    """
    n = np.abs(amps) ** 2
    neg = -0.5 * (n[..., :, None, :] + n[..., None, :, :])  # (..., s, s', mode)
    traced = np.exp(neg + amps[..., :, None, :] * np.conj(amps[..., None, :, :]))
    silent = np.exp(neg[..., :2])  # vacuum projection (no click)
    detectors = (traced[..., :2] - silent, silent)  # click, silent
    loss = np.multiply.reduce(traced[..., 2:], axis=-1)
    return np.array([detectors[e][..., 0] * detectors[o][..., 1] * loss for e, o in _DETECTOR_STATES])


# ==================================================== interrogation engine ==
#
# Consecutive protocol calls on the same nodes reuse the engine's last answer.
# Each memo is one ``(key, result)`` tuple, read once and replaced whole, so a
# thread only ever sees a complete entry.  A key holds the call's own objects
# and matches by identity: nodes and ``ProbeDetuning`` are frozen and a float
# or int cannot change, so a match means the same inputs (0.0 and -0.0 stay
# apart).  Any other probe, such as a 0-d array that can change in place, is
# recomputed every time.  A call that raises stores nothing.

_MEMO_PROBES = (ProbeDetuning, float, int)
_NO_KEY = object()
_route_memo: tuple = ((_NO_KEY,) * 3, None)
_pass_memo: tuple = ((_NO_KEY,) * 4, None)


def _route_pair(node_a: Node, node_b: Node, probe: Probe) -> tuple[NodeRouting, NodeRouting]:
    """Both nodes' routing at ``probe``, node A resolved first."""
    global _route_memo
    (a, b, p), routes = _route_memo
    if a is node_a and b is node_b and p is probe:
        return routes
    routes = _routing(node_a, probe), _routing(node_b, probe)
    if type(probe) in _MEMO_PROBES:
        _route_memo = (node_a, node_b, probe), routes
    return routes


def _probe_pass(
    node_a: Node, node_b: Node, probe: Probe, mean_photons: float
) -> tuple[float, np.ndarray, np.ndarray]:
    """One coherent probe through both nodes: photon number, pointer matrix and
    the threshold factors of every outcome in ``_OUTCOMES`` order.

    ``mean_photons`` is validated before either node is resolved.  Both arrays
    are read-only.
    """
    global _pass_memo
    nbar = _finite(mean_photons, "mean_photons", nonnegative=True)
    (a, b, p, n), result = _pass_memo
    if a is node_a and b is node_b and p is probe and n is nbar:
        return result
    rows = _pointer_rows(*_route_pair(node_a, node_b, probe), math.sqrt(nbar))
    amps = _constant(np.array(rows, complex).reshape(4, 6))
    result = nbar, amps, _constant(_threshold_factors(amps))
    if type(probe) in _MEMO_PROBES:
        _pass_memo = (node_a, node_b, probe, nbar), result
    return result


def _fluxes(weights: np.ndarray, amps: np.ndarray) -> tuple[float, float]:
    """Mean photon numbers reaching the even and odd detectors."""
    return (
        float(weights @ (np.abs(amps[:, 0]) ** 2)),
        float(weights @ (np.abs(amps[:, 1]) ** 2)),
    )


def _herald(p: list, rho: np.ndarray, factors: np.ndarray) -> tuple[int, int, list]:
    """Outcomes ``lo:hi`` of ("even", "odd") that can fire on ``rho``, with their
    probabilities ``p`` normalized over that range.  Only an outcome at or below
    ``_PROB_FLOOR`` is dropped: a nan one stays, so the total is nan and refused.
    ``factors`` are the engine's, in ``_OUTCOMES`` order; where neither outcome
    can fire, "both" and "none" name the cause."""
    lo, hi = int(p[0] <= _PROB_FLOOR), 2 - int(p[1] <= _PROB_FLOOR)
    total = 0.0
    for q in p[lo:hi]:  # left to right, as in _sum_squares
        total += q
    if total <= _PROB_FLOOR:
        p_both, p_none = ((rho * f).trace().real for f in factors[2:])
        if p_both > p_none:
            cause = f"both detectors click with certainty (P(both) = {p_both:.3g})"
        else:
            cause = f"no probe flux reaches the detectors (P(none) = {p_none:.3g})"
        raise InvalidRegime(f"parity herald cannot fire: {cause}")
    if not math.isfinite(total):
        raise InvalidRegime(f"parity herald probability is not finite: P = {total!r}")
    return lo, hi, [q / total for q in p[lo:hi]]


def _draw(rng: np.random.Generator, probabilities, size=None):
    """Indices drawn from the weights ``probabilities``, normalized first.

    These are the steps ``rng.choice(len(p), size, p=p / p.sum())`` takes
    after its input checks: normalize, cumulative sum, divide by the last
    entry, one ``rng.random(size)`` draw and a right-side search.  So the
    same indices come out and ``rng`` is left in the same state.  The
    weights must be finite and positive with a finite sum, as every
    distribution the protocols report is.
    """
    p = np.asarray(probabilities, dtype=float)
    cdf = (p / p.sum()).cumsum()
    cdf /= cdf[-1]
    picks = cdf.searchsorted(rng.random(size), side="right")
    return picks if size is not None else int(picks)


def _dominant_pure_state(rho: np.ndarray) -> TwoDipoleState:
    """Largest-eigenvalue component of a two-dipole density matrix."""
    _, vectors = np.linalg.eigh(rho)
    vec = vectors[:, -1]
    lead = int(np.argmax(np.abs(vec)))
    phase = vec[lead] / abs(vec[lead])
    vec = vec / phase
    return TwoDipoleState(vec.tolist())


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
    branches.  Each outcome probability is the trace that normalizes that
    outcome's conditioned state.
    """
    nbar, amps, factors = _probe_pass(node_a, node_b, probe, mean_photons)
    c = _unit_vector(state)
    heralded = c[:, None] * np.conj(c) * factors  # every outcome, unnormalized
    probabilities = dict(zip(_OUTCOMES, heralded.trace(0, 1, 2).real.tolist()))
    for outcome, p in probabilities.items():
        if not math.isfinite(p):
            raise InvalidRegime(f"parity herald probability is not finite: P({outcome}) = {p!r}")
    even_flux, odd_flux = _fluxes(np.abs(c) ** 2, amps)
    return ParityProbeResult(
        pointer=PointerRecord(nbar, amps.copy()),  # the engine's array is shared
        even_flux=even_flux,
        odd_flux=odd_flux,
        outcome_probabilities=probabilities,
        post_states={o: None if probabilities[o] <= _PROB_FLOOR else u / probabilities[o]
                     for o, u in zip(("even", "odd"), heralded)},
    )


def false_even_probability(node_a: Node, node_b: Node, probe: Probe) -> float:
    """Fraction of detected probe flux hitting the even port for odd parity.

    Probes an equal odd-parity superposition and normalizes by the total
    detected flux; photons lost to the kappa and tau reservoirs do not
    count as detected.  This is the probability that a single detected
    photon misreports odd parity as even, the weak-probe limit of
    P(even) / (P(even) + P(odd)) from ``parity_probe`` on that superposition.
    """
    amps = np.array(_pointer_rows(*_route_pair(node_a, node_b, probe), 1.0), complex).reshape(4, 6)
    even_flux, odd_flux = _fluxes(_PSI_PLUS_WEIGHTS, amps)
    total = even_flux + odd_flux
    if total <= _PROB_FLOOR:
        raise InvalidRegime("no probe flux reaches the parity detectors")
    return even_flux / total


@dataclass(frozen=True, eq=False)
class ProtocolResult:
    """Heralded protocol summary: conditioned state, fidelity, probability.

    ``density`` is the heralded two-dipole density matrix (4x4, ``BASIS``
    order); the protocols return it read-only.  ``post_state`` is its
    largest-eigenvalue component as a pure state, formed on first read and
    kept: a caller that never reads it never pays for the eigensolve.
    """

    density: np.ndarray
    fidelity: float
    success_probability: float

    @cached_property
    def post_state(self) -> TwoDipoleState:
        # two threads reading it first both form the same bits; either may stay
        return _dominant_pure_state(self.density)


@dataclass(frozen=True)
class BellOutcome:
    """Classifier verdict: Bell label plus its two-parity signature."""

    label: str
    first_parity: str
    second_parity: str


# verdicts by (first, second) parity index into ("even", "odd")
_BELL_OUTCOMES = tuple(
    tuple(BellOutcome(PARITY_TO_BELL[(first, second)], first, second) for second in ("even", "odd"))
    for first in ("even", "odd")
)


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
    full distribution is returned either way.  The reported chain's
    conditioned state is the result's ``density``; its ``post_state`` is
    formed from that only when read.
    """
    if rng is not None and not isinstance(rng, np.random.Generator):
        raise ValueError(f"rng must be None or a numpy.random.Generator, got {rng!r}")
    _, _, factors = _probe_pass(node_a, node_b, probe, mean_photons)
    clicks = factors[:2]  # even, odd
    c = _unit_vector(state)
    rho = c[:, None] * np.conj(c)
    h = _HADAMARD_PAIR
    # first stage: both outcomes at once, then both surviving branches rotated
    first = rho * clicks
    p1 = first.trace(0, 1, 2).real
    lo, hi, w1 = _herald(p1.tolist(), rho, factors)
    rotated = h @ (first[lo:hi] / p1[lo:hi, None, None]) @ h
    # second stage the same way, on every surviving branch
    second = rotated[:, None] * clicks
    p2 = second.trace(0, 2, 3).real
    chains = []  # (first index, second index, probability)
    for i, q1, rho1, q2 in zip(range(lo, hi), w1, rotated, p2.tolist()):
        lo2, hi2, w2 = _herald(q2, rho1, factors)
        chains += [(i, j, q1 * q) for j, q in zip(range(lo2, hi2), w2)]

    if rng is None:
        pick = max(range(len(chains)), key=lambda k: chains[k][2])
    else:
        pick = _draw(rng, [p for _, _, p in chains])

    i, j, probability = chains[pick]
    final = h @ (second[i - lo, j] / p2[i - lo, j]) @ h  # undo the rotation
    outcome = _BELL_OUTCOMES[i][j]
    fidelity = float((_BELL_CONJUGATES[outcome.label] @ final @ _BELL_VECTORS[outcome.label]).real)
    return BellMeasurementRecord(
        outcome=outcome,
        result=ProtocolResult(_constant(final), fidelity, probability),
        distribution=tuple((_BELL_OUTCOMES[i][j], p) for i, j, p in chains),
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
    tau loss ports are dropped, not traced: this is the single-photon limit
    of the threshold-detector model.  So the fidelity leaves out both
    multi-photon heralds and loss: at the reference node with nbar = 0.05,
    heralding on threshold clicks with every other port traced gives about
    0.9877, of which multi-photon heralds cost 0.011 and the loss ports 0.0012.

    Returns the heralded density matrix (``density``, its ``post_state``
    formed only when read), its fidelity to the singlet and the herald
    probability per probe pulse.  ``mean_photons`` that is nan, infinite or
    negative raises ``ValueError``; 0 or above 0.1 raises ``InvalidRegime``.
    If no light can reach the dark ports (no
    routing contrast between the arms) the initial product state is returned,
    as ``post_state`` and as its projector ``density``, with zero fidelity
    and zero success probability.
    """
    nbar = _finite(mean_photons, "mean_photons", nonnegative=True)
    if not 0.0 < nbar <= 0.1:
        raise InvalidRegime(
            "entanglement generation requires 0 < mean_photons <= 0.1 "
            f"(single-photon herald regime), got {mean_photons!r}"
        )
    route_a, route_b = _route_pair(node_a, node_b, probe)
    alpha = math.sqrt(nbar)

    # Dark-port amplitudes per branch; input split alpha/sqrt2 into A and
    # i*alpha/sqrt2 into B, recombiners (i*armA + armB)/sqrt2 bright and
    # (armA + i*armB)/sqrt2 dark, which reduce to contrast/2 and sum/2.
    labels_a, labels_b = (route_a.label_g, route_a.label_m), (route_b.label_g, route_b.label_m)
    branches = [(ra, rb) for ra in labels_a for rb in labels_b]
    half = 0.5 * alpha
    dark = np.array([half * (a.through - b.through) for a, b in branches]
                    + [half * (a.drop - b.drop) for a, b in branches], complex).reshape(2, 4)
    click_t, click_d = _SUPERPOSITION * dark  # through, drop
    p_t = float(np.vdot(click_t, click_t).real)
    p_d = float(np.vdot(click_d, click_d).real)
    herald_probability = p_t + p_d

    if herald_probability <= _PROB_FLOOR:
        product = TwoDipoleState((_SQRT_HALF * _SQRT_HALF,) * 4)
        v = product.vector()
        result = ProtocolResult(_constant(np.outer(v, np.conj(v))), 0.0, 0.0)
        # the state as given: an eigenvector of its projector would round to 0.5
        object.__setattr__(result, "post_state", product)
        return result

    singlet = _BELL_VECTORS["psi_minus"]
    fidelity = 0.0
    mixture = np.zeros((4, 4), dtype=complex)
    for vec, p in ((click_t, p_t), (click_d, p_d)):
        if p <= 0.0:
            continue
        fidelity += abs(np.vdot(singlet, vec)) ** 2 / p * (p / herald_probability)
        mixture += np.outer(vec, np.conj(vec)) / herald_probability
    return ProtocolResult(_constant(mixture), float(fidelity), float(herald_probability))


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

    For each mean photon number the probe interrogates (|gg> + |mm>)/sqrt2
    and reads ``parity_probe``'s figures on it, bit for bit: the fidelity is
    the overlap of the even-conditioned state with that input, and success
    is 1 - P(none), the probability that a detector clicks.  A brighter
    probe heralds more reliably but leaks more which-path information into
    the loss channels, so fidelity falls as success rises.  A zero entry
    means no measurement at all: fidelity 1, success 0.
    """
    nbars = [_finite(raw, "mean_photons", nonnegative=True)
             for raw in _iterable(mean_photons_grid, "mean_photons grid")]
    probed = [nbar for nbar in nbars if nbar != 0.0]
    measured = iter(())  # (nbar, fidelity, success) of the probed points, in order
    if probed:
        # routing does not depend on the probe strength: resolve it once and
        # take every probed point through the engine in one stacked pass
        route_a, route_b = _route_pair(node_a, node_b, probe)
        rows = []
        for n in probed:
            rows += _pointer_rows(route_a, route_b, math.sqrt(n))
        amps = np.array(rows, complex).reshape(-1, 4, 6)
        heralded = _PHI_PLUS_RHO * _threshold_factors(amps)[[0, 3]]  # even, none; unnormalized
        p_even, p_none = heralded.trace(0, 2, 3).real
        for q in p_even.tolist():
            if q <= _PROB_FLOOR:
                raise InvalidRegime("even-parity herald cannot fire for this node configuration")
            if not math.isfinite(q):
                raise InvalidRegime(f"even-parity herald probability is not finite: P = {q!r}")
        # a row times a column per point, the product one matrix would take
        conditioned = _BELL_CONJUGATES["phi_plus"] @ (heralded[0] / p_even[:, None, None])
        fidelity = (conditioned[:, None] @ _BELL_VECTORS["phi_plus"]).real
        measured = zip(probed, fidelity[:, 0].tolist(), (1.0 - p_none).tolist())
    return TradeoffTable(
        points=tuple(TradeoffPoint(0.0, 1.0, 0.0) if nbar == 0.0 else TradeoffPoint(*next(measured))
                     for nbar in nbars)
    )
