"""Exact small-N ground truth on explicit state vectors.

Basis conventions, fixed once: per qubit, index 0 is the ground state
|down> and index 1 the excited state |up>, so sigma_z = diag(-1, +1) and
the damping channel decays toward |down...down> (row/column index 0).
Qubit 0 occupies the most significant bit of the composite index.

The twisted state is built by diagonal phase accumulation (each unordered
pair contributes phase alpha/2 on sigma_z^j sigma_z^k), under which the
mean spin magnitude is exactly (N/2) cos^(N-1)(alpha). Channels act per
qubit through their operator-sum representation. Collective moments need
only the one- and two-qubit reduced states, summed over qubits and over
pairs (``reduced_sums``), with no assumption of exchange symmetry. A
per-qubit channel is trace preserving, so it commutes with the partial
trace, and every map here is linear: decohering the 2x2 and 4x4 sums of
the pure state with ``apply_channel`` (which acts as Phi and Phi (x) Phi
on them) gives the moments of the decohered N-qubit state without
building its 4^N density matrix. ``apply_channel`` and
``collective_moments`` also take full density matrices and must keep
doing so: the tests cross-check this route with them at small N, and
the benchmark's ``curves`` check (``perfbench/checks.py``) calls them on
the N = 10 density matrix.

``apply_channel`` also takes a 1-D array of K kappas with a (K, d, d)
stack, so that ``verify`` decoheres every (N, alpha, kappa) row of a
channel in one call. Batching leaves the bits of each row unchanged:
every Kraus operator of the three channels has at most one nonzero entry
per row, purely real or purely imaginary, so each output entry is a
single product (e rho) e^dag plus exact zeros, whatever the loop order
and with or without the batch axis, and the operators' terms are added
in list order from zeros. (Folding the operators into one superoperator
would round differently.) The moments and the squeezing parameters of a
stack are taken row by row in the same way (``_moment_rows`` here, the
row functions in ``moments``).

``integrate_single_qubit_generator`` steps only constant rates: the
time-local rate -2 kappa'/kappa is singular at every zero of a
non-Markovian kappa(t). It has no field term: the three channels are
phase-covariant, so a collective z rotation moves no squeezing value
(Breuer & Petruccione, *The Theory of Open Quantum Systems*, sec. 10.1).
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from .errors import (
    InvalidKappa,
    NonPositiveN,
    NTooLarge,
    StepInstability,
    ValidationError,
)
from .model import MAX_GRID_NODES, ChannelKind, LindbladParams
from .moments import CollectiveMoments, xi2_from_moments, xi2_prime_from_moments

__all__ = [
    "N_CAP",
    "SIGMA_X",
    "SIGMA_Y",
    "SIGMA_Z",
    "build_oat_state",
    "kraus_operators",
    "apply_channel",
    "collective_moments",
    "reduced_sums",
    "moments_from_reduced",
    "xi2_from_moments",
    "xi2_prime_from_moments",
    "integrate_single_qubit_generator",
]

#: the oracle works on 2^N-amplitude state vectors; at N = 16 one
#: (N, alpha) ensemble of ``verify`` takes about 0.3 s on one core, most
#: of it in ``reduced_sums``
N_CAP = 16

# Pauli matrices in the (down, up) basis order
SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA_Y = np.array([[0.0, 1.0j], [-1.0j, 0.0]], dtype=complex)
SIGMA_Z = np.array([[-1.0, 0.0], [0.0, 1.0]], dtype=complex)
_ID2 = np.eye(2, dtype=complex)


def _check_n(n: int) -> int:
    if int(n) != n or n < 1:
        raise NonPositiveN(f"n must be a positive integer, got {n}")
    if n > N_CAP:
        raise NTooLarge(f"n = {n} exceeds the explicit-state cap {N_CAP}")
    return int(n)


def _spin_sums(n: int) -> np.ndarray:
    """sum_j z_j over the computational basis, z_j = +/-1 (up/down)."""
    idx = np.arange(2**n)
    pop = np.zeros(2**n, dtype=np.int64)
    for q in range(n):
        pop += (idx >> q) & 1
    return 2 * pop - n


def build_oat_state(n: int, alpha: float) -> np.ndarray:
    """Pure twisted state: phase alpha/2 per unordered sigma_z pair on
    the uniform superposition |+>^N.

    The pair sum is a function of the spin sum s alone,
    sum_{j<k} z_j z_k = (s^2 - N)/2, so the state is a diagonal phase
    profile over the basis.
    """
    n = _check_n(n)
    s = _spin_sums(n)
    pair_sum = (s.astype(float) ** 2 - n) / 2.0
    return np.exp(-0.5j * alpha * pair_sum) / math.sqrt(2.0**n)


def kraus_operators(kind: ChannelKind, kappa) -> list[np.ndarray]:
    """Single-qubit operator-sum elements at decoherence parameter kappa.

    Dephasing mixes identity and sigma_z with weights (1+kappa^2)/2 and
    (1-kappa^2)/2; depolarizing uses (1+3 kappa^2)/4 on the identity and
    (1-kappa^2)/4 on each Pauli; damping keeps diag(1, kappa) and
    transfers excited amplitude to the ground state with weight
    sqrt(1-kappa^2).

    ``kappa`` is a float, giving 2x2 operators, or a 1-D array of K
    values, giving (K, 2, 2) stacks. A kappa array of more dimensions
    raises ``ValidationError``; any |kappa| > 1 or NaN raises
    ``InvalidKappa``, naming the first.
    """
    k = np.asarray(kappa, dtype=float)
    if k.ndim > 1:
        raise ValidationError(f"kappa must be a float or a 1-D array, got shape {k.shape}")
    bad = np.flatnonzero(~(np.abs(k) <= 1.0))
    if bad.size:
        raise InvalidKappa(f"|kappa| must be <= 1, got {float(k.reshape(-1)[bad[0]])}")
    k2 = k * k
    # the weights broadcast over the operators' two trailing axes
    w = k2[..., None, None]
    if kind is ChannelKind.DEPHASING:
        return [np.sqrt((1.0 + w) / 2.0) * _ID2, np.sqrt((1.0 - w) / 2.0) * SIGMA_Z]
    if kind is ChannelKind.DEPOLARIZING:
        p = np.sqrt((1.0 - w) / 4.0)
        return [np.sqrt((1.0 + 3.0 * w) / 4.0) * _ID2, p * SIGMA_X, p * SIGMA_Y, p * SIGMA_Z]
    e0 = np.zeros(k.shape + (2, 2), dtype=complex)
    e0[..., 0, 0] = 1.0
    e0[..., 1, 1] = k
    e1 = np.zeros_like(e0)
    e1[..., 0, 1] = np.sqrt(1.0 - k2)
    return [e0, e1]


def apply_channel(rho: np.ndarray, kind: ChannelKind, kappa) -> np.ndarray:
    """Apply the same single-qubit channel to every qubit of rho.

    With a float kappa, rho is one (d, d) matrix; with a 1-D array of K
    kappas, rho is a (K, d, d) stack and entry i is decohered at
    kappa[i]. d must be a power of two. A rho whose shape does not match
    kappa's raises ``ValidationError``; a bad kappa raises what
    ``kraus_operators`` raises.
    """
    rho = np.asarray(rho)
    k = np.asarray(kappa, dtype=float)
    dim = rho.shape[-1] if rho.ndim else 0
    n = max(dim.bit_length() - 1, 0)
    if (
        rho.ndim != k.ndim + 2
        or rho.shape[:-2] != k.shape
        or rho.shape[-2] != dim
        or dim != 1 << n
    ):
        raise ValidationError(
            f"rho must have shape {k.shape} + (d, d) with d a power of two, got {rho.shape}"
        )
    # (K, 2, 2) stacks, K = 1 for a float kappa
    ops = [e.reshape(-1, 2, 2) for e in kraus_operators(kind, k)]
    out = rho.astype(complex).reshape(-1, dim, dim)
    for q in range(n):
        view = out.reshape(-1, 2**q, 2, 2 ** (n - 1 - q), 2**q, 2, 2 ** (n - 1 - q))
        out = np.zeros_like(view)
        # each Kraus operator has at most one nonzero entry per row, so
        # every output entry is one product (e rho) e^dag plus exact
        # zeros: the bits depend neither on the batch axis nor on taking
        # e rho and then (e rho) e^dag as two contractions
        for e in ops:
            e_rho = np.einsum("kab,kubvxcy->kuavxcy", e, view)
            out += np.einsum("kuavxcy,kdc->kuavxdy", e_rho, e.conj())
    return out.reshape(rho.shape)


def _reduced_one(state: np.ndarray, q: int, n: int) -> np.ndarray:
    left, right = 2**q, 2 ** (n - 1 - q)
    if state.ndim == 1:
        v = state.reshape(left, 2, right)
        return np.einsum("uav,ubv->ab", v, v.conj())
    m = state.reshape(left, 2, right, left, 2, right)
    return np.einsum("uavubv->ab", m)


def _reduced_two(state: np.ndarray, q1: int, q2: int, n: int) -> np.ndarray:
    left = 2**q1
    mid = 2 ** (q2 - q1 - 1)
    right = 2 ** (n - 1 - q2)
    if state.ndim == 1:
        v = state.reshape(left, 2, mid, 2, right)
        red = np.einsum("uavbw,ucvdw->abcd", v, v.conj())
    else:
        m = state.reshape(left, 2, mid, 2, right, left, 2, mid, 2, right)
        red = np.einsum("uavbwucvdw->abcd", m)
    return red.reshape(4, 4)


_PAULIS = np.stack([SIGMA_X, SIGMA_Y, SIGMA_Z])
# sigma_a (x) sigma_b as a (3, 3, 4, 4) array, in the pair index order
# of _reduced_two
_PAULI_PAIRS = np.einsum("aij,bkl->abikjl", _PAULIS, _PAULIS).reshape(3, 3, 4, 4)


def reduced_sums(state: np.ndarray, n: int | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Sum over qubits of the one-qubit reduced states (2x2) and over
    pairs q1 < q2 of the two-qubit reduced states (4x4).

    Accepts a pure-state vector or a density matrix. Both sums are linear
    in the state, and a per-qubit channel commutes with the partial trace,
    so ``apply_channel`` on the sums equals the sums of the channel's
    output.
    """
    if n is None:
        n = int(round(math.log2(state.shape[0])))
    one = sum(_reduced_one(state, q, n) for q in range(n))
    pair = np.zeros((4, 4), dtype=complex)
    for q1 in range(n):
        for q2 in range(q1 + 1, n):
            pair += _reduced_two(state, q1, q2, n)
    return one, pair


def _moment_rows(
    one: np.ndarray, pair: np.ndarray, n: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Mean spins (K, 3) and correlation matrices (K, 3, 3) of K rows of
    (2x2, 4x4) sums from ``reduced_sums``, n a (K,) array of particle
    numbers; each row rounds as it would alone."""
    mean = 0.5 * np.einsum("aij,kji->ka", _PAULIS, one).real
    cross = np.einsum("abij,kji->kab", _PAULI_PAIRS, pair).real
    corr = 0.25 * (n[:, None, None] * np.eye(3) + cross + cross.transpose(0, 2, 1))
    return mean, corr


def moments_from_reduced(one: np.ndarray, pair: np.ndarray, n: int) -> CollectiveMoments:
    """Mean spin and symmetrized second moments of J = sum_j sigma_j / 2
    from the sums of ``reduced_sums``.

    Same-site products contribute (N/4) delta_ab; cross-site terms are
    Tr[(sigma_a (x) sigma_b) pair], symmetrized over (a, b).
    """
    mean, corr = _moment_rows(one[None], pair[None], np.array([n]))
    return CollectiveMoments(n_particles=n, mean_spin=mean[0], corr=corr[0])


def collective_moments(state: np.ndarray, n: int | None = None) -> CollectiveMoments:
    """Mean spin and symmetrized second moments of J = sum_j sigma_j / 2.

    Accepts a pure-state vector or a density matrix; the moments come
    from the one- and two-qubit reduced states of every qubit and pair.
    """
    if n is None:
        n = int(round(math.log2(state.shape[0])))
    return moments_from_reduced(*reduced_sums(state, n), n)


def _generator_matrices(plist: Sequence[LindbladParams]) -> np.ndarray:
    """The superoperators L (P, 4, 4) of P generators."""
    s, b, c = np.array([(p.s, p.b, p.c) for p in plist]).T
    pump, decay = b * (1.0 - s), b * s
    l_bc = np.zeros((len(plist), 4, 4), dtype=complex)
    l_bc[:, 0, 0], l_bc[:, 0, 3] = -pump, pump
    l_bc[:, 3, 0], l_bc[:, 3, 3] = decay, -decay
    l_bc[:, 1, 1] = l_bc[:, 2, 2] = -c
    return l_bc


def integrate_single_qubit_generator(
    params: LindbladParams | Sequence[LindbladParams],
    chi0: np.ndarray,
    t: float,
    step: float | None = None,
) -> np.ndarray:
    """Integrate the constant-rate single-qubit master equation to time t
    (RK4, fixed step).

    ``chi0`` is one 2x2 matrix or a (k, 2, 2) batch, integrated together
    and returned in the same shape. ``params`` may also be a sequence of
    generators; ``chi0`` then carries a leading axis of the same length,
    entry i is evolved under ``params[i]``, and all of them advance at one
    shared step.

    The dissipator acts on row-major vec(chi) = (chi00, chi01, chi10, chi11)
    as vec(rhs) = vec(chi) @ L. L has six nonzero entries: L[0, 0] =
    -L[0, 3] = -b(1 - s) pump the ground population up, L[3, 3] = -L[3, 0]
    = -b s decay the excited one (s = 1 is the damping channel's decay),
    L[1, 1] = L[2, 2] = -c damp coherence. L is constant, so one RK4 step
    of x' = xL is exactly x -> x(I + D), D = A + A^2/2 + A^3/6 + A^4/24
    with A = hL, and the n steps are x(I + D)^n, taken by binary squaring.
    The power is kept as its increment over I, (I + D)^2 = I + (2D + D^2)
    and (I + D_j)(I + D_k) = I + (D_j + D_k + D_j D_k), since forming
    I + D would round away the low bits of the small D.

    The default step is 1e-3 / max(b, c), with the largest b and c of the
    sequence. A ``chi0`` whose last two axes are not (2, 2), a t that is
    not finite and nonnegative, a step that is not finite and positive,
    more than ``MAX_GRID_NODES`` steps, or a sequence whose length is not
    that of ``chi0``'s leading axis raises ``ValidationError``. L keeps
    each matrix's trace (a zero chi0 stays zero): StepInstability is
    raised if a trace is not finite or drifts from its value at t = 0 by
    over 1e-8 max(1, |chi00| + |chi11|).
    """
    if chi0.shape[-2:] != (2, 2):
        raise ValidationError(f"chi0 must end in two axes of length 2, got shape {chi0.shape}")
    batch = not isinstance(params, LindbladParams)
    plist = list(params) if batch else [params]
    if batch and not (plist and chi0.ndim >= 3 and chi0.shape[0] == len(plist)):
        raise ValidationError(
            f"{len(plist)} generators need chi0 of shape ({len(plist)}, ..., 2, 2), "
            f"got {chi0.shape}"
        )
    if not (math.isfinite(t) and t >= 0):
        raise ValidationError(f"t must be finite and nonnegative, got {t!r}")
    if step is not None and not (math.isfinite(step) and step > 0):
        raise ValidationError(f"step must be finite and positive, got {step!r}")
    chi = chi0.astype(complex, copy=True)
    if t == 0.0:
        return chi
    scale_max = max(max(p.b, p.c, 1e-12) for p in plist)
    h = step if step is not None else 1e-3 / scale_max
    # the ratio test also catches a step so small that t / h overflows
    if not t / h <= MAX_GRID_NODES:
        raise ValidationError(f"t = {t!r} at step {h!r} needs more than {MAX_GRID_NODES} steps")
    n_steps = max(1, int(math.ceil(t / h)))
    h = t / n_steps

    x0 = chi.reshape(len(plist), -1, 4)
    # an unstable step overflows to inf or nan, which the drift test reports
    with np.errstate(over="ignore", invalid="ignore"):
        a = h * _generator_matrices(plist)
        a2 = a @ a
        power = a + (a2 / 2.0 + (a2 @ a / 6.0 + a2 @ a2 / 24.0))  # D of one step
        total = None  # D of the steps taken so far, by the bits of n_steps
        n = n_steps
        while True:
            if n & 1:
                total = power if total is None else total + power + total @ power
            n >>= 1
            if not n:
                break
            power = 2.0 * power + power @ power
        x = x0 + x0 @ total
        # rounding moves a trace by a few ulps of the populations
        drift = np.abs(x[..., 0] + x[..., 3] - (x0[..., 0] + x0[..., 3]))
        drift = float(np.max(drift / np.maximum(1.0, np.abs(x0[..., 0]) + np.abs(x0[..., 3]))))
    if not drift <= 1e-8:
        raise StepInstability(f"trace drifted by {drift}; reduce the step")
    return x.reshape(chi.shape)
