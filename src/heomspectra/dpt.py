"""Phase-transition signature extraction from spectral decompositions.

Near a first-order transition the slowest decaying eigenvector carries, in
its physical block, the difference of the two coexisting phases; splitting
that traceless Hermitian matrix by eigenvalue sign recovers the phases and
their equal mixture approximates the steady state.  For a spontaneously
broken discrete symmetry the same split applied to the leading eigenvector of
the non-steady sector recovers the symmetry-broken pair.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Tuple

import numpy as np

from .builder import HeomState
from .errors import (
    MatrixValidationError,
    NotPositiveSemidefiniteError,
    PhaseSplitError,
    RealnessGateError,
)
from .linalg import PSD_CLIP_TOL, as_dense, herm_sqrt
from .spectra import PhysicalState
from .symmetry import SectorDecomposition, sector_leading_eigs

#: Eigenvalues of the split input below this magnitude belong to no phase.
SPLIT_DROP_TOL = 1e-10
#: |Im(lambda)| / frequency scale must stay below this for the broken pair.
REALNESS_GATE = 1e-8


@dataclass(frozen=True)
class PhasePair:
    """Two orthogonal trace-one states recovered from a spectral split."""

    rho_plus: PhysicalState
    rho_minus: PhysicalState
    overlap: float


def _as_matrix(state) -> np.ndarray:
    return state.matrix if isinstance(state, PhysicalState) else as_dense(state)


def split_phases(rho1) -> PhasePair:
    """Split a traceless Hermitian matrix by eigenvalue sign into two states.

    Positive eigenvalues are gathered into ``rho_plus`` and negative ones into
    ``rho_minus`` (sign flipped), each trace-normalized; eigenvalues below
    :data:`SPLIT_DROP_TOL` in magnitude are assigned to neither.  The parts
    live on orthogonal eigenspaces, so their overlap vanishes by construction.
    """
    m = _as_matrix(rho1)
    defect = float(np.abs(m - m.conj().T).max())
    if defect > 1e-8:
        raise MatrixValidationError(
            f"phase split needs a Hermitian input (defect {defect:.3e}); a "
            "complex source eigenvalue puts the transition outside the "
            "coexistence regime"
        )
    trace = complex(np.trace(m))
    if abs(trace) > 1e-6:
        raise MatrixValidationError(f"phase split needs a traceless input, trace {trace}")
    w, u = np.linalg.eigh((m + m.conj().T) / 2)
    pos = w > SPLIT_DROP_TOL
    neg = w < -SPLIT_DROP_TOL
    if not pos.any() or not neg.any():
        raise PhaseSplitError(
            "eigenvalues of the input do not change sign; no phase pair exists"
        )
    plus = (u[:, pos] * w[pos]) @ u[:, pos].conj().T
    plus /= w[pos].sum()
    minus = (u[:, neg] * (-w[neg])) @ u[:, neg].conj().T
    minus /= (-w[neg]).sum()
    overlap = float(abs(np.trace(plus.conj().T @ minus)))
    return PhasePair(
        rho_plus=PhysicalState(plus, 0.0, 1.0, float(np.linalg.eigvalsh(plus).min())),
        rho_minus=PhysicalState(minus, 0.0, 1.0, float(np.linalg.eigvalsh(minus).min())),
        overlap=overlap,
    )


def reconstruct_mixture(pair: PhasePair) -> PhysicalState:
    """Equal-weight mixture of the two phases, exactly unit trace."""
    mix = (pair.rho_plus.matrix + pair.rho_minus.matrix) / 2
    mix = (mix + mix.conj().T) / 2
    mix = mix / float(np.trace(mix).real)
    return PhysicalState(
        matrix=mix,
        hermiticity_defect=0.0,
        trace=1.0,
        min_eigenvalue=float(np.linalg.eigvalsh(mix).min()),
    )


def fidelity(rho, sigma) -> float:
    """Uhlmann fidelity ``Tr sqrt(sqrt(rho) sigma sqrt(rho))`` in [0, 1].

    Eigenvalues of ``rho`` and of the inner product down to
    ``-PSD_CLIP_TOL`` are clipped to 0; a more negative one raises
    :class:`NotPositiveSemidefiniteError`.  A sum of ``sqrt`` of clipped
    near-zero eigenvalues, so a round-off of 1e-17 moves it by about 3e-9:
    compare fidelities to about 1e-8.
    """
    r = _as_matrix(rho)
    s = _as_matrix(sigma)
    if r.shape != s.shape:
        raise MatrixValidationError("fidelity arguments must have equal shapes")
    root = herm_sqrt(r)
    inner = root @ s @ root
    w = np.linalg.eigvalsh((inner + inner.conj().T) / 2)
    if w.size and w.min() < -PSD_CLIP_TOL:
        raise NotPositiveSemidefiniteError(float(w.min()), PSD_CLIP_TOL)
    value = float(np.sqrt(np.clip(w, 0.0, None)).sum())
    if value > 1.0 + 1e-6:
        raise MatrixValidationError(f"fidelity {value} exceeds 1 beyond tolerance")
    return min(max(value, 0.0), 1.0)


def hermitian_phase(block: np.ndarray) -> Tuple[np.ndarray, float]:
    """Rotate the global phase of a matrix to make it (maximally) Hermitian.

    An eigenvector returned by a solver carries an arbitrary complex phase; if
    the underlying matrix is Hermitian up to that phase, ``Tr[B @ B]`` has
    twice the phase as its argument.  Returns the rotated matrix and its
    remaining Hermiticity defect relative to the largest entry.
    """
    b = as_dense(block)
    z = complex(np.trace(b @ b))
    if abs(z) < 1e-14:
        raise MatrixValidationError("cannot fix the phase of a null matrix")
    rotated = b * np.exp(-0.5j * np.angle(z))
    scale = float(np.abs(rotated).max())
    defect = float(np.abs(rotated - rotated.conj().T).max()) / max(scale, 1e-300)
    return rotated, defect


def ssb_pair(
    decomp: SectorDecomposition,
    frequency_scale: float,
    count: int = 8,
    tol: float = 1e-10,
    seed: int = 0,
    shift: complex = 0.0,
) -> PhasePair:
    """Symmetry-broken pair from the leading eigenvector of the broken sector.

    Requires a two-sector (order-2) decomposition whose non-steady sector,
    charge 1, has a real leading eigenvalue: ``|Im| / frequency_scale`` must
    pass the gate :data:`REALNESS_GATE`, otherwise finite-size effects make
    the pair ill-defined and :class:`RealnessGateError` is raised.  The
    eigenvector's global phase is fixed by hermitizing its physical block (its
    trace vanishes for decaying eigenvectors, so a trace-based phase is
    degenerate), its remaining sign by :func:`_canonical_sign`, so the labels
    do not follow the sign the eigensolver returns; the block is then scaled
    to unit trace norm and split by eigenvalue sign.
    """
    if decomp.spec.group_order != 2:
        raise MatrixValidationError(
            "the symmetry-broken pair construction needs an order-2 symmetry"
        )
    leading = sector_leading_eigs(decomp, 1, count=count, tol=tol, seed=seed, shift=shift)
    value = complex(leading.eigenvalues[0])
    ratio = abs(value.imag) / frequency_scale
    if ratio >= REALNESS_GATE:
        raise RealnessGateError(value, ratio, REALNESS_GATE)
    liouv = decomp.liouvillian
    vector = decomp.embed(1, leading.right_vectors[:, 0])
    block = HeomState(vector, liouv.hierarchy, liouv.d_s).physical()
    rotated, defect = hermitian_phase(block)
    rotated = rotated * _canonical_sign(rotated)
    trace_norm = float(np.abs(np.linalg.eigvalsh((rotated + rotated.conj().T) / 2)).sum())
    if trace_norm < 1e-14:
        raise MatrixValidationError("broken-sector eigenvector has a null physical block")
    return split_phases(rotated / trace_norm)


def _canonical_sign(m: np.ndarray) -> float:
    """The sign (+1 or -1) that fixes the labels of a matrix known up to sign.

    The first entry in row-major order whose magnitude is within a relative
    1e-8 of the largest is made to have a positive real part, or a positive
    imaginary part if that is the larger one.  Magnitudes do not change under
    negation, so ``m`` and ``-m`` get the same canonical form, and a tie
    between equal entries goes to the first.
    """
    flat = m.ravel()
    magnitudes = np.abs(flat)
    z = flat[np.argmax(magnitudes >= (1 - 1e-8) * magnitudes.max())]
    part = z.real if abs(z.real) >= abs(z.imag) else z.imag
    return -1.0 if part < 0 else 1.0


def extrapolate(values: Sequence[Tuple[float, float]]) -> float:
    """Linear extrapolation in ``1/N`` through the two largest-N points.

    Deliberately a two-point rule rather than a least-squares fit; the
    returned value is the intercept at ``1/N = 0``.
    """
    if len(values) < 2:
        raise MatrixValidationError("extrapolation needs at least two points")
    ordered = sorted(values, key=lambda item: item[0])
    (n1, y1), (n2, y2) = ordered[-2], ordered[-1]
    if n1 == n2:
        raise MatrixValidationError("extrapolation needs distinct sizes")
    if n1 <= 0 or n2 <= 0:
        raise MatrixValidationError("sizes must be positive")
    x1, x2 = 1.0 / n1, 1.0 / n2
    slope = (y2 - y1) / (x2 - x1)
    return float(y2 - slope * x2)
