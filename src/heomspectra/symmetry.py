"""Weak symmetries as integer charge assignments and sector decomposition.

A weak symmetry generated by an operator that is diagonal in the system basis
is declared by an integer charge per system basis state plus an integer charge
per bath (the coefficient of that bath's mode-number operator in the
generator).  In that case the superoperator eigenbasis is the computational
basis and the sector decomposition is exact index bookkeeping: the basis
element ``|i><j|`` inside hierarchy index ``(n, m)`` carries the charge

    q[i] - q[j] + sum_p  c[bath(p)] * (n[p] - m[p]),

reduced modulo ``group_order`` for finite groups.  The same rule holds in the
enlarged Markovian picture, with the Fock occupations of ``|i,n><j,m|`` in
place of the hierarchy index.  The sign convention for the bath charges is
fixed by requiring block-diagonality of the generator; both pictures raise
if the declared charges are wrong.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

import numpy as np

from .errors import MatrixValidationError, SymmetryViolationError
from .linalg import OFF_SECTOR_TOL, EigResult, Solvable

if TYPE_CHECKING:  # pragma: no cover
    from .builder import HeomLiouvillian


@dataclass(frozen=True)
class SymmetrySpec:
    """Charge assignment declaring a weak symmetry.

    ``group_order = 0`` declares a continuous U(1) charge; a positive order
    reduces charges modulo that order.  Only charge differences enter the
    sector labels, so any common offset of ``system_charges`` is irrelevant.
    """

    system_charges: Tuple[int, ...]
    bath_charges: Tuple[int, ...]
    group_order: int = 0

    def __post_init__(self):
        if self.group_order < 0:
            raise MatrixValidationError("group_order must be >= 0")
        object.__setattr__(self, "system_charges", tuple(int(q) for q in self.system_charges))
        object.__setattr__(self, "bath_charges", tuple(int(c) for c in self.bath_charges))

    def reduce(self, charge):
        """Reduce an integer charge, or an array of them, modulo the group order."""
        return charge % self.group_order if self.group_order else charge


@dataclass(eq=False)
class SectorDecomposition:
    """Partition of the vectorized basis by charge, with per-sector matrices.

    ``sectors`` maps each charge to the sorted global basis ranks it owns and
    ``solvables`` to the :class:`linalg.Solvable` of its submatrix, which
    holds the sector's solves and, for a sector the adjoint involution maps
    onto itself (every charge of a Z2, charge 0 of a U(1)), the involution
    with which they run in real arithmetic.  The sector of charge 0 contains
    the physical trace covector and hence the steady state.  The matrices
    must not change after analysis.  Decompositions compare by identity.
    """

    liouvillian: "HeomLiouvillian"
    spec: SymmetrySpec
    charges: np.ndarray
    sectors: Dict[int, np.ndarray]
    solvables: Dict[int, Solvable]
    off_sector_residual: float

    def charges_present(self) -> List[int]:
        return sorted(self.sectors)

    def representative_charges(self, shift: complex = 0.0) -> Dict[int, Optional[int]]:
        """The charges to solve for every sector's eigenpairs nearest ``shift``.

        Each maps to the charge it mirrors, or None.  The adjoint involution
        ``J v = conj(v[P])``, ``P = liouvillian.solvable.involution``, maps
        charge ``q`` onto ``-q``, so at a real shift ``-q`` has ``J`` of the
        eigenpairs of ``q``, with conjugate values.  For a U(1) that leaves
        ``q >= 0``; a finite group, or a non-real shift, solves every charge.
        """
        if self.spec.group_order or complex(shift).imag != 0:
            return {charge: None for charge in self.charges_present()}
        return {charge: -charge if charge else None
                for charge in self.charges_present() if charge >= 0}

    def dimension(self, charge: int) -> int:
        return len(self.sectors[charge])

    def solvable(self, charge: int) -> Solvable:
        if charge not in self.solvables:
            raise MatrixValidationError(f"sector {charge} does not exist")
        return self.solvables[charge]

    def sector(self, charge: int):
        return self.solvable(charge).matrix

    def embed(self, charge: int, local: np.ndarray) -> np.ndarray:
        """Scatter sector-local vectors (a vector or columns) into full-space coordinates."""
        full = np.zeros((self.liouvillian.dim,) + np.shape(local)[1:], dtype=complex)
        full[self.sectors[charge]] = local
        return full


def _sector_charges(matrix, spec: SymmetrySpec, model, ket, bra) -> Tuple[np.ndarray, float]:
    """Charge of every basis element of ``matrix``, verified block-diagonal.

    This is the one place that evaluates the charge rule of the module
    docstring, for both pictures.  ``ket`` and ``bra`` are pairs ``(system
    index, mode occupations)`` of integer arrays that broadcast to the basis
    layout, with one occupation per slot of ``model.slots()`` along the last
    axis of the occupations; the flattened broadcast is the basis order.  A
    side ``(i, n)`` carries ``q[i] + c . n`` and an element ``|ket><bra|``
    the difference of its two sides.  A spec whose charge counts do not match
    the model raises :class:`MatrixValidationError`.  Every nonzero entry
    must connect equal charges; the worst off-sector entry above
    :data:`OFF_SECTOR_TOL` raises :class:`SymmetryViolationError`, which
    signals a wrong :class:`SymmetrySpec` rather than a numerical issue.
    Returns the charges and the largest tolerated off-sector magnitude.
    """
    q = np.asarray(spec.system_charges, dtype=np.int64)
    if q.size != model.dim:
        raise MatrixValidationError(f"{q.size} system charges for block size {model.dim}")
    if len(spec.bath_charges) != len(model.baths):
        raise MatrixValidationError(
            f"{len(spec.bath_charges)} bath charges for {len(model.baths)} baths"
        )
    slot_c = np.asarray(spec.bath_charges, dtype=np.int64)[
        [bath_index for bath_index, _ in model.slots()]
    ]

    def carried(system, occupations):
        return q[system] + occupations @ slot_c

    charges = spec.reduce((carried(*ket) - carried(*bra)).ravel())

    coo = matrix.tocoo()
    bad = charges[coo.row] != charges[coo.col]
    if not bad.any():
        return charges, 0.0
    values = np.abs(coo.data[bad])
    worst = int(np.argmax(values))
    if values[worst] > OFF_SECTOR_TOL:
        row, col = int(coo.row[bad][worst]), int(coo.col[bad][worst])
        raise SymmetryViolationError(
            float(values[worst]), row, col, int(charges[row]), int(charges[col])
        )
    return charges, float(values[worst])


def decompose(liouvillian: "HeomLiouvillian", spec: SymmetrySpec | None = None) -> SectorDecomposition:
    """Split the generator into charge sectors, verifying block-diagonality.

    ``spec`` defaults to the model's declared symmetry.  The charges and the
    block-diagonality check are those of :func:`_sector_charges`, whose
    errors propagate.  The adjoint involution maps charge ``q`` to ``-q``, so
    :meth:`linalg.Solvable.restrict` keeps it on each sector whose charge is
    its own negative.
    """
    if spec is None:
        spec = liouvillian.model.symmetry
    if spec is None:
        raise MatrixValidationError("model declares no symmetry and none was given")
    space = liouvillian.hierarchy
    idx = np.asarray(space.indices, dtype=np.int64)[:, None, None, :]
    system = np.arange(liouvillian.d_s)
    # Basis order: hierarchy index (n, m), then the block entry |i><j|.
    charges, off_residual = _sector_charges(
        liouvillian.matrix, spec, liouvillian.model,
        ket=(system[None, :, None], idx[..., : space.n_modes]),
        bra=(system[None, None, :], idx[..., space.n_modes :]),
    )

    sectors = {int(charge): np.flatnonzero(charges == charge) for charge in np.unique(charges)}
    if 0 not in sectors:
        raise SymmetryViolationError(0.0, 0, 0, 0, 0)
    return SectorDecomposition(
        liouvillian=liouvillian,
        spec=spec,
        charges=charges,
        sectors=sectors,
        solvables={charge: liouvillian.solvable.restrict(members)
                   for charge, members in sectors.items()},
        off_sector_residual=off_residual,
    )


def leading_order(values: np.ndarray) -> np.ndarray:
    """Ordering by ascending ``|Re|``, then ``|Im|``, non-negative ``Im`` first.

    ``|Re|`` and ``|Im|`` are compared to 10 decimals, so the members of a
    conjugate pair are ordered by the sign of ``Im``, not by round-off.
    """
    return np.lexsort((values.imag < 0, np.round(np.abs(values.imag), 10),
                       np.round(np.abs(values.real), 10)))


def sector_leading_eigs(
    decomp: SectorDecomposition,
    charge: int,
    count: int,
    tol: float = 1e-10,
    seed: int = 0,
    shift: complex = 0.0,
) -> EigResult:
    """The ``count`` eigenvalues of one sector nearest ``shift``, gap-ordered.

    The one ordered targeted solve of a sector: :meth:`linalg.Solvable.eigs`
    of the sector, so at most its dimension of values, then
    :func:`leading_order`.
    """
    return _ordered_solve(decomp.solvable(charge), count, tol, seed, shift)


def _ordered_solve(solvable: Solvable, count: int, tol: float, seed: int,
                   shift: complex) -> EigResult:
    """:meth:`linalg.Solvable.eigs` of ``solvable``, in :func:`leading_order`."""
    res = solvable.eigs(shift, count, tol=tol, seed=seed)
    order = leading_order(res.eigenvalues)
    return EigResult(
        eigenvalues=res.eigenvalues[order],
        right_vectors=res.right_vectors[:, order],
        residual_norms=res.residual_norms[order],
        vector_condition=res.vector_condition,
    )
