"""Random operators and spectral checks that only the tests use.

Built on the kernel's private constructors, so a random projection is
made exactly as the library makes its internal sums: the symmetrized
average of a product, checked for idempotency and rank.
"""

from typing import Sequence

import numpy as np

from orthoprob.errors import ValidationError
from orthoprob.linalg import (HermitianOperator, Projection, _check_same_dim,
                              _hermitian_matrix_of, _matrix_of, _symmetrized,
                              _symmetrized_projection, random_unitary)
from orthoprob.states import DensityState


def matmul(a, b) -> np.ndarray:
    """Plain matrix product A @ B (generally not Hermitian)."""
    ma, mb = _matrix_of(a), _matrix_of(b)
    _check_same_dim(ma, mb)
    return ma @ mb


def min_eigenvalue(a) -> float:
    """Smallest eigenvalue of a Hermitian matrix."""
    return float(np.linalg.eigvalsh(_hermitian_matrix_of(a))[0])


def is_positive_semidefinite(a, tol: float = 1e-10) -> bool:
    return min_eigenvalue(a) >= -tol


def random_hermitian(dim: int, rng: np.random.Generator) -> HermitianOperator:
    """Random Hermitian matrix with every entry bounded by 1 in modulus."""
    a = rng.uniform(-0.5, 0.5, size=(dim, dim)) + \
        1j * rng.uniform(-0.5, 0.5, size=(dim, dim))
    return HermitianOperator(_symmetrized(a))


def random_projection(dim: int, rank: int, rng: np.random.Generator) -> Projection:
    """Random rank-``rank`` projection from a Haar frame."""
    if not 0 <= rank <= dim:
        raise ValidationError(f"rank {rank} out of range for dimension {dim}")
    u = random_unitary(dim, rng)
    cols = u[:, :rank]
    return _symmetrized_projection(cols @ cols.conj().T)


def random_orthogonal_projections(dim: int, ranks: Sequence[int],
                                  rng: np.random.Generator) -> list[Projection]:
    """Mutually orthogonal projections carved from one random frame.

    ``sum(ranks)`` must not exceed ``dim``; a zero rank yields the zero
    projection, which is orthogonal to everything.
    """
    if sum(ranks) > dim:
        raise ValidationError(f"ranks {list(ranks)} exceed dimension {dim}")
    u = random_unitary(dim, rng)
    out, start = [], 0
    for r in ranks:
        cols = u[:, start:start + r]
        out.append(_symmetrized_projection(cols @ cols.conj().T))
        start += r
    return out


def random_density_matrix(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Random full-rank density matrix A A^H / trace."""
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    m = _symmetrized(a @ a.conj().T)
    return m / m.trace().real


def random_density_state(dim: int, rng: np.random.Generator) -> DensityState:
    return DensityState(random_density_matrix(dim, rng))
