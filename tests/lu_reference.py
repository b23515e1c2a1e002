"""Sparse-LU reference for ``oracle.GridSystem``, used only by the tests.

(I - Q) over the free cells of the torus, Q the quarter-adjacency, factored
once; every method solves the Dirichlet or Poisson problem it stands for on
the free cells.  It keeps the oracle's interface, so a test can swap it in
for ``oracle.GridSystem`` and rebuild any caller on the LU, and it adds the
free-cell bookkeeping (``index``, ``nfree``, ``full_vector``, ``one_step_to``)
that single-solve comparisons need.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.sparse import csr_matrix, identity
from scipy.sparse.linalg import splu

RESIDUAL_TOL = 1e-10


def neighbor_codes(n: int) -> np.ndarray:
    """(N, 4) flat codes of the four lattice neighbours of every cell."""
    x, y = divmod(np.arange(n * n), n)
    return np.stack(
        [((x + 1) % n) * n + y, ((x - 1) % n) * n + y, x * n + (y + 1) % n, x * n + (y - 1) % n],
        axis=1,
    )


class LUSystem:
    def __init__(self, n: int, absorbing: np.ndarray):
        self.n = n
        self.absorbing = absorbing.reshape(-1)
        self.codes = np.nonzero(self.absorbing)[0]
        self.free_codes = np.nonzero(~self.absorbing)[0]
        self.nfree = self.free_codes.size
        self.index = np.full(n * n, -1)
        self.index[self.free_codes] = np.arange(self.nfree)
        self._nb = neighbor_codes(n)[self.free_codes]
        self.Q = self._steps_to(self.index, self.nfree)
        self.matrix = (identity(self.nfree, format="csr") - self.Q).tocsc()
        self._lu = splu(self.matrix, permc_spec="MMD_AT_PLUS_A")

    def _steps_to(self, position: np.ndarray, size: int) -> csr_matrix:
        cols = position[self._nb].reshape(-1)
        rows = np.repeat(np.arange(self.nfree), 4)
        keep = cols >= 0
        data = np.full(keep.sum(), 0.25)
        return csr_matrix((data, (rows[keep], cols[keep])), shape=(self.nfree, size))

    def one_step_to(self, target_codes: np.ndarray) -> csr_matrix:
        """Sparse (nfree, len(target_codes)) one-step probabilities."""
        tpos = np.full(self.n * self.n, -1)
        tpos[target_codes] = np.arange(target_codes.size)
        return self._steps_to(tpos, target_codes.size)

    def full_vector(self, h_free: np.ndarray) -> np.ndarray:
        """Embed free-cell values (a vector or columns) into all N cells."""
        out = np.zeros((self.n * self.n,) + h_free.shape[1:])
        out[self.free_codes] = h_free
        return out

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        h = self._lu.solve(rhs)
        resid = np.abs(self.matrix @ h - rhs).max()
        if resid > RESIDUAL_TOL * max(1.0, np.abs(rhs).max()):
            raise RuntimeError(f"solver residual {resid:.3e} above tolerance")
        return h

    def exit_distribution(self, source_codes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Harmonic extension of each absorbing cell's indicator, read at the sources."""
        idx = self.index[source_codes]
        rows = np.zeros((source_codes.size, self.codes.size))
        rows[idx >= 0] = self.solve(self.one_step_to(self.codes).toarray())[idx[idx >= 0]]
        absorbed = np.nonzero(idx < 0)[0]
        rows[absorbed, np.searchsorted(self.codes, source_codes[absorbed])] = 1.0
        return rows, self.codes

    def green_columns(self, codes: np.ndarray) -> np.ndarray:
        cols = np.zeros((self.n * self.n, codes.size))
        for j, i in enumerate(self.index[codes]):
            if i >= 0:
                e = np.zeros(self.nfree)
                e[i] = 1.0
                cols[:, j] = self.full_vector(self.solve(e))
        return cols

    def weighted_green(self, codes: np.ndarray, weights: np.ndarray) -> np.ndarray:
        rhs = np.zeros(self.nfree)
        rhs[self.index[codes]] = weights
        return self.full_vector(self.solve(rhs))

    def expected_hit(self) -> np.ndarray:
        return self.hitting_moments(1)[0]

    def hitting_moments(self, k: int, exit_moments=()) -> list[np.ndarray]:
        """E_x[(H + F)^j] for every cell and j = 1..k, by the Poisson hierarchy
        (I - Q) m_j = 1 + sum_{0<i<j} C(j, i) (Q m_i + B f_i) + B f_j."""
        B = self.one_step_to(self.codes)
        exit_terms = [B @ f for f in exit_moments]
        free = []
        for j in range(1, k + 1):
            rhs = np.ones(self.nfree)
            for i in range(1, j):
                term = self.Q @ free[i - 1]
                if exit_terms:
                    term = term + exit_terms[i - 1]
                rhs = rhs + math.comb(j, i) * term
            if exit_terms:
                rhs = rhs + exit_terms[j - 1]
            free.append(self.solve(rhs))
        out = [self.full_vector(h) for h in free]
        for h, f in zip(out, exit_moments):
            h[self.codes] = f
        return out
