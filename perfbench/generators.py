"""Seeded input generators for the benchmark workloads.

The generators use numpy only and stop before any dsfmin call, so the
program under test receives nothing but the inputs drawn here.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass
class PoleResidueInput:
    """[Q P] = sum_i [KQ_i KP_i] / (s - poles_i), with rank-1 residues.

    supports[i] is the row support of the residue column of pole i.
    """

    poles: np.ndarray
    KQ: list
    KP: list
    supports: list

    @property
    def p(self) -> int:
        return self.KQ[0].shape[0]

    @property
    def l(self) -> int:
        return self.poles.size


@dataclass
class Blocks:
    """Partitioned system: measured states first, output map [I_p 0]."""

    A11: np.ndarray
    A12: np.ndarray
    A21: np.ndarray
    A22: np.ndarray
    B1: np.ndarray
    B2: np.ndarray

    @property
    def p(self) -> int:
        return self.A11.shape[0]

    @property
    def h(self) -> int:
        return self.A22.shape[0]

    @property
    def A(self) -> np.ndarray:
        return np.block([[self.A11, self.A12], [self.A21, self.A22]])

    @property
    def B(self) -> np.ndarray:
        return np.vstack([self.B1, self.B2])


def pole_residue_input(rng, p: int, m: int, l: int) -> PoleResidueInput:
    """Draw the same random sequence as tests/conftest.py::random_dsf.

    That function feeds the result to from_pole_residue and DSF; this one
    returns the raw poles and residues instead.
    """
    poles = np.sort(rng.choice(np.linspace(-10.0, -1.0, 19), size=l, replace=False)
                    + rng.uniform(-0.2, 0.2, l))
    KQ, KP, supports = [], [], []
    for _ in range(l):
        support = rng.choice(p, size=int(rng.integers(1, p + 1)), replace=False)
        E = np.zeros(p)
        E[support] = rng.uniform(0.5, 2.0, support.size) * rng.choice([-1.0, 1.0], support.size)
        Fq = rng.uniform(-1.0, 1.0, p)
        Fq[support] = 0.0
        Fp = rng.uniform(-1.0, 1.0, m)
        if np.max(np.abs(np.concatenate([Fq, Fp]))) < 0.1:
            Fp[0] = 1.0
        KQ.append(np.outer(E, Fq))
        KP.append(np.outer(E, Fp))
        supports.append(frozenset(int(i) for i in support))
    return PoleResidueInput(poles, KQ, KP, supports)


def relay_blocks(rng, p: int, h: int, m: int, attempts: int = 500) -> Blocks:
    """Partitioned system whose diag W is constant.

    Hidden state k reads one set of measured nodes and drives a disjoint
    set, so A12[i, k] * A21[k, i] = 0 for every i and k and no hidden
    path returns to the node it left.  A22 is diagonal.  The diagonals of
    A11 and A22 are drawn from one grid of distinct values, so [Q P] has
    p + h distinct real poles, and candidates whose A has complex or
    nearly repeated eigenvalues are redrawn.  The true order is p + h.
    """
    n = p + h
    grid = np.linspace(-10.0, -1.0, max(19, n + 3))
    for _ in range(attempts):
        diag = rng.choice(grid, size=n, replace=False) + rng.uniform(-0.15, 0.15, n)
        A11 = np.diag(diag[:p]) + (rng.uniform(-0.4, 0.4, (p, p))
                                   * (rng.random((p, p)) < 0.5) * (1 - np.eye(p)))
        A12 = np.zeros((p, h))
        A21 = np.zeros((h, p))
        for k in range(h):
            order = rng.permutation(p)
            n_read = int(rng.integers(1, p))
            n_drive = int(rng.integers(1, p - n_read + 1))
            reads, drives = order[:n_read], order[n_read:n_read + n_drive]
            A21[k, reads] = rng.uniform(0.2, 0.6, n_read) * rng.choice([-1.0, 1.0], n_read)
            A12[drives, k] = rng.uniform(0.2, 0.6, n_drive) * rng.choice([-1.0, 1.0], n_drive)
        A22 = np.diag(diag[p:])
        B1 = rng.uniform(-1.0, 1.0, (p, m))
        B2 = rng.uniform(-1.0, 1.0, (h, m))
        blocks = Blocks(A11, A12, A21, A22, B1, B2)
        eig = np.linalg.eigvals(blocks.A)
        if np.max(np.abs(eig.imag)) > 1e-9:
            continue
        er = np.sort(eig.real)
        if np.min(np.diff(er)) < 1e-2:
            continue
        return blocks
    raise RuntimeError(f"no relay system of size {p}+{h} in {attempts} draws")
