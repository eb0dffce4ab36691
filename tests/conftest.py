"""Shared fixtures: worked examples and random system generators."""

import numpy as np
import pytest

from dsfmin import (
    DSF,
    PartitionedRealization,
    PoleResidueForm,
    RationalFunction,
    RationalMatrix,
    StateSpace,
    compute_dsf,
    from_pole_residue,
)
from dsfmin.errors import AssumptionError


def rf(num, den=(1.0,)):
    return RationalFunction(num, den)


def rmat(entries):
    return RationalMatrix([[rf(*e) if isinstance(e, tuple) else rf(e)
                            for e in row] for row in entries])


ZERO = ([0.0],)


@pytest.fixture
def ex2_dsf():
    """Three measured nodes, one input; every entry 1/(s+k)."""
    Q = rmat([[ZERO, ([1], [2, 1]), ([1], [3, 1])],
              [([1], [1, 1]), ZERO, ([1], [3, 1])],
              [([1], [1, 1]), ([1], [2, 1]), ZERO]])
    P = rmat([[([1], [4, 1])], [([1], [4, 1])], [([1], [4, 1])]])
    return DSF(Q, P)


# hand-derived residues of [sQ sP] for the ex2 system, keyed by pole
EX2_RESIDUES = {
    -1.0: np.array([[0., 0., 0., 0.], [-1., 0., 0., 0.], [-1., 0., 0., 0.]]),
    -2.0: np.array([[0., -2., 0., 0.], [0., 0., 0., 0.], [0., -2., 0., 0.]]),
    -3.0: np.array([[0., 0., -3., 0.], [0., 0., -3., 0.], [0., 0., 0., 0.]]),
    -4.0: np.array([[0., 0., 0., -4.], [0., 0., 0., -4.], [0., 0., 0., -4.]]),
}

# unit-scale residue column directions of the ex2 system, derived by hand
EX2_E_DIRECTIONS = {
    -1.0: np.array([0.0, -0.5, -0.5]),
    -2.0: np.array([-1.0, 0.0, -1.0]),
    -3.0: np.array([-1.5, -1.5, 0.0]),
    -4.0: np.array([-1.0, -1.0, -1.0]),
}

EX2_D1 = np.array([[0., 1., 1., 1.], [1., 0., 1., 1.], [1., 1., 0., 1.]])

# R* families for ex2: entries by diagonal position, None meaning free
EX2_FAMILIES = [(None, -1.0, -1.0), (-2.0, None, -2.0),
                (-3.0, -3.0, None), (-4.0, -4.0, -4.0)]


def ex1_matrices():
    """Five-state network: three measured nodes, two hidden, two inputs."""
    A = np.array([[-1., 0., 1., 0., 0.],
                  [0., -2., 0., 1., 0.],
                  [0., 1., -3., 0., 1.],
                  [1., 0., 0., -4., 0.],
                  [0., 1., 0., 0., -5.]])
    B = np.array([[1., 0.], [0., 1.], [0., 0.], [0., 0.], [0., 0.]])
    C = np.hstack([np.eye(3), np.zeros((3, 2))])
    return A, B, C


@pytest.fixture
def ex1_statespace():
    return StateSpace(*ex1_matrices())


@pytest.fixture
def ex1_partition():
    A, B, _ = ex1_matrices()
    return PartitionedRealization(A[:3, :3], A[:3, 3:], A[3:, :3], A[3:, 3:],
                                  B[:3], B[3:])


def ex1_dsf_closed_form():
    """Structure function of the five-state network, derived by hand."""
    Q = rmat([[ZERO, ZERO, ([1], [1, 1])],
              [([1], [8, 6, 1]), ZERO, ZERO],
              [ZERO, ([6, 1], [15, 8, 1]), ZERO]])
    P = rmat([[([1], [1, 1]), ZERO],
              [ZERO, ([1], [2, 1])],
              [ZERO, ZERO]])
    return DSF(Q, P)


def random_partition(rng, p, h, m, attempts=80):
    """Partitioned system with real distinct eigenvalues in [-10, -1].

    Diagonal dominance keeps the poles of the derived structure function
    real; candidates violating that (or the eigenvalue constraints) are
    resampled.
    """
    n = p + h
    for _ in range(attempts):
        base = np.linspace(-9.8, -1.2, n) + rng.uniform(-0.15, 0.15, n)
        rng.shuffle(base)
        A = np.diag(base) + rng.uniform(-0.3, 0.3, (n, n)) * (1 - np.eye(n))
        eig = np.linalg.eigvals(A)
        if np.max(np.abs(eig.imag)) > 1e-10:
            continue
        er = np.sort(eig.real)
        if er[0] < -10.0 or er[-1] > -1.0:
            continue
        if er.size > 1 and np.min(np.diff(er)) < 1e-3:
            continue
        B = rng.uniform(-1.0, 1.0, (n, m))
        part = PartitionedRealization(A[:p, :p], A[:p, p:], A[p:, :p],
                                      A[p:, p:], B[:p], B[p:])
        try:
            compute_dsf(part)
        except AssumptionError:
            continue
        return part
    raise RuntimeError("failed to sample a valid partitioned system")


def random_pole_residue(rng, p, m, l):
    """Poles and residues (poles, KQ, KP) of a structure function with
    rank-1 residues and distinct real poles.

    Each pole gets a residue column supported on a random row subset;
    the row factor is zeroed on that subset in the Q block so that the
    diagonal of Q stays identically zero.
    """
    poles = np.sort(rng.choice(np.linspace(-10.0, -1.0, 19), size=l, replace=False)
                    + rng.uniform(-0.2, 0.2, l))
    KQ, KP = [], []
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
    return poles, KQ, KP


def random_dsf(rng, p, m, l):
    """Structure function of ``random_pole_residue``, built from rational entries."""
    poles, KQ, KP = random_pole_residue(rng, p, m, l)
    Q = from_pole_residue(PoleResidueForm(poles, KQ, np.zeros((p, p))))
    P = from_pole_residue(PoleResidueForm(poles, KP, np.zeros((p, m))))
    return DSF(Q, P)
