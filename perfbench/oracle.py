"""Independent answer checks, in plain numpy.

Nothing here imports dsfmin.  A realization is judged by evaluating its
structure function at complex points off the real axis, where every
pole of the workloads lies, and comparing it with the input's native
form: pole-residue sums, generating blocks or polynomial coefficients.

    W = A11 + A12 (sI - A22)^-1 A21      V = B1 + A12 (sI - A22)^-1 B2
    Q = (sI - diag W)^-1 (W - diag W)    P = (sI - diag W)^-1 V
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

POINTS = (0.5 + 1.5j, -3.3 + 2.0j, 2.0 + 0.7j, -7.1 + 1.1j)

# today's verified answers agree to about 1e-9 relative error
RTOL = 1e-6

# worked examples: (phi, order, R* families in report order)
README_ANSWER = (3, 5, ["diag{-1, -2, -3}", "diag{-1, -2, -5}",
                        "diag{-1, -4, -3}", "diag{-1, -4, -5}"])
EX2_ANSWER = (1, 6, ["diag{a, -1, -1}", "diag{-2, a, -2}",
                     "diag{-3, -3, a}", "diag{-4, -4, -4}"])


@dataclass
class Answer:
    """What one op returned, in plain arrays.

    realizations holds (A11, A12, A21, A22, B1, B2) tuples; families the
    R* patterns, when the op reports them.
    """

    l: int
    phi: int
    order: int
    realizations: list
    families: list = field(default_factory=list)


def qp_from_blocks(blocks, s) -> np.ndarray:
    """[Q(s) P(s)] of a partitioned realization (A11, A12, A21, A22, B1, B2)."""
    A11, A12, A21, A22, B1, B2 = blocks
    p, h = A11.shape[0], A22.shape[0]
    W = A11.astype(complex)
    V = B1.astype(complex)
    if h:
        X = np.linalg.solve(s * np.eye(h) - A22, np.hstack([A21, B2]))
        W = W + A12 @ X[:, :p]
        V = V + A12 @ X[:, p:]
    R = np.diag(W)
    gap = (s - R)[:, None]
    return np.hstack([(W - np.diag(R)) / gap, V / gap])


def qp_from_pole_residue(poles, KQ, KP, s) -> np.ndarray:
    return sum(np.hstack([kq, kp]) / (s - lam) for lam, kq, kp in zip(poles, KQ, KP))


def qp_from_coeff(Q, P, s) -> np.ndarray:
    """[Q(s) P(s)] from {"num": [...], "den": [...]} grids, ascending degree."""
    def ev(grid):
        return np.array([[np.polynomial.polynomial.polyval(s, e["num"])
                          / np.polynomial.polynomial.polyval(s, e["den"])
                          for e in row] for row in grid])
    return np.hstack([ev(Q), ev(P)])


def relative_error(got: np.ndarray, want: np.ndarray) -> float:
    return float(np.max(np.abs(got - want)) / max(np.max(np.abs(want)), 1e-300))


def max_disjoint_family(supports) -> int:
    """Largest number of pairwise disjoint sets among supports."""
    for k in range(len(supports), 0, -1):
        for combo in itertools.combinations(supports, k):
            if sum(len(c) for c in combo) == len(frozenset().union(*combo)):
                return k
    return 0


def check(answer: Answer, native, p: int) -> list:
    """Reasons to reject the answer; empty when it passes.

    native(s) gives the input's [Q(s) P(s)].
    """
    reasons = []
    if not answer.realizations:
        reasons.append("no realization returned")
    if answer.order != p + answer.l - answer.phi:
        reasons.append(f"order {answer.order} != p + l - phi = "
                       f"{p} + {answer.l} - {answer.phi}")
    want = [native(s) for s in POINTS]
    for k, blocks in enumerate(answer.realizations):
        order = blocks[0].shape[0] + blocks[3].shape[0]
        if order != answer.order:
            reasons.append(f"realization {k + 1} has order {order}, "
                           f"reported minimal order {answer.order}")
        err = max(relative_error(qp_from_blocks(blocks, s), w)
                  for s, w in zip(POINTS, want))
        if not err <= RTOL:
            reasons.append(f"realization {k + 1}: [Q P] off by {err:.2e} relative")
    return reasons


def check_pole_residue(answer: Answer, inp) -> list:
    """Ladder input drawn as pole-residue data with known supports.

    Under the support-disjoint rule phi is the largest set of poles whose
    residue supports are pairwise disjoint, and l is the input's pole count.
    """
    reasons = check(answer, lambda s: qp_from_pole_residue(inp.poles, inp.KQ, inp.KP, s),
                    inp.p)
    if answer.l != inp.l:
        reasons.append(f"l = {answer.l}, input has {inp.l} poles")
    phi = max_disjoint_family(inp.supports)
    if answer.phi != phi:
        reasons.append(f"phi = {answer.phi}, disjoint supports give {phi}")
    return reasons


def check_blocks(answer: Answer, blocks) -> list:
    """State-space input of known order p + h."""
    parts = (blocks.A11, blocks.A12, blocks.A21, blocks.A22, blocks.B1, blocks.B2)
    reasons = check(answer, lambda s: qp_from_blocks(parts, s), blocks.p)
    if answer.order > blocks.p + blocks.h:
        reasons.append(f"order {answer.order} above the generating order "
                       f"{blocks.p + blocks.h}")
    return reasons


def check_exact(answer: Answer, expected) -> list:
    phi, order, families = expected
    got = (answer.phi, answer.order, answer.families)
    return [] if got == (phi, order, families) else [f"got {got}, expected {expected}"]
