"""The defect ledger: one test per row of the ROADMAP's defect table.

Each test asserts the right answer on a few seeded draws of the row's
generator and is marked ``xfail(strict=True)``: it fails today, and a
change that mends the row sees it pass, which strict mode reports as a
failure until that change removes the marker.  Every row fails as an
assertion, so an error in the test itself does not count as the defect.
"""

import sys

import numpy as np
import pytest

from dsfmin import (
    DSF,
    PartitionedRealization,
    PoleResidueForm,
    compute_dsf,
    consistency_check,
    from_pole_residue,
    minimal_order,
    minreal_pipeline,
)
from dsfmin import dsf, minreal
from dsfmin.errors import DsfminError

from conftest import random_partition, random_pole_residue
from test_dsf import _relay_blocks


def _answer(build):
    """The pipeline's answer on ``build()``, or the name of the error it raised."""
    try:
        return minreal_pipeline(build())
    except (DsfminError, ValueError) as err:
        return type(err).__name__


def _partition(A, B, p):
    return PartitionedRealization(A[:p, :p], A[:p, p:], A[p:, :p], A[p:, p:], B[:p], B[p:])


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="ROADMAP items 1-2: dense systems get order p(1+h), above p+h")
def test_dense_partition_order_at_most_generating_order():
    rng = np.random.default_rng(5)
    orders = [minimal_order(compute_dsf(random_partition(rng, 3, 2, 2))).order
              for _ in range(3)]
    assert max(orders) <= 5, orders


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="ROADMAP item 3: a 1e-4 change to A22[0, 0] passes consistency_check")
def test_perturbed_hidden_rate_fails_consistency():
    rng = np.random.default_rng(61)
    relay_blocks = _relay_blocks()
    passed = []
    for _ in range(5):
        b = relay_blocks(rng, 4, 3, 2)
        d = compute_dsf(PartitionedRealization(b.A11, b.A12, b.A21, b.A22, b.B1, b.B2))
        part = minreal_pipeline(d).realizations[0].realization
        if not part.h:
            continue
        A22 = part.A22.copy()
        A22[0, 0] += 1e-4
        moved = PartitionedRealization(part.A11, part.A12, part.A21, A22, part.B1, part.B2)
        passed.append(consistency_check(moved, d))
    assert passed and not any(passed), passed


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="ROADMAP item 4: phi comes from an exponential clique search")
def test_dense_search_does_not_enumerate_cliques():
    d = compute_dsf(random_partition(np.random.default_rng(5), 5, 4, 2))
    code = minreal._bron_kerbosch.__code__
    entered = []

    def profile(frame, event, arg):
        if event == "call" and frame.f_code is code:
            entered.append(1)

    sys.setprofile(profile)
    try:
        minimal_order(d)
    finally:
        sys.setprofile(None)
    assert not entered, f"_bron_kerbosch entered {len(entered)} times"


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="ROADMAP item 5: shared-rate relays raise ResidueRankExceedsOne")
def test_shared_rate_relays_answer():
    rng = np.random.default_rng(7)
    relay_blocks = _relay_blocks()
    got = []
    for _ in range(3):
        b = relay_blocks(rng, 3, 2, 2)
        A22 = b.A22.copy()
        A22[1, 1] = A22[0, 0]
        result = _answer(lambda: compute_dsf(
            PartitionedRealization(b.A11, b.A12, b.A21, A22, b.B1, b.B2)))
        got.append(result if isinstance(result, str) else result.order)
    assert all(isinstance(x, int) and x <= 5 for x in got), got


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="ROADMAP item 7: complex poles raise ComplexPolesUnsupported")
def test_generic_system_with_complex_poles_answers():
    rng = np.random.default_rng(11)
    got = []
    for _ in range(3):
        A = rng.standard_normal((5, 5)) - 3.0 * np.eye(5)
        B = rng.standard_normal((5, 2))
        result = _answer(lambda: compute_dsf(_partition(A, B, 3)))
        got.append(result if isinstance(result, str) else result.order)
    assert all(isinstance(x, int) for x in got), got


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="ROADMAP item 10: measured-state units flip a zero check")
def test_measured_state_units_keep_zero_checks():
    rng = np.random.default_rng(4)
    relay_blocks = _relay_blocks()
    moved = []
    for size in ((3, 2), (4, 3), (5, 4)):
        for _ in range(4):
            b = relay_blocks(rng, *size, 2)
            part = PartitionedRealization(b.A11, b.A12, b.A21, b.A22, b.B1, b.B2)
            want = [c.ok for c in minreal_pipeline(compute_dsf(part)).realizations[0].zero_checks]
            for _ in range(3):
                t = 10.0 ** rng.uniform(-4.0, 4.0, b.p)
                scaled = PartitionedRealization(t[:, None] * b.A11 / t, t[:, None] * b.A12,
                                                b.A21 / t, b.A22, t[:, None] * b.B1, b.B2)
                result = minreal_pipeline(compute_dsf(scaled))
                got = [c.ok for c in result.realizations[0].zero_checks]
                if got != want:
                    moved.append((size, got, want))
    assert not moved, moved


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="ROADMAP item 15: rational entries at 16 poles lose the answer")
def test_rational_entries_at_sixteen_poles_answer_as_modes():
    rng = np.random.default_rng(2026)
    got, want = [], []
    for _ in range(2):
        poles, KQ, KP = random_pole_residue(rng, 4, 2, 16)
        modes = minreal_pipeline(DSF.from_modes(poles, np.concatenate([KQ, KP], axis=2)))
        want.append((modes.l, modes.phi))
        result = _answer(lambda: DSF(
            from_pole_residue(PoleResidueForm(poles, KQ, np.zeros((4, 4)))),
            from_pole_residue(PoleResidueForm(poles, KP, np.zeros((4, 2))))))
        got.append(result if isinstance(result, str) else (result.l, result.phi))
    assert got == want


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="ROADMAP item 9: compute_dsf's stacked path and its staircase "
                          "judge couplings near TOL_RANK apart")
def test_weak_coupling_judged_alike_on_both_paths(monkeypatch):
    rng = np.random.default_rng(0)
    parts = []
    while len(parts) < 10:
        part = random_partition(rng, 2, 3, 1)
        if np.any(np.linalg.eigvals(part.A22).imag != 0.0):
            continue  # complex hidden modes send every row to the staircase
        A12 = part.A12.copy()
        A12[0] = 1e-7 * rng.standard_normal(part.h)
        parts.append(PartitionedRealization(part.A11, A12, part.A21, part.A22, part.B1, part.B2))

    def seen(part):
        d = compute_dsf(part)
        return len(d.poles), (d.residues != 0.0).tolist()

    stacked = [seen(part) for part in parts]
    monkeypatch.setattr(dsf, "_safe_rows", lambda lam, V, tol_pole: np.zeros(len(lam), dtype=bool))
    differ = [k for k, part in enumerate(parts) if seen(part) != stacked[k]]
    assert not differ, f"draws {differ}: pole count or residue support differs"
