"""Checks of the benchmark's own parts: generators, oracle and tracer.

Run with ``PYTHONPATH=src python -m pytest perfbench`` from the
repository root.
"""

import importlib.util
import os
import sys
from time import perf_counter

import numpy as np
import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import dsfmin  # noqa: E402
import dsfmin.cli  # noqa: E402
import dsfmin.minreal  # noqa: E402
import dsfmin.ratcore  # noqa: E402

import oracle  # noqa: E402
from generators import pole_residue_input, relay_blocks  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def _reference_random_dsf():
    spec = importlib.util.spec_from_file_location(
        "dsfmin_tests_conftest", os.path.join(ROOT, "tests", "conftest.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.random_dsf


def _dsf_from_input(inp, m=2):
    from dsfmin import DSF, PoleResidueForm, from_pole_residue

    Q = from_pole_residue(PoleResidueForm(inp.poles, inp.KQ, np.zeros((inp.p, inp.p))))
    P = from_pole_residue(PoleResidueForm(inp.poles, inp.KP, np.zeros((inp.p, m))))
    return DSF(Q, P)


@pytest.mark.parametrize("seed", [0, 1, 7, 2024])
def test_pole_residue_input_draws_as_random_dsf(seed):
    random_dsf = _reference_random_dsf()
    rng_ref, rng = np.random.default_rng(seed), np.random.default_rng(seed)
    for l in (2, 4, 6):
        want = random_dsf(rng_ref, 3, 2, l)
        got = _dsf_from_input(pole_residue_input(rng, 3, 2, l))
        for M_want, M_got in ((want.Q, got.Q), (want.P, got.P)):
            for row_w, row_g in zip(M_want.entries, M_got.entries):
                for e_w, e_g in zip(row_w, row_g):
                    assert np.array_equal(e_w.num.coeffs, e_g.num.coeffs)
                    assert np.array_equal(e_w.den.coeffs, e_g.den.coeffs)
    assert rng.random() == rng_ref.random()


def test_relay_blocks_have_constant_diag_w():
    rng = np.random.default_rng(5)
    for p, h in ((3, 2), (4, 6), (6, 10)):
        b = relay_blocks(rng, p, h, 2)
        assert np.all(b.A12 * b.A21.T == 0.0)
        assert np.array_equal(b.A22, np.diag(np.diag(b.A22)))
        eig = np.linalg.eigvals(b.A)
        assert np.max(np.abs(eig.imag)) <= 1e-9
        poles = np.sort(np.concatenate([np.diag(b.A11), np.diag(b.A22)]))
        assert np.min(np.diff(poles)) > 0.1


def test_max_disjoint_family():
    sets = [frozenset(s) for s in ({0, 1}, {2}, {1, 2}, {3}, {0})]
    assert oracle.max_disjoint_family(sets) == 3
    assert oracle.max_disjoint_family([frozenset({0})] * 4) == 1


def _perturbed(answer, k, eps=1e-3):
    blocks = [list(b) for b in answer.realizations]
    blocks[0][k] = blocks[0][k] + eps
    return oracle.Answer(answer.l, answer.phi, answer.order,
                         [tuple(b) for b in blocks], answer.families)


@pytest.mark.parametrize("name", ["dsf_ladder", "relay_ladder"])
def test_oracle_accepts_answer_and_rejects_perturbed_realization(name):
    wl = WORKLOADS[name]
    for model in wl.make_models(3):
        answer = wl.answer(wl.op(dsfmin, model), model)
        if answer.realizations[0][3].size:  # hidden states, so A12 and A22 can be perturbed
            break
    assert wl.check(answer, model) == []
    for k in (0, 1, 3, 5):  # A11, A12, A22, B2
        assert wl.check(_perturbed(answer, k), model)
    wrong_phi = oracle.Answer(answer.l, answer.phi - 1, answer.order + 1,
                              answer.realizations)
    assert wl.check(wrong_phi, model)


def test_cli_worked_examples_checked_exactly(tmp_path):
    wl = WORKLOADS["cli_enumerate"]
    models = wl.make_models(3)
    wl.write_files(models, str(tmp_path))
    for model in models[:3]:
        answer = wl.answer(wl.op(dsfmin, model), model)
        assert wl.check(answer, model) == []
        swapped = oracle.Answer(answer.l, answer.phi, answer.order,
                                answer.realizations, answer.families[::-1])
        if model.label in ("readme", "ex2"):
            assert wl.check(swapped, model)
        assert wl.check(_perturbed(answer, 2), model)


def test_tracer_accounts_for_op_time():
    wl = WORKLOADS["dsf_ladder"]
    model = wl.make_models(3)[0]
    original = dsfmin.minreal.residue_at
    tracer = Tracer()
    t0 = perf_counter()
    with tracer.op():
        wl.op(dsfmin, model)
    wall = perf_counter() - t0
    assert dsfmin.minreal.residue_at is original
    assert not hasattr(dsfmin.ratcore.Polynomial.roots, "__wrapped__")
    accounted = sum(tracer.self_s.values()) + tracer.unaccounted_s
    assert accounted == pytest.approx(tracer.op_s, rel=1e-9)
    assert tracer.op_s <= wall
    assert tracer.calls["ratcore.residue_at"] >= model[1].l
    assert tracer.calls["ratcore.Polynomial.roots"] > 0
    assert tracer.span_s["ratcore.from_pole_residue"] > 0.0
    assert tracer.last_result["minreal.minreal_pipeline"].l == model[1].l
