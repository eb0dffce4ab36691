"""Benchmark for dsfmin: end-to-end metrics, or per-layer metrics traced.

    python3 perfbench/run.py --workload dsf_ladder --seed 1 --seconds 35 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 35 --trace 0

Run from the repository root.  One workload runs in one single-threaded
process, closed loop: each op starts when the previous one has returned.
The program is imported from ./src.  Every answer is checked against an
independent numpy oracle outside the op's clock.  The last line of
standard output is one JSON object with keys correct, attempted, failed
and metrics; the lines before it print every metric with its unit.
End-to-end times are scaled to a reference host speed (see REF_MS).

--trace 0 reports the end-to-end metrics.  --trace 1 runs each model
twice in a row, once plain and once with every dsfmin function wrapped
by tracer.Tracer, and reports per-layer means per traced op.
"""

import os

# pin BLAS threads before numpy loads, so the numbers measure the program
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from collections import Counter  # noqa: E402
from time import perf_counter  # noqa: E402

import numpy as np  # noqa: E402

from tracer import LAYERS, Tracer  # noqa: E402
from workloads import WORKLOADS, OpFailed  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SETUP_REPEATS = 11

# Reported times are scaled to a host on which reference_kernel_ms() takes
# REF_MS, by (REF_MS / local kernel time) ** HOST_ELASTICITY.  An op's
# local kernel time is the median of the kernel times of the ops within
# HOST_WINDOW of it.  On a shared 2-vCPU host the speed switched by up to
# 60% within seconds, and within runs op time followed the kernel with
# a slope of about 0.9 on log scales.
REF_MS = 0.7
HOST_ELASTICITY = 0.9
HOST_WINDOW = 5

# failure classes reported as per-layer errors.<name>; any other class
# counts as errors.other and is printed by name
ERROR_CLASSES = ("ResidueRankExceedsOne", "RepeatedPole", "ComplexPolesUnsupported",
                 "ValueError", "exit_1", "exit_2", "exit_3", "verdict_fail",
                 "oracle_reject", "other")

SPANS_MS = ("minreal.minreal_pipeline", "minreal.extract_modes", "ratcore.rmat_poles",
            "ratcore.residue_at", "ratcore.from_pole_residue", "dsf.DSF",
            "dsf.compute_dsf", "sslib.transfer_from_blocks", "dsf.consistency_check",
            "ratcore.rmat_equal", "sslib.is_invariant_zero", "dsf.dsf_to_transfer",
            "sslib.gilbert_realization", "sslib.mcmillan_degree", "cli.parse_model",
            "cli.build_report", "minreal.minimal_order", "minreal.compatibility_graph",
            "minreal.maximum_cliques")
SPANS_CALLS = ("ratcore.Polynomial.roots", "dsf.compute_dsf", "sslib.is_invariant_zero")
SIZES = ("l", "edges", "phi", "max_cliques", "realizations", "hidden")


def import_program():
    """Import dsfmin from ./src of the checkout; exit non-zero if it is missing."""
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "dsfmin", "__init__.py")):
        sys.exit(f"perfbench: no program source at {src}/dsfmin")
    sys.path.insert(0, src)
    t0 = perf_counter()
    dsfmin = importlib.import_module("dsfmin")
    for layer in LAYERS:
        importlib.import_module(f"dsfmin.{layer}")
    seconds = perf_counter() - t0
    if not os.path.abspath(dsfmin.__file__).startswith(src + os.sep):
        sys.exit(f"perfbench: dsfmin was imported from {dsfmin.__file__}, not {src}")
    return dsfmin, seconds


def reference_kernel_ms() -> float:
    """Wall time of a fixed kernel of numpy calls and Python loops.

    It touches no dsfmin code.  On a shared host the speed of the CPU
    drifts by up to 40% over minutes, and this kernel slows with it, by
    more than the program does (see HOST_ELASTICITY).  It spends about
    half its time in small numpy calls and Python arithmetic and half in
    LAPACK on a mid-size matrix.
    """
    t0 = perf_counter()
    for k in range(6):
        c = np.array([1.0, 0.3 + 0.01 * k, -2.0, 0.5, 1.5, -0.7])
        np.roots(c)
        np.linalg.svd(np.outer(c, c[::-1]) + np.eye(6), compute_uv=False)
        sum(x * 1.0001 for x in range(50))
    np.linalg.eigvals(_REF_MATRIX @ _REF_MATRIX.T + _REF_MATRIX)
    return (perf_counter() - t0) * 1e3


_REF_MATRIX = np.random.default_rng(0).standard_normal((24, 24))


def percentile(values, q):
    return float(np.percentile(values, q)) if values else float("nan")


class Run:
    """Outcome of the ops of one run, one record per op."""

    def __init__(self):
        self.ms = []           # every op
        self.answered = []     # per op: did the oracle accept its answer
        self.verify_ms = []
        self.errors = Counter()
        self.label_ops = Counter()       # ops per rung or model label
        self.label_answered = Counter()  # of those, answered and accepted
        self.returned = 0      # ops that returned an answer with a PASS verdict
        self.wrong = 0         # of those, answers the oracle rejected
        self.rejections = []

    def record(self, wl, model, dsfmin, tracer=None):
        wl.reset(model)
        ctx = tracer.op() if tracer else contextlib.nullcontext()
        kind = None
        t0 = perf_counter()
        try:
            with ctx:
                raw = wl.op(dsfmin, model)
        except OpFailed as exc:
            raw, kind = None, exc.kind
        except Exception as exc:  # the program raised: a failed op, by class
            raw, kind = None, type(exc).__name__
        ms = (perf_counter() - t0) * 1e3
        self.ms.append(ms)
        ok = self._outcome(wl, model, raw, kind)
        self.answered.append(ok)
        self.label_ops[wl.label(model)] += 1
        self.label_answered[wl.label(model)] += ok

    def _outcome(self, wl, model, raw, kind) -> bool:
        if raw is None:
            self.errors[kind] += 1
            return False
        self.returned += 1
        try:
            reasons = wl.check(wl.answer(raw, model), model)
        except (OSError, ValueError, KeyError) as exc:
            reasons = [f"unreadable answer: {exc!r}"]
        if reasons:
            self.wrong += 1
            self.errors["oracle_reject"] += 1
            self.rejections.append(reasons)
            return False
        if isinstance(raw, tuple):  # a CLI op: (report, verify seconds)
            self.verify_ms.append(raw[1] * 1e3)
        return True

    @property
    def answered_ms(self):
        return [ms for ms, ok in zip(self.ms, self.answered) if ok]

    @property
    def attempted(self):
        return len(self.ms)

    @property
    def failed(self):
        return self.attempted - self.returned


def setup(wl, dsfmin, seed, workdir):
    """Input generation and one warm-up op, timed; model-file writes are not.

    A file create takes 0.3-1 ms on a shared virtual disk and that cost
    drifts from minute to minute, so the 232 files of cli_enumerate
    would set the spread of setup_s.  Collects garbage first, so every
    repeat starts from the same heap.
    """
    gc.collect()
    t0 = perf_counter()
    models = wl.make_models(seed)
    generate_s = perf_counter() - t0
    wl.write_files(models, workdir)
    t0 = perf_counter()
    Run().record(wl, models[0], dsfmin)
    return models, generate_s + perf_counter() - t0


def run_workload(name, seed, seconds, trace):
    wl = WORKLOADS[name]
    dsfmin, import_s = import_program()
    workdir = tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT)
    try:
        setup_times = []
        for k in range(SETUP_REPEATS):
            models, setup_time = setup(wl, dsfmin, seed, os.path.join(workdir, str(k)))
            setup_times.append(setup_time)
        setup_s = import_s + statistics.median(setup_times)
        plain, traced = Run(), Run()
        tracer = Tracer() if trace else None
        sizes = Counter()
        ref_ms = []
        deadline = perf_counter() + seconds
        k = 0
        while perf_counter() < deadline:
            model = models[k % len(models)]
            ref_ms.append(reference_kernel_ms())
            plain.record(wl, model, dsfmin)
            if tracer:
                traced.record(wl, model, dsfmin, tracer)
                result = tracer.last_result.get("minreal.minreal_pipeline")
                if result is not None:
                    sizes["l"] += result.l
                    sizes["edges"] += len(result.graph.edges)
                    sizes["phi"] += result.phi
                    sizes["max_cliques"] += len(result.cliques.cliques)
                    sizes["realizations"] += len(result.realizations)
                    sizes["hidden"] += result.hidden
            k += 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    runs = (plain, traced) if trace else (plain,)
    summary = {
        "correct": all(r.wrong == 0 for r in runs),
        "attempted": sum(r.attempted for r in runs),
        "failed": sum(r.failed for r in runs),
    }
    lines = [f"workload {name}: seed {seed}, {seconds} s, {plain.attempted} ops "
             f"on {min(k, len(models))} of {len(models)} models"]
    host_ref_ms = statistics.median(ref_ms)
    lines.append(f"  host_ref_ms {host_ref_ms:.4f} ms: median reference kernel time")
    if trace:
        metrics = layer_metrics(tracer, traced, plain, sizes, host_ref_ms)
    else:
        scales = host_scales(ref_ms)
        # the kernel runs warmer between set-ups than between ops, so
        # set-up time takes the run's median factor
        metrics = end_to_end_metrics(plain, setup_s * np.median(scales), scales)
        lines += [f"  end-to-end times are scaled per op by ({REF_MS} / local kernel ms) ** "
                  f"{HOST_ELASTICITY}; median factor {np.median(scales):.4f}, also "
                  f"applied to setup_s",
                  f"  unscaled: latency_ms_p50 {percentile(plain.answered_ms, 50):.4f}, "
                  f"latency_ms_p90 {percentile(plain.answered_ms, 90):.4f}, "
                  f"setup_s {setup_s:.4f}",
                  f"  samples {len(plain.answered_ms)} answered ops of {plain.attempted}",
                  f"  failed_frac {plain.failed / plain.attempted:.4f}",
                  f"  wrong_frac {plain.wrong / max(plain.returned, 1):.4f}"
                  f" ({plain.wrong} of {plain.returned} returned answers)"]
        if plain.verify_ms:
            lines.append(f"  verify_ms_p50 {percentile(plain.verify_ms, 50):.4f} ms "
                         f"({len(plain.verify_ms)} samples)")
        if len(plain.answered_ms) < 100:
            lines.append("  warning: fewer than 100 answered ops; p90 is not resolved")
    for label, ops in plain.label_ops.items():
        lines.append(f"  {label}: {plain.label_answered[label]} of {ops} ops answered")
    for err, count in sorted(plain.errors.items()):
        lines.append(f"  errors.{err} {count}")
    for reasons in plain.rejections[:5]:
        lines.append(f"  oracle rejected: {'; '.join(reasons)}")
    for key, m in metrics.items():
        lines.append(f"  {key} {m['value']:.6g} {m['unit']}")
    summary["metrics"] = metrics
    return lines, summary


def host_scales(ref_ms):
    """Per-op factor (REF_MS / local kernel time) ** HOST_ELASTICITY."""
    ref = np.asarray(ref_ms)
    local = np.array([np.median(ref[max(0, i - HOST_WINDOW):i + HOST_WINDOW + 1])
                      for i in range(ref.size)])
    return (REF_MS / local) ** HOST_ELASTICITY


def end_to_end_metrics(plain, setup_s, scales):
    """End-to-end metrics from op times multiplied by their host scales."""
    scaled = np.asarray(plain.ms) * scales
    answered = scaled[np.asarray(plain.answered, dtype=bool)].tolist()
    return {
        "latency_ms_p50": {"value": percentile(answered, 50), "unit": "ms"},
        "latency_ms_p90": {"value": percentile(answered, 90), "unit": "ms"},
        "answers_per_s": {"value": len(answered) / (scaled.sum() / 1e3), "unit": "1/s"},
        "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                        "unit": "MB"},
        "setup_s": {"value": setup_s, "unit": "s"},
    }


def layer_metrics(tracer, traced, plain, sizes, host_ref_ms):
    """Per-layer means per traced op, unscaled; host_ref_ms gives the scale."""
    n = tracer.ops
    out = {}
    for name in SPANS_MS:
        out[f"{name}.ms"] = {"value": tracer.span_s[name] * 1e3 / n, "unit": "ms"}
    for name in SPANS_CALLS:
        out[f"{name}.calls"] = {"value": tracer.calls[name] / n, "unit": "count/op"}
    for layer in LAYERS:
        out[f"{layer}.self_ms"] = {"value": tracer.self_s[layer] * 1e3 / n, "unit": "ms"}
    out["unaccounted_ms"] = {"value": tracer.unaccounted_s * 1e3 / n, "unit": "ms"}
    out["traced_op_ms"] = {"value": tracer.op_s * 1e3 / n, "unit": "ms"}
    for key in SIZES:
        out[f"size.{key}"] = {"value": sizes[key] / n, "unit": "count/op"}
    errors = dict.fromkeys(ERROR_CLASSES, 0)
    for err, count in traced.errors.items():
        errors[err if err in errors else "other"] += count
    for err, count in errors.items():
        out[f"errors.{err}"] = {"value": count / n, "unit": "count/op"}
    overhead = percentile(traced.answered_ms, 50) / percentile(plain.answered_ms, 50) - 1
    out["trace_overhead_frac"] = {"value": overhead, "unit": "frac"}
    out["host_ref_ms"] = {"value": host_ref_ms, "unit": "ms"}
    return out


def run_all(args):
    """Each workload in its own process, one after another."""
    results = {}
    for name in WORKLOADS:
        proc = subprocess.run([sys.executable, os.path.abspath(__file__), "--workload", name,
                               "--seed", str(args.seed), "--seconds", str(args.seconds),
                               "--trace", str(args.trace)],
                              capture_output=True, text=True, cwd=ROOT, check=False)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.splitlines()
        if proc.returncode or not lines:
            sys.exit(f"perfbench: workload {name} exited with code {proc.returncode}")
        print("\n".join(lines[:-1]))
        results[name] = json.loads(lines[-1])
    print(json.dumps(results))


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.workload == "all":
        run_all(args)
        return
    lines, summary = run_workload(args.workload, args.seed, args.seconds, args.trace)
    print("\n".join(lines))
    print(json.dumps(summary))


if __name__ == "__main__":
    main()
