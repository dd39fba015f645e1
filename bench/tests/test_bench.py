"""The benchmark's own tests: seeded inputs, failure counting, tracing, spec.

    python3 -m pytest bench/tests
"""

import json
import math
import os

import numpy as np
import pytest

import ops
import tracing
import worker
import workloads as wl

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def _inputs(workload, seed):
    return (wl.first_cycles(workload, seed, 9), wl.warmup(workload, seed),
            wl.fixtures(workload, seed))


@pytest.mark.parametrize("workload", wl.WORKLOADS)
def test_same_seed_same_inputs(workload):
    assert _inputs(workload, 11) == _inputs(workload, 11)
    assert wl.first_cycles(workload, 11, 9) != wl.first_cycles(workload, 12, 9)


@pytest.mark.parametrize("workload", wl.WORKLOADS)
def test_warmup_never_repeats_a_timed_input(workload):
    timed = {op for cycle in wl.first_cycles(workload, 5, 40) for op in cycle}
    assert timed.isdisjoint(wl.warmup(workload, 5))


def test_cycle_mix_is_fixed():
    def dim(level):
        return level[0] ** level[1] - 1 - level[1]
    spans = [(min(map(dim, band)), max(map(dim, band))) for band in wl.CONDUCTOR_BANDS]
    assert all(hi < lo for (_, hi), (lo, _) in zip(spans, spans[1:]))
    for c in wl.first_cycles("conductor-spectra", 3, 20):
        for op, band in zip(c, wl.CONDUCTOR_CYCLE):
            if band is None:
                assert op[0] == "commutation" and op[1:] in wl.COMMUTATION_LEVELS
            else:
                assert op[0] == "spectrum" and spans[band][0] <= dim(op[1:]) <= spans[band][1]
    block = len(wl.LOCAL_PRIME_COUNTS)
    local = wl.first_cycles("local-terms", 3, 3 * block)
    kinds = {tuple(op[0] for op in c) for c in local}
    assert kinds == {("local_terms", "ef_check", "positivity", "step")}
    for i in range(0, len(local), block):
        counts = sorted(len(wl.support_primes(*c[0][1][:2])) for c in local[i:i + block])
        assert tuple(counts) == wl.LOCAL_PRIME_COUNTS
    assert wl.cycle_count("local-terms", 20) % block == 0
    block = wl.CYCLE_BLOCK["conductor-spectra"]
    conductor = wl.first_cycles("conductor-spectra", 3, block)
    for band in (3, 4):  # the bands the median and the 90th percentile fall in
        levels = [op[1:] for c in conductor for op, b in zip(c, wl.CONDUCTOR_CYCLE) if b == band]
        copies = block * wl.CONDUCTOR_CYCLE.count(band) // len(wl.CONDUCTOR_BANDS[band])
        assert sorted(levels) == sorted(wl.CONDUCTOR_BANDS[band] * copies)


def test_support_primes_match_eflab():
    from eflab import weil
    from eflab.testfn import bump
    rng = np.random.default_rng(0)
    for _ in range(200):
        mu, sigma, amp = wl.draw_bump(rng)
        assert wl.support_primes(mu, sigma) == weil.prime_places(bump(mu, sigma, amp=amp))


def test_closed_form_spectrum_counts_the_cusp_space():
    for p, n in ((2, 3), (3, 4), (5, 3), (2, 9), (499, 1)):
        assert ops.closed_form_spectrum(p, n).size == p ** n - 1 - n


def test_perturbed_eigenvalue_is_a_failure():
    from eflab.padic import cuspidal_spectrum
    ev = cuspidal_spectrum(3, 3)
    assert ops.check_spectrum(3, 3, ev) is None
    bad = ev.copy()
    bad[7] += 1e-6
    assert "ratio defect" in ops.check_spectrum(3, 3, bad)
    assert ops.check_spectrum(3, 3, ev[1:]) is not None


def test_dropped_or_moved_ordinate_is_a_failure():
    from eflab.zeta import find_zeros
    table = find_zeros(60.0)
    g = table.ordinates
    assert ops.check_zero_table(60.0, g, (0.1, 0.9)) is None
    assert "mpmath counts" in ops.check_zero_table(60.0, np.delete(g, 4), (0.5,))
    moved = g.copy()
    moved[3] += 1e-6
    assert "ordinate 4" in ops.check_zero_table(60.0, moved, (3.5 / g.size,))


def test_failures_are_counted_not_raised():
    work = ops.ConductorSpectra("conductor-spectra", 1)
    work.setup()
    good = ("spectrum", 2, 5)
    records = worker.run_ops(work, [good, ("spectrum", 4, 2), good, ("commutation", 3, 2)])
    assert records[1][3] is not None  # not a prime: the program raised
    ev = records[2][2].copy()
    ev[-1] *= 1.0 + 1e-7
    records[2] = (good, records[2][1], ev, None)
    failed, reasons = worker.check_records(work, records)
    assert failed == 2 and len(reasons) == 2
    metrics = worker.latency_metrics(records, 1.0, failed)
    assert metrics["ok_frac"][0] == 0.5


def test_tracer_wraps_every_binding_site():
    from eflab import contour, special, weil
    from eflab.testfn import bump
    originals = (weil.lambda_factor, special.lambda_factor, contour.VerticalLineIntegrator.integrate)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        weil.w_p_contour(bump(0.7, 0.6), 2)
    finally:
        tracer.uninstall()
    assert (weil.lambda_factor, special.lambda_factor,
            contour.VerticalLineIntegrator.integrate) == originals
    stats = tracing.layer_stats(tracer.spans)
    assert stats["weil.w_p_contour"]["calls"] == 1
    assert stats["contour.integrate"]["blocks"] == stats["testfn.mellin"]["calls"] > 0
    assert stats["special.lambda_factor"]["calls"] > 0
    top = stats["weil.w_p_contour"]
    selfs = sum(st["self_s"] for name, st in stats.items() if name)
    assert math.isclose(selfs, top["total_s"], rel_tol=1e-9)


def test_spec_names_what_the_benchmark_reports():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(wl.WORKLOADS)
    emitted = set(worker.latency_metrics([(None, 0.1, None, None)], 1.0, 0))
    assert {m["name"] for m in spec["end_to_end"]} == emitted | {"setup_s", "peak_rss_mb"}
    layer = tracing.per_layer_metrics({}, dict.fromkeys((n for n, _, _ in tracing.EXTRA_LAYER), 0))
    assert [m["name"] for m in spec["per_layer"]] == list(layer)
    assert all(m["unit"] == layer[m["name"]]["unit"] for m in spec["per_layer"])
