"""The corpus runner's worker processes: the report does not depend on how
many run, none is left behind, and none is forked where it is not safe."""

import multiprocessing
import sys
import threading

import numpy as np
import pytest

from geninv import decomposition, verify
from geninv.corpus import random_pairs
from geninv.errors import NumericError
from geninv.matrix import frobenius
from geninv.verify import run_all, run_random_corpus

linux_only = pytest.mark.skipif(not sys.platform.startswith("linux"),
                                reason="corpus workers are forked on Linux only")


def on_cpus(monkeypatch, count):
    """Lets this process run on `count` CPUs, as `taskset` would."""
    monkeypatch.setattr(verify.os, "sched_getaffinity", lambda pid: set(range(count)),
                        raising=False)


@pytest.fixture
def pools(monkeypatch):
    """Counts the worker pools built."""
    built = []
    real = verify.ProcessPoolExecutor

    def counted(*args, **kwargs):
        built.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(verify, "ProcessPoolExecutor", counted)
    return built


def on_both(monkeypatch, run):
    """run() on one CPU, in-process, and on two, in two workers."""
    on_cpus(monkeypatch, 1)
    serial = run()
    on_cpus(monkeypatch, 2)
    return serial, run()


class Recorded(Exception):
    """Raised by a stand-in executor in place of starting any process."""


@pytest.fixture
def recorder(monkeypatch):
    """Records the max_workers of each pool the runner asks for and starts
    nothing."""
    asked = []

    def record(max_workers, **kwargs):
        asked.append(max_workers)
        raise Recorded

    monkeypatch.setattr(verify, "ProcessPoolExecutor", record)
    return asked


def fold(values, gaps):
    """Every (measurements, where) of `values` through one aggregator."""
    e = verify._Extreme(gaps)
    for v, where in values:
        e.update(v, where)
    return e


@pytest.mark.parametrize("gaps", [False, True])
def test_merge_equals_the_serial_fold(gaps):
    # ties, infinities and NaN included: merging the folds of consecutive
    # runs gives the values and `where` of one fold over all of them
    rng = np.random.default_rng(5)
    pool = [0.0, 1.0, 1.0, 2.0, -1.0, float("inf"), float("nan")]
    for trial in range(300):
        values = [({k: pool[rng.integers(len(pool))] for k in rng.choice(["a", "b", "c"], 2)},
                   f"update {i}") for i in range(rng.integers(1, 12))]
        cuts = sorted(rng.integers(0, len(values) + 1, rng.integers(0, 4)))
        merged = verify._Extreme(gaps)
        for lo, hi in zip([0, *cuts], [*cuts, len(values)]):
            merged.merge(fold(values[lo:hi], gaps))
        serial = fold(values, gaps)
        assert (str(merged.values), merged.where) == (str(serial.values), serial.where), trial


def test_a_nan_measurement_is_kept():
    e = fold([({"x": 1.0}, "first"), ({"x": float("nan")}, "second"), ({"x": 5.0}, "third")],
             gaps=False)
    assert np.isnan(e.values["x"]) and e.where == "second"


@linux_only
def test_the_corpus_report_does_not_depend_on_the_worker_count(pools, monkeypatch):
    serial, parallel = on_both(monkeypatch, lambda: run_random_corpus(7, 40, 7).to_json())
    assert parallel == serial
    assert pools == [(2,)]


@linux_only
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_run_all_does_not_depend_on_the_worker_count(pools, monkeypatch, seed):
    serial, parallel = on_both(monkeypatch, lambda: run_all(seed, 100, 8).to_json())
    assert parallel == serial
    assert pools == [(2,)]


@linux_only
@pytest.mark.parametrize("cpus", [1, 2])
def test_workers_see_a_fault_in_the_canonical_blocks(pools, monkeypatch, cpus):
    # as tests/test_verify.py's z-identity test: the workers are forked
    # after the fault is patched in, so they run it too
    k_pinv = decomposition._k_pinv
    rng = np.random.default_rng(0)

    def perturbed(core, coupling, gap, rows):
        e = rng.standard_normal(gap.shape) + 1j * rng.standard_normal(gap.shape)
        e = e + e.conj().T
        if frobenius(e):
            gap = gap + 1e-6 * frobenius(gap) / frobenius(e) * e
        return k_pinv(core, coupling, gap, rows)

    monkeypatch.setattr(decomposition, "_k_pinv", perturbed)
    on_cpus(monkeypatch, cpus)
    [check] = [r for r in run_random_corpus(seed=1, count=30).results
               if r.check_id == "corpus.decomposition.z-identity"]
    assert check.residuals["z"] >= 1e-8
    assert len(pools) == cpus - 1


@linux_only
def test_a_library_error_in_a_worker_is_reported_as_in_process(pools, monkeypatch):
    weighted_drazin = verify.weighted_drazin
    marked = random_pairs(7, 40, 7)[17].a

    def failing(p):
        if p.a.shape == marked.shape and np.array_equal(p.a, marked):
            raise NumericError("planted failure")
        return weighted_drazin(p)

    monkeypatch.setattr(verify, "weighted_drazin", failing)
    reports = on_both(monkeypatch, lambda: run_random_corpus(7, 40, 7))
    assert pools == [(2,)]
    assert reports[0].to_json() == reports[1].to_json()
    [check] = [r for r in reports[1].results if r.check_id == "corpus.pair-validity"]
    assert not check.passed
    assert check.residuals["library_error"] == float("inf")
    assert "worst at member 17 (" in check.detail and check.detail.endswith(": planted failure")


@linux_only
def test_no_worker_outlives_the_run(pools, monkeypatch):
    on_cpus(monkeypatch, 2)
    run_all(1, 16, 6)
    assert pools and multiprocessing.active_children() == []

    def broken(*args):
        raise RuntimeError("not a library error")

    monkeypatch.setattr(verify, "weighted_drazin", broken)
    with pytest.raises(RuntimeError, match="not a library error"):
        run_all(1, 16, 6)
    assert len(pools) == 2 and multiprocessing.active_children() == []


def test_no_pool_while_a_second_thread_is_alive(monkeypatch, recorder):
    on_cpus(monkeypatch, 2)
    release = threading.Event()
    other = threading.Thread(target=release.wait)
    other.start()
    try:
        report = run_random_corpus(7, 16, 6)
    finally:
        release.set()
        other.join(timeout=60)
    assert not other.is_alive()
    assert report.passed and recorder == []


@linux_only
@pytest.mark.parametrize("cpus, workers", [
    (64, 12),   # one worker per 8 of the 100 members
    (4, 4),     # no more workers than usable CPUs
])
def test_the_worker_count_is_capped(monkeypatch, recorder, cpus, workers):
    on_cpus(monkeypatch, cpus)
    with pytest.raises(Recorded):
        run_random_corpus(1, 100, 8)
    assert recorder == [workers]


@linux_only
@pytest.mark.parametrize("count", [10, 15])
def test_small_corpora_run_in_process(monkeypatch, recorder, count):
    # fewer than 8 members for each of two workers: no pool
    on_cpus(monkeypatch, 64)
    run_random_corpus(11, count, 6)
    assert recorder == []
