"""Tests of the benchmark itself:  python3 -m pytest perfbench -q"""

from __future__ import annotations

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import pytest  # noqa: E402

from crossedideals import FIXTURES, GF, crossed_product, enumerate_ideals  # noqa: E402
from crossedideals import cli  # noqa: E402
from crossedideals.exactlin import ideal_generate  # noqa: E402
from crossedideals.formats import parse_generator, parse_system  # noqa: E402

import gen  # noqa: E402
import run  # noqa: E402
import tracer as tracing  # noqa: E402


SMALL_SYSTEMS = [
    (f"rot{n}on{d}", gen.rotation_system(n, d)) for n, d in ((1, 1), (2, 1), (3, 1), (4, 1), (5, 1), (2, 2))
] + [("brandt2", gen.brandt_system(2, (1, 0)))] + [(name, make()) for name, make in sorted(FIXTURES.items())]


@pytest.mark.parametrize("p", (2, 3))
@pytest.mark.parametrize("name,system", SMALL_SYSTEMS, ids=[n for n, _ in SMALL_SYSTEMS])
def test_closed_form_ideal_count_matches_brute_force(name, system, p):
    cp = crossed_product(system, GF(p))
    assert gen.oracle_ideal_count(system, p) == len(enumerate_ideals(cp.algebra))
    assert gen.germ_count(system) == cp.dim


@pytest.mark.parametrize("p,m,count", [(2, 1, 2), (2, 2, 3), (2, 3, 4), (2, 4, 5), (2, 5, 4),
                                       (2, 6, 9), (3, 3, 4), (3, 4, 8), (3, 6, 16), (5, 4, 16)])
def test_cyclic_ideal_counts(p, m, count):
    assert gen.cyclic_ideal_count(p, m) == count


@pytest.mark.parametrize("workload", gen.WORKLOADS)
@pytest.mark.parametrize("seed", (0, 1, 7))
def test_generated_systems_validate(workload, seed):
    jobs = gen.workload_jobs(workload, seed)
    assert len({j.key for j in jobs}) == len(jobs)
    for job in jobs:
        system, _ = parse_system(job.text)
        assert system.validate().ok, job.key
        if job.verb == "isocheck":
            assert gen.germ_count(system) == job.germs


def test_decompose_generators_give_proper_ideals():
    for job in gen.workload_jobs("decompose-f3", 3):
        system, field = parse_system(job.text)
        cp = crossed_product(system, field)
        if cp.dim > 12:
            continue
        ideal = ideal_generate(cp.algebra, [parse_generator(cp, g) for g in job.generators])
        assert 0 < ideal.dim < cp.dim, job.key


def test_round_order_is_seeded_and_covers_every_rung():
    jobs = gen.workload_jobs("decompose-f3", 5)
    first = gen.round_order(jobs, 5, 0)
    assert [j.key for j in first] == [j.key for j in gen.round_order(jobs, 5, 0)]
    assert len(first) == len(gen.DECOMPOSE_F3)
    assert {j.key.split("/")[1] for j in first} == {f"rot{n}on{d}" for n, d in gen.DECOMPOSE_F3}


def _span(id, parent, start, end, folded=0.0):
    return tracing.Span(0, id, parent, f"m.s{id}", start, end, folded)


def test_self_time_on_a_synthetic_span_tree():
    spans = [
        _span(0, None, 0.0, 10.0),
        _span(1, 0, 1.0, 4.0, folded=0.5),
        _span(2, 1, 2.0, 3.0),
        _span(3, 0, 5.0, 9.0, folded=1.0),
        tracing.Span(1, 0, None, "m.other-job", 0.0, 2.0),
    ]
    selfs = tracing.self_times(spans)
    assert selfs[(0, 0)] == pytest.approx(10.0 - 3.0 - 4.0)
    assert selfs[(0, 1)] == pytest.approx(3.0 - 1.0 - 0.5)
    assert selfs[(0, 2)] == pytest.approx(1.0)
    assert selfs[(0, 3)] == pytest.approx(4.0 - 1.0)
    assert selfs[(1, 0)] == pytest.approx(2.0)
    assert sum(selfs[(0, i)] for i in range(4)) + 0.5 + 1.0 == pytest.approx(10.0)


def test_self_time_counts_overlapping_children_once():
    spans = [_span(0, None, 0.0, 10.0), _span(1, 0, 1.0, 4.0), _span(2, 0, 3.0, 6.0)]
    assert tracing.self_times(spans)[(0, 0)] == pytest.approx(5.0)


def test_tracer_records_spans_and_restores_the_library(tmp_path, monkeypatch):
    from crossedideals import exactlin, bundles
    monkeypatch.setattr(tracing, "TRACED", tracing.TRACED + (("exactlin", "no_such_name", "span", None),))
    originals = (exactlin.rref, bundles.rref, exactlin.FiniteAlgebra.mul)
    path = tmp_path / "fix.system"
    path.write_text(gen.workload_jobs("oracle-small", 0)[0].text, encoding="utf-8")
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert bundles.rref is exactlin.rref is not originals[0]
        assert tracer.run_job(0, cli.main, ["oracle", str(path)]) == 0
    finally:
        tracer.uninstall()
    assert (exactlin.rref, bundles.rref, exactlin.FiniteAlgebra.mul) == originals
    assert tracer.absent == ["exactlin.no_such_name"]
    names = {s.name for s in tracer.spans}
    assert {"cli.main", "exactlin.enumerate_ideals", "bundles.CrossedProduct.__init__"} <= names
    summary = tracing.summarize(tracer)
    assert summary.yields["exactlin.enumerate_subspaces"] >= summary.values["exactlin.enumerate_ideals"] > 0
    root = next(s for s in tracer.spans if s.name == "cli.main")
    assert sum(summary.layer_self.values()) == pytest.approx(root.end - root.start)


def test_check_flags_a_wrong_ideal_count():
    job = gen.Job("k", "oracle", "", ideals=3)
    good = b'{"ideal_count": 3, "ideals": [{"exact": true}, {"exact": true}, {"exact": true}]}'
    assert run.check(job, 0, good) is None
    assert run.check(job, 0, good.replace(b'"ideal_count": 3', b'"ideal_count": 4')) is not None
    assert run.check(job, 1, good) is not None


def test_timing_uses_complete_rounds_only():
    results = run.Results(rungs=2)
    for r, key, elapsed in ((0, "v0/a", 3.0), (0, "v0/b", 5.0), (1, "v1/b", 4.0),
                            (1, "v1/a", 2.0), (2, "v2/a", 9.0)):
        results.record(gen.Job(key, "oracle", ""), r, elapsed, None)
        if key.endswith("b") or r == 2:
            results.round_seconds.append(elapsed + 1.0)
    assert results.attempted == 5
    assert results.complete_rounds() == 2
    assert sorted(results.timed()) == [("a", 2.0), ("a", 3.0), ("b", 4.0), ("b", 5.0)]
    metrics = run.end_to_end(results, [0.3, 0.1, 0.2])
    assert metrics["setup_s"][0] == 0.2
    assert metrics["job_p50_s"][0] == 3.5          # rung medians 2.5 and 4.5
    assert metrics["job_tail_s"][0] == 4.5
    assert "p75.0 of 4 jobs" in metrics["job_tail_s"][2]
    assert metrics["jobs_per_s"][0] == 4 / (6.0 + 5.0)
