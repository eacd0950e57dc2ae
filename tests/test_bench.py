"""Benchmark harness: structure and report format (tiny sizes only)."""

import pytest

from mfg_errsim.bench import BenchReport, bench_suite, write_report


def test_bench_suite_reports_all_cases(tmp_path):
    reports = bench_suite(sizes=[(5, 50)], reps=5)
    cases = [r.case for r in reports]
    assert cases == ["riccati_bundle", "deviation_maps", "population_sim",
                     "realtime_sim"]
    for r in reports:
        assert r.N == 5 and r.steps == 50
        assert r.median_s > 0.0
        assert r.p95_s >= r.median_s
    for sim in reports[2:]:
        assert sim.throughput == pytest.approx(5 * 50 / sim.median_s)

    path = tmp_path / "bench.csv"
    write_report(reports, str(path))
    lines = path.read_text().splitlines()
    assert lines[0] == "case,N,steps,median_s,p95_s,throughput"
    assert len(lines) == 5


def test_bench_requires_enough_repetitions():
    with pytest.raises(ValueError, match="repetitions"):
        bench_suite(sizes=[(2, 10)], reps=3)


def test_report_row_mirrors_fields():
    r = BenchReport("population_sim", 10, 100, 0.5, 0.6, 2000.0)
    assert r.row() == ["population_sim", 10, 100, 0.5, 0.6, 2000.0]
