"""Tests of the benchmark itself: goldens, seeded request lists, failure
accounting and tracing.

    PYTHONPATH=src python -m pytest -q perfbench/tests
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
import harness  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from workloads import Request  # noqa: E402


@pytest.fixture(scope="module")
def cli():
    return harness.import_fresh()


@pytest.fixture(scope="module")
def goldens():
    return checks.load_goldens()


def execute(cli, requests, goldens, workdir, tracer=None):
    with harness.working_directory(workdir):
        return harness.execute(cli, requests, goldens, workdir, tracer)


def deep_pair(k, path="u2.txt"):
    return [
        Request("generate", ("generate", "--k", str(k), "--precision", "100", "--out", path),
                k=k, precision=100, out=path),
        Request("compute-pi", ("compute-pi", "--k", str(k), "--u2-file", path,
                               "--precision", "200"), k=k, precision=200, u2_file=path),
    ]


def pi_request(fixture, precision, out="pi.txt"):
    return Request("compute-pi", ("compute-pi", "--fixture", fixture, "--precision",
                                  str(precision), "--out", out),
                   precision=precision, fixture=fixture, out=out)


def small_mix():
    return deep_pair(6) + [
        pi_request("kanada-a", 500),
        Request("compute-pi", ("compute-pi", "--k", "5", "--precision", "500", "--out", "p.txt"),
                k=5, precision=500, out="p.txt"),
        Request("verify", ("verify", "--k", "7", "--precision", "60"), k=7, precision=60),
        Request("measure", ("measure", "--k", "30"), k=30),
    ]


def test_golden_pi_matches_reference_pi(cli, goldens):
    places = len(goldens["pi"]) - 2
    assert places == 2100
    assert str(harness.library_module("series").reference_pi(places)) == goldens["pi"]


def test_golden_pi_matches_machin_compute_pi(cli, goldens, tmp_path):
    [outcome] = execute(cli, [pi_request("machin-1706", 2000)], goldens, tmp_path)
    assert outcome.failure is None
    assert json.loads(outcome.output)["source"] == "machin-1706"


def test_request_lists_are_a_pure_function_of_workload_and_seed():
    def composition(rounds):
        return sorted((r.kind, r.k or 0, r.precision or 0, r.fixture or "")
                      for rnd in rounds for r in rnd)

    for name in workloads.WORKLOADS:
        first = workloads.build_rounds(name, 7, 2)
        assert first == workloads.build_rounds(name, 7, 2)
        assert workloads.digest(first) == workloads.digest(workloads.build_rounds(name, 7, 2))
        other = workloads.build_rounds(name, 8, 2)
        assert workloads.digest(first) != workloads.digest(other)
        # another seed reorders the same stratified mix
        assert composition(first) == composition(other)


def test_deep_pairs_keep_every_k_below_half_of_a_round():
    # relative cost of one generate + compute-pi step, measured at the seed
    cost = {13: 0.1, 14: 0.46, 15: 2.0, 16: 8.6}
    total = sum(cost[k] * n for k, n in workloads.DEEP_PAIRS_MIX)
    assert all(cost[k] * n < total / 2 for k, n in workloads.DEEP_PAIRS_MIX)


def test_clean_requests_pass_every_check(cli, goldens, tmp_path):
    outcomes = execute(cli, small_mix(), goldens, tmp_path)
    assert [o.failure for o in outcomes] == [None] * len(outcomes)
    assert list(tmp_path.iterdir()) == []   # consumed files are removed


def test_wrong_u2_file_counts_as_failure_and_the_run_goes_on(cli, goldens, tmp_path,
                                                             monkeypatch):
    squaring = harness.library_module("squaring")
    original = squaring.write_fraction_file
    monkeypatch.setattr(squaring, "write_fraction_file",
                        lambda path, value: original(path, value + Fraction(1, 10**6)))
    outcomes = execute(cli, small_mix(), goldens, tmp_path)
    assert len(outcomes) == len(small_mix())
    generate, compute_pi, *rest = outcomes
    assert "differs from the golden" in generate.failure
    assert compute_pi.failure is not None
    assert [o.failure for o in rest] == [None] * len(rest)


def test_flipped_digit_counts_as_failure_and_the_run_goes_on(cli, goldens, tmp_path,
                                                             monkeypatch):
    original = cli.digits_prefix

    def flip_once(value, count):
        text = original(value, count)
        if count > 100 and not flipped:
            flipped.append(count)
            text = text[:250] + str((int(text[250]) + 1) % 10) + text[251:]
        return text

    flipped = []
    monkeypatch.setattr(cli, "digits_prefix", flip_once)
    requests = [pi_request("machin-1706", 500), pi_request("kanada-b", 500)]
    outcomes = execute(cli, requests, goldens, tmp_path)
    assert flipped == [501]
    assert "differs from golden pi" in outcomes[0].failure
    assert outcomes[1].failure is None


def test_failures_enter_the_result_line(cli, goldens, tmp_path, monkeypatch):
    monkeypatch.setattr(harness.library_module("formulas"), "lehmer_measure",
                        lambda formula: 1 / 0)
    requests = [Request("measure", ("measure", "--k", "30"), k=30)] + small_mix()[2:4]
    outcomes = execute(cli, requests, goldens, tmp_path)
    assert "ZeroDivisionError" in outcomes[0].failure
    figures = run.end_to_end([outcomes], setup_s=0.01)
    assert figures["failed_frac"] == pytest.approx(1 / 3)


def _bindings():
    return {(name, attr): obj for name, module in sys.modules.items()
            if name == "machinlike" or name.startswith("machinlike.")
            for attr, obj in vars(module).items()}


def test_tracer_wraps_every_binding_and_restores_it(cli):
    before = _bindings()
    tracer = tracing.Tracer()
    with tracer.installed():
        formulas = harness.library_module("formulas")
        squaring = harness.library_module("squaring")
        assert formulas.u2_of is not before[("machinlike.squaring", "u2_of")]
        assert formulas.u2_of is squaring.u2_of
        assert cli.u1_of_k is sys.modules["machinlike.radical"].u1_of_k
        assert sys.modules["machinlike"].u2_of is squaring.u2_of
        # private helpers and the context manager stay as they are
        series = harness.library_module("series")
        assert series._branch_float is before[("machinlike.series", "_branch_float")]
        assert (sys.modules["machinlike.exactmath"].working_context
                is before[("machinlike.exactmath", "working_context")])
        changed = {key for key, obj in _bindings().items() if before[key] is not obj}
        assert ("machinlike.cli", "u1_of_k") in changed
        assert ("machinlike.formulas", "u2_of") in changed
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)


def test_traced_outputs_equal_untraced_outputs(cli, goldens, tmp_path):
    plain = execute(cli, small_mix(), goldens, tmp_path)
    tracer = tracing.Tracer()
    with tracer.installed():
        traced = execute(cli, small_mix(), goldens, tmp_path, tracer)
    assert [o.output for o in traced] == [o.output for o in plain]
    assert [o.failure for o in traced] == [None] * len(traced)


def test_layer_self_times_sum_to_the_traced_request_time(cli, goldens, tmp_path):
    tracer = tracing.Tracer()
    with tracer.installed():
        # two batches, as a run makes them: request ids go on counting
        outcomes = (execute(cli, small_mix()[:3], goldens, tmp_path, tracer)
                    + execute(cli, small_mix()[3:], goldens, tmp_path, tracer))
    spans = tracer.spans
    requests = [s for s in spans if s[1] == tracing.REQUEST_SPAN]
    assert [s[5] for s in requests] == list(range(len(outcomes)))
    assert all(s[4] is None for s in requests)
    request_time = sum(s[3] - s[2] for s in requests)
    wall = sum(o.seconds for o in outcomes)
    metrics = tracing.per_layer_metrics(spans, len(outcomes), 1, wall, (0, 0))
    layers = sum(metrics[f"{layer}.self_s"] for layer in tracing.ALL_LAYERS)
    assert math.isclose(layers, request_time, rel_tol=1e-9)
    assert request_time <= wall
    assert all(metrics[f"{layer}.self_s"] > 0 for layer in tracing.ALL_LAYERS)
    shares = {name[:-2] + "_share" for name in run.ZERO_PRONE_TIMES}
    assert set(run.ZERO_PRONE_TIMES) <= set(metrics)
    assert set(run.PER_LAYER_UNITS) - {"trace.overhead_s"} - shares <= set(metrics)
    assert metrics["trigcheck.dec_arctan.per_u2_trig"] >= 1
    assert metrics["squaring.fraction_io.bytes"] > 0


def test_tail_is_the_highest_percentile_with_ten_beyond():
    assert run.tail([float(i) for i in range(1, 51)]) == (40.0, 80.0)
    assert run.tail([1.0, 3.0, 2.0]) == (3.0, 100.0)


def test_typical_round_times_each_request_at_its_type_median():
    a, b = deep_pair(13)
    first = [harness.Outcome(a, 1.0, "", None), harness.Outcome(b, 9.0, "", None)]
    second = [harness.Outcome(a, 3.0, "", None), harness.Outcome(b, 1.0, "", None)]
    third = [harness.Outcome(a, 2.0, "", None)]
    typical = run.typical_round([first, second, third])
    assert [(o.request, o.seconds) for o in typical] == [(a, 2.0), (b, 5.0)]


def test_a_pass_stops_part_way_only_after_a_whole_round(tmp_path, monkeypatch):
    def fake_execute(cli, requests, goldens, workdir, tracer=None):
        return [harness.Outcome(r, 1.0, "", None) for r in requests]

    monkeypatch.setattr(harness, "execute", fake_execute)
    monkeypatch.setattr(run, "WORK_DIR", tmp_path)
    rounds = workloads.build_rounds("deep-pairs", 1, 3)
    done = run.run_rounds(None, rounds, {}, seconds=3.0)
    assert [len(r) for r in done] == [len(rounds[0])]
    done = run.run_rounds(None, rounds, {}, seconds=len(rounds[0]) + 5.0)
    assert [len(r) for r in done] == [len(rounds[0]), 5]


def test_run_fails_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "pi-digits", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60, check=False)
    assert proc.returncode != 0
    assert proc.stdout == ""
