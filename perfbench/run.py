"""The machinlike benchmark: one workload, one seed, one process.

    python3 perfbench/run.py --workload deep-pairs --seed 1 --seconds 15 --trace 0

Runs the workload's seeded rounds of requests (see workloads.py) until
``--seconds`` of request time have been measured, and at least the whole
first round, one request at a time through ``cli.main(argv)``, checking
every reply against the goldens.  The figures are those of the typical
round: the first round's requests, each timed at the median latency of
its request type over the whole run.  The last line of stdout is one
JSON object:
``{"correct", "attempted", "failed", "metrics"}`` with the end-to-end
metrics (``--trace 0``) or the per-layer metrics (``--trace 1``).

With ``--trace 1`` the untraced pass is followed by the first round once
more, after a fresh import with every library function wrapped
(tracing.py).  The per-layer metrics come from that traced round, the
tracing overhead is the difference of the two passes' ``wall_s``, and
the spans are written
to ``.bench_out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import dataclasses
import gc
import json
import os
import resource
import shutil
import statistics
import sys
import time
from collections import defaultdict

import checks
import harness
import tracing
import workloads

# Set-up takes a few tens of milliseconds, while the speed of a shared host
# drifts over seconds.  So set-up is sampled SETUP_REPEATS times before the
# first request and once more after every SETUP_STRIDE requests of the
# untraced pass, outside the timed region, and setup_s is the median of
# all samples: a figure for the whole run rather than for one instant.
SETUP_REPEATS = 5
SETUP_STRIDE = 6
MAX_ROUNDS = 8
# a pass stops, once its first round is whole, when this much time has
# gone, so that even a traced run (two passes) ends within three minutes
PASS_LIMIT_S = 75.0
TAIL_BEYOND = 10
WORK_DIR = harness.ROOT / ".bench_work"
OUT_DIR = harness.ROOT / ".bench_out"

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "req_p50_s": "s",
    "req_tail_s": "s",
    "req_per_s": "1/s",
    "digits_per_s": "digits/s",
    "failed_frac": "ratio",
    "peak_rss_mb": "MB",
}
# failed_frac reads 0 on a correct program, so it is printed but not part
# of the result line; the line's "failed" and "attempted" carry it.
RESULT_END_TO_END = tuple(n for n in END_TO_END_UNITS if n != "failed_frac")

PER_LAYER_UNITS = {
    "radical.self_s": "s",
    "radical.u1_of_k.calls_per_req": "count",
    "radical.ladder_eval.per_u1": "count",
    "squaring.self_s": "s",
    "squaring.shared_parts.self_s": "s",
    "squaring.chain_calls_per_req": "count",
    "squaring.fraction_io.bytes": "bytes",
    "squaring.u2_digits": "digits",
    "formulas.self_s": "s",
    "formulas.two_term_formula.self_s": "s",
    "series.self_s": "s",
    "series.arctan_fast.self_s": "s",
    "series.arctan_fast.terms": "count",
    "series.reference_pi.self_s": "s",
    "series.reference_pi.hit_ratio": "ratio",
    "series.arctan_auto.exact_frac": "ratio",
    "trigcheck.dec_arctan.per_u2_trig": "count",
    "exactmath.self_s": "s",
    "exactmath.fraction_to_decimal.self_s": "s",
    "exactmath.rational_log10_abs.self_s": "s",
    "exactmath.coinciding_digits.self_s": "s",
    "cli.self_s": "s",
    "trace.overhead_s": "s",
    "trace.spans_per_req": "count",
}
PER_LAYER_UNITS.update({f"{layer}.share": "ratio" for layer in tracing.ALL_LAYERS})
# Function times that read exactly 0 on a workload where the function never
# runs.  They are printed in seconds; the result line carries each as its
# share of the traced wall time, "<name>_share" for "<name>_s".
ZERO_PRONE_TIMES = (
    "squaring.u2_of.self_s", "squaring.fraction_io.self_s", "squaring.fraction_io.incl_s",
    "squaring.u2_direct_oracle.self_s", "squaring.u2_direct_oracle.incl_s",
    "formulas.validate_formula.self_s", "formulas.lehmer_measure.self_s",
    "series.pi_two_term.self_s", "series.arctan_auto.self_s", "series.arctan_auto.exact_s",
    "trigcheck.verify_k.self_s", "trigcheck.u2_trig.self_s",
    "trigcheck.dec_sin_cos.self_s", "exactmath.int_digit_count.self_s",
)
PER_LAYER_UNITS.update({name[:-2] + "_share": "ratio" for name in ZERO_PRONE_TIMES})


def setup_once(workload: str, seed: int):
    """Import, request-list generation and golden loading.  Returns (cli,
    rounds, goldens, seconds taken)."""
    start = time.perf_counter()
    cli = harness.import_fresh()
    rounds = workloads.build_rounds(workload, seed, MAX_ROUNDS)
    goldens = checks.load_goldens()
    return cli, rounds, goldens, time.perf_counter() - start


def run_rounds(cli, rounds, goldens, seconds: float, tracer=None, between=None):
    """Requests in round order until ``seconds`` of request time are
    measured, but at least the whole first round.  Returns the outcomes
    round by round; the last round may stop part-way.

    ``between`` is called after every SETUP_STRIDE requests of a round.  A
    set-up sample there swaps new modules into ``sys.modules`` but leaves
    the ``cli`` in use, and the modules it imported, untouched.
    """
    done, measured, started = [], 0.0, time.perf_counter()

    def enough():
        return done and (measured >= seconds
                         or time.perf_counter() - started > PASS_LIMIT_S)

    workdir = WORK_DIR / f"run-{os.getpid()}"
    try:
        with harness.working_directory(workdir):
            for requests in rounds:
                outcomes = []
                for index, request in enumerate(requests, 1):
                    if enough():
                        break
                    outcomes += harness.execute(cli, [request], goldens, workdir, tracer)
                    measured += outcomes[-1].seconds
                    if between is not None and index % SETUP_STRIDE == 0:
                        between()
                if outcomes:
                    done.append(outcomes)
                if enough():
                    break
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return done


def tail(latencies: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest nearest-rank percentile that
    leaves at least TAIL_BEYOND requests above it; the maximum when the
    round has no more requests than that."""
    ordered = sorted(latencies)
    n = len(ordered)
    rank = n - TAIL_BEYOND if n > TAIL_BEYOND else n
    return ordered[rank - 1], 100.0 * rank / n


def round_figures(outcomes) -> dict[str, float]:
    """End-to-end figures of one round.

    ``wall_s`` is the time the program spent on the round's requests back
    to back; checking between requests is excluded.  ``digits_per_s``
    counts the checked compute-pi requests or, on a workload without
    compute-pi, the checked verify requests, whose identity check
    evaluates pi to ``--precision`` digits.
    """
    latencies = [o.seconds for o in outcomes]
    wall = sum(latencies)
    kind = ("compute-pi" if any(o.request.kind == "compute-pi" for o in outcomes)
            else "verify")
    digit_reqs = [o for o in outcomes if o.failure is None and o.request.kind == kind]
    digit_time = sum(o.seconds for o in digit_reqs)
    digits = sum(o.request.precision for o in digit_reqs)
    return {
        "wall_s": wall,
        "req_p50_s": statistics.median(latencies),
        "req_tail_s": tail(latencies)[0],
        "req_per_s": len(latencies) / wall,
        "digits_per_s": digits / digit_time if digit_time else 0.0,
    }


def request_type(request) -> tuple:
    """What makes two requests the same work: their argv less file names."""
    return (request.kind, request.k, request.precision, request.fixture)


def typical_round(done) -> list:
    """The first round's outcomes, each timed at the median latency of its
    request type over every round run.

    Every round holds the same mix, so this is one round as the program
    runs it when the host is at its usual speed: a request that a slow
    spell of the shared host stretched moves its type's median only when
    it is among the slower half of that type's samples.
    """
    latencies = defaultdict(list)
    for outcomes in done:
        for o in outcomes:
            latencies[request_type(o.request)].append(o.seconds)
    return [dataclasses.replace(o, seconds=statistics.median(latencies[request_type(o.request)]))
            for o in done[0]]


def failures_of(done) -> tuple[int, list]:
    """(requests attempted, outcomes that failed) over a pass's rounds."""
    attempted = sum(len(outcomes) for outcomes in done)
    return attempted, [o for outcomes in done for o in outcomes if o.failure is not None]


def end_to_end(done, setup_s: float) -> dict[str, float]:
    """The figures of the typical round, plus set-up time, failed fraction
    and peak memory of the process so far."""
    figures = round_figures(typical_round(done))
    attempted, failures = failures_of(done)
    figures["setup_s"] = setup_s
    figures["failed_frac"] = len(failures) / attempted
    figures["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return figures


def traced_pass(rounds, goldens, args, untraced_wall: float):
    """Rerun the first round after a fresh import, with every library
    function wrapped; write the spans out and return (attempted, failures,
    per-layer metrics)."""
    cli = harness.import_fresh()
    cache = harness.library_module("series")._pi_scaled
    before = cache.cache_info()
    tracer = tracing.Tracer()
    with tracer.installed():
        # collect garbage where the untraced pass does, after its set-up samples
        done = run_rounds(cli, rounds[:1], goldens, float("inf"), tracer,
                          between=gc.collect)
    after = cache.cache_info()
    OUT_DIR.mkdir(exist_ok=True)
    span_file = OUT_DIR / f"spans-{args.workload}-seed{args.seed}.jsonl"
    tracer.write(span_file)

    attempted, failures = failures_of(done)
    traced_wall = sum(o.seconds for outcomes in done for o in outcomes)
    layer = tracing.per_layer_metrics(
        tracer.spans, attempted, len(done), traced_wall,
        (after.hits - before.hits, after.misses - before.misses))
    wall = round_figures(typical_round(done))["wall_s"]
    layer["trace.overhead_s"] = wall - untraced_wall
    for name in ZERO_PRONE_TIMES:
        layer[name[:-2] + "_share"] = layer[name] * len(done) / traced_wall
    print(f"traced pass: {len(tracer.spans)} spans written to {span_file}; "
          f"traced wall_s {wall:.6g} s, untraced {untraced_wall:.6g} s")
    print("per-layer (all): " + json.dumps(layer, sort_keys=True))
    return attempted, failures, layer


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    setup_times = []
    try:
        for _ in range(SETUP_REPEATS):
            cli, rounds, goldens, seconds = setup_once(args.workload, args.seed)
            setup_times.append(seconds)
    except (harness.MissingProgram, OSError) as exc:
        print(f"perfbench: cannot set up: {exc}", file=sys.stderr)
        return 2
    # Each set-up sample leaves the modules it replaced behind as cyclic
    # garbage; free them at once, so that neither a timed request nor
    # peak_rss_mb pays for them.
    gc.collect()

    def sample_setup():
        setup_times.append(setup_once(args.workload, args.seed)[3])
        gc.collect()

    done = run_rounds(cli, rounds, goldens, args.seconds, between=sample_setup)
    attempted, failures = failures_of(done)
    figures = end_to_end(done, statistics.median(setup_times))
    per_round = len(done[0])
    value, pct = tail([o.seconds for o in done[0]])
    print(f"workload {args.workload} seed {args.seed}: {len(done)} round(s) of "
          f"{per_round} requests, request list digest {workloads.digest(rounds)}, "
          f"{len(setup_times)} set-up samples")
    print(f"req_tail_s is the p{pct:.1f} latency of {per_round} requests per round "
          f"(round 1: {value:.6f} s), read from the typical round")
    for name, unit in END_TO_END_UNITS.items():
        print(f"  {name} = {figures[name]:.6g} {unit}")

    if args.trace:
        t_attempted, t_failures, layer = traced_pass(rounds, goldens, args,
                                                     figures["wall_s"])
        attempted += t_attempted
        failures += t_failures
        result = {name: {"value": layer[name], "unit": unit}
                  for name, unit in PER_LAYER_UNITS.items()}
    else:
        result = {name: {"value": figures[name], "unit": END_TO_END_UNITS[name]}
                  for name in RESULT_END_TO_END}
    for o in failures[:20]:
        print(f"FAILED {' '.join(o.request.argv)}: {o.failure}")
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": len(failures), "metrics": result}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
