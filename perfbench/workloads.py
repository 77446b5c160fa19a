"""Seeded request lists for the three benchmark workloads.

A run is a sequence of rounds.  Every round of a workload holds the same
stratified mix of requests; the seed only shuffles the order inside each
round.  Two seeds therefore do the same work in a different order, which
is what keeps the end-to-end figures comparable from seed to seed while
still exercising cache warm-up in seed-dependent ways.

A request is the argv of one ``machinlike`` command.  File arguments are
relative names, resolved against the run's scratch directory, so the
request list is a pure function of (workload, seed, round).
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass

FIXTURES = ("machin-1706", "kanada-a", "kanada-b", "lehmer-3term", "chienlih-6term")

# deep-pairs: (k, steps per round).  One k=16 step costs about as much as
# three k=15 or twenty k=14 steps, so these weights keep every k below
# half of the round's time.
DEEP_PAIRS_MIX = ((13, 20), (14, 10), (15, 3), (16, 1))
DEEP_PAIRS_PRECISION = (100, 200)   # generate, compute-pi

PI_DIGITS_PRECISIONS = (500, 1000, 2000)
PI_DIGITS_KS = tuple(range(4, 13))

# verify-sweep: k -> copies per round at each precision.  k = 8..10 sit
# on the exact-path cliff of arctan_auto; k = 9 and 10 get fewer copies
# so that k = 10 stays below half of the round's time.
VERIFY_PRECISIONS = (60, 100)
VERIFY_COPIES = {k: 4 for k in (2, 3, 4, 5, 6, 7, 8, 11, 12)}
VERIFY_COPIES.update({9: 3, 10: 1})
MEASURE_KS = tuple(range(21, 65))
MEASURE_COPIES = 2

WORKLOADS = ("deep-pairs", "pi-digits", "verify-sweep")


@dataclass(frozen=True)
class Request:
    """One CLI command plus what the checker needs to know about it."""

    kind: str             # generate | compute-pi | verify | measure
    argv: tuple[str, ...]
    k: int | None = None
    precision: int | None = None
    fixture: str | None = None
    out: str | None = None
    u2_file: str | None = None


def _deep_pairs(rng: random.Random, rnd: int) -> list[Request]:
    ks = [k for k, copies in DEEP_PAIRS_MIX for _ in range(copies)]
    rng.shuffle(ks)
    gen_p, pi_p = DEEP_PAIRS_PRECISION
    requests = []
    for step, k in enumerate(ks):
        path = f"u2-r{rnd}-s{step}-k{k}.txt"
        requests.append(Request(
            "generate",
            ("generate", "--k", str(k), "--precision", str(gen_p), "--out", path),
            k=k, precision=gen_p, out=path))
        requests.append(Request(
            "compute-pi",
            ("compute-pi", "--k", str(k), "--u2-file", path, "--precision", str(pi_p)),
            k=k, precision=pi_p, u2_file=path))
    return requests


def _pi_digits(rng: random.Random, rnd: int) -> list[Request]:
    sources = [(p, "fixture", f) for p in PI_DIGITS_PRECISIONS for f in FIXTURES]
    sources += [(p, "k", k) for p in PI_DIGITS_PRECISIONS for k in PI_DIGITS_KS]
    rng.shuffle(sources)
    requests = []
    for step, (p, how, what) in enumerate(sources):
        out = f"pi-r{rnd}-s{step}.txt"
        tail = ("--precision", str(p), "--out", out)
        if how == "fixture":
            requests.append(Request("compute-pi", ("compute-pi", "--fixture", what) + tail,
                                    precision=p, fixture=what, out=out))
        else:
            requests.append(Request("compute-pi", ("compute-pi", "--k", str(what)) + tail,
                                    k=what, precision=p, out=out))
    return requests


def _verify_sweep(rng: random.Random, rnd: int) -> list[Request]:
    requests = [
        Request("verify", ("verify", "--k", str(k), "--precision", str(p)), k=k, precision=p)
        for k, copies in VERIFY_COPIES.items()
        for p in VERIFY_PRECISIONS
        for _ in range(copies)
    ]
    requests += [
        Request("measure", ("measure", "--k", str(k)), k=k)
        for k in MEASURE_KS
        for _ in range(MEASURE_COPIES)
    ]
    rng.shuffle(requests)
    return requests


_BUILDERS = {
    "deep-pairs": _deep_pairs,
    "pi-digits": _pi_digits,
    "verify-sweep": _verify_sweep,
}


def build_rounds(workload: str, seed: int, rounds: int) -> list[list[Request]]:
    """The first ``rounds`` rounds of a workload, a pure function of its
    arguments: each round draws from its own generator seeded by
    (workload, seed, round)."""
    if workload not in _BUILDERS:
        raise ValueError(f"unknown workload {workload!r}; known: {', '.join(WORKLOADS)}")
    out = []
    for rnd in range(rounds):
        rng = random.Random(f"{workload}/{seed}/{rnd}")
        out.append(_BUILDERS[workload](rng, rnd))
    return out


def digest(rounds: list[list[Request]]) -> str:
    """Short SHA-256 over every argv, in order."""
    text = json.dumps([[list(r.argv) for r in rnd] for rnd in rounds])
    return hashlib.sha256(text.encode("ascii")).hexdigest()[:16]
