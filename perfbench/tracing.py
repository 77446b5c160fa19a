"""Spans around every public function of the library modules.

The tracer replaces each public function of the six library modules with
a timing wrapper, at every name that binds it: the defining module, each
``from .x import`` copy in another module (``formulas.u2_of`` and
``cli.u1_of_k`` are two of them) and the package ``__init__``.
``restore`` puts every original back.

Not wrapped, so their time lands in their public caller's self time:
private helpers (``_branch_float``, ``_term_rate``, ``_auto_terms``,
``_pi_scaled`` and the rest), and the generator and context-manager
functions (``arctan_coeff_states``, ``two_term_series_states``,
``working_context``), whose call returns before their work is done.

A span is (id, name, start, end, parent id, request id, info); spans stay
in memory until the run ends.  ``info`` carries a work count for a few
functions: the ``terms`` argument of ``arctan_fast``, the file size for
fraction-file I/O and the decimal digits of each ``u2_of`` result.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import json
import math
import os
import sys
import time
from collections import defaultdict

PACKAGE = "machinlike"
LAYERS = ("radical", "squaring", "formulas", "series", "trigcheck", "exactmath")
ALL_LAYERS = LAYERS + ("cli",)
REQUEST_SPAN = "cli.main"

_LOG10_2 = math.log10(2)


def _digits(n: int) -> int:
    """Decimal digits of |n| estimated from its bit length (work count)."""
    return int(abs(n).bit_length() * _LOG10_2) + 1


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


_INFO = {
    "series.arctan_fast": lambda a, kw, r: _arg(a, kw, 1, "terms"),
    "squaring.write_fraction_file": lambda a, kw, r: os.path.getsize(_arg(a, kw, 0, "path")),
    "squaring.read_fraction_file": lambda a, kw, r: os.path.getsize(_arg(a, kw, 0, "path")),
    "squaring.u2_of": lambda a, kw, r: _digits(r.numerator) + _digits(r.denominator),
}


def _is_traceable(module, name, obj) -> bool:
    if name.startswith("_") or not inspect.isfunction(obj):
        return False
    if obj.__module__ != module.__name__:
        return False
    return not inspect.isgeneratorfunction(getattr(obj, "__wrapped__", obj))


class Tracer:
    def __init__(self):
        self.spans = []
        self.request = None     # id of the request in flight
        self._requests = 0
        self._stack = []
        self._patches = []

    def start_request(self) -> None:
        """Give the next request its id, 0, 1, 2, ... over the tracer's life."""
        self.request = self._requests
        self._requests += 1

    def traced(self, name, fn):
        """``fn`` wrapped so that every call records a span."""
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        info = _INFO.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = len(spans) + len(stack)
            parent = stack[-1] if stack else None
            stack.append(sid)
            result, ok = None, False
            start = clock()
            try:
                result = fn(*args, **kwargs)
                ok = True
                return result
            finally:
                end = clock()
                stack.pop()
                extra = info(args, kwargs, result) if ok and info is not None else None
                spans.append((sid, name, start, end, parent, self.request, extra))

        return wrapper

    def install(self) -> None:
        modules = [m for n, m in sys.modules.items()
                   if n == PACKAGE or n.startswith(PACKAGE + ".")]
        wrappers = {}
        for layer in LAYERS:
            module = sys.modules[f"{PACKAGE}.{layer}"]
            for name, obj in vars(module).items():
                if _is_traceable(module, name, obj):
                    wrappers[id(obj)] = (obj, self.traced(f"{layer}.{name}", obj))
        for module in modules:
            for name, obj in list(vars(module).items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    setattr(module, name, hit[1])
                    self._patches.append((module, name, obj))

    def restore(self) -> None:
        while self._patches:
            module, name, original = self._patches.pop()
            setattr(module, name, original)

    @contextlib.contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.restore()

    def write(self, path) -> None:
        """Spans as JSON lines, in completion order."""
        keys = ("id", "name", "start", "end", "parent", "request", "info")
        with open(path, "w", encoding="ascii") as fh:
            for span in self.spans:
                fh.write(json.dumps(dict(zip(keys, span))) + "\n")


def self_times(spans):
    """Per span id: duration minus the time its direct children cover."""
    own = {s[0]: s[3] - s[2] for s in spans}
    for s in spans:
        if s[4] is not None:
            own[s[4]] -= s[3] - s[2]
    return own


def per_layer_metrics(spans, requests: int, rounds: int, traced_wall: float,
                      reference_pi_cache: tuple[int, int]) -> dict[str, float]:
    """Every per-layer figure of one traced run.

    Times (``*.self_s``, ``*.incl_s``, ``exact_s``) and work counts (``terms``,
    ``bytes``, ``u2_digits``) are per round; ``calls_per_req`` per
    request; ``share`` is a layer's self time over the traced wall time.
    ``reference_pi_cache`` is (hits, misses) of ``_pi_scaled`` during the
    traced run.  ``incl_s`` includes child spans; it is given where the
    function hands all of its work to exactmath helpers (fraction-file
    I/O to format_rational and parse_rational, the oracle to the complex
    helpers), so that its self time alone would hide the cost.
    """
    own = self_times(spans)
    by_id = {s[0]: s for s in spans}
    self_by_name = defaultdict(float)
    incl_by_name = defaultdict(float)
    self_by_layer = dict.fromkeys(ALL_LAYERS, 0.0)
    calls = defaultdict(int)
    info = defaultdict(int)
    for s in spans:
        self_by_name[s[1]] += own[s[0]]
        incl_by_name[s[1]] += s[3] - s[2]
        self_by_layer[s[1].split(".", 1)[0]] += own[s[0]]
        calls[s[1]] += 1
        if s[6] is not None:
            info[s[1]] += s[6]

    exact_auto = {s[4] for s in spans
                  if s[1] == "series.arctan_fast" and s[4] is not None
                  and by_id[s[4]][1] == "series.arctan_auto"}
    exact_auto_s = sum(by_id[i][3] - by_id[i][2] for i in exact_auto)

    def ratio(a, b):
        return a / b if b else 0.0

    hits, misses = reference_pi_cache
    m = {f"{layer}.self_s": self_by_layer[layer] / rounds for layer in ALL_LAYERS}
    for name in ("squaring.u2_of", "squaring.shared_parts", "squaring.u2_direct_oracle",
                 "formulas.validate_formula", "formulas.two_term_formula",
                 "formulas.lehmer_measure", "series.arctan_fast", "series.pi_two_term",
                 "series.reference_pi", "series.arctan_auto", "trigcheck.verify_k",
                 "trigcheck.u2_trig", "trigcheck.dec_sin_cos",
                 "exactmath.fraction_to_decimal", "exactmath.int_digit_count",
                 "exactmath.rational_log10_abs", "exactmath.coinciding_digits"):
        m[f"{name}.self_s"] = self_by_name[name] / rounds
    io_names = ("squaring.write_fraction_file", "squaring.read_fraction_file")
    m.update({
        "radical.u1_of_k.calls_per_req": calls["radical.u1_of_k"] / requests,
        "radical.ladder_eval.per_u1": ratio(calls["radical.ladder_eval"],
                                            calls["radical.u1_of_k"]),
        "squaring.chain_calls_per_req":
            (calls["squaring.shared_parts"] + calls["squaring.state_at"]) / requests,
        "squaring.fraction_io.self_s": sum(self_by_name[n] for n in io_names) / rounds,
        "squaring.fraction_io.incl_s": sum(incl_by_name[n] for n in io_names) / rounds,
        "squaring.u2_direct_oracle.incl_s": incl_by_name["squaring.u2_direct_oracle"] / rounds,
        "squaring.fraction_io.bytes": sum(info[n] for n in io_names) / rounds,
        "squaring.u2_digits": info["squaring.u2_of"] / rounds,
        "series.arctan_fast.terms": info["series.arctan_fast"] / rounds,
        "series.reference_pi.hit_ratio": ratio(hits, hits + misses),
        "series.arctan_auto.exact_frac": ratio(len(exact_auto), calls["series.arctan_auto"]),
        "series.arctan_auto.exact_s": exact_auto_s / rounds,
        "trigcheck.dec_arctan.per_u2_trig": ratio(calls["trigcheck.dec_arctan"],
                                                  calls["trigcheck.u2_trig"]),
    })
    for layer in ALL_LAYERS:
        m[f"{layer}.share"] = ratio(self_by_layer[layer], traced_wall)
    m["trace.spans_per_req"] = len(spans) / requests
    return m
