"""Output checks against goldens recorded at the seed commit.

Every check runs after its request returns, outside the timed region, and
returns a reason string on a mismatch instead of raising, so a wrong
output counts as a failed request and the run goes on.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

GOLDENS_PATH = Path(__file__).with_name("goldens.json")

GENERATE_FIELDS = ("u1", "u2_num_digits", "u2_den_digits", "e")
VERIFY_FIELDS = ("u1", "u2_num_digits", "u2_den_digits", "u2_leading", "ok")
MEASURE_FIELDS = ("e", "path")


def load_goldens() -> dict:
    with open(GOLDENS_PATH, encoding="ascii") as fh:
        return json.load(fh)


def file_sha256(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def _fields(payload: dict, golden: dict, names) -> str | None:
    for name in names:
        if payload.get(name) != golden[name]:
            return f"{name} = {payload.get(name)!r}, expected {golden[name]!r}"
    return None


def _check_generate(req, payload, goldens, workdir: Path) -> str | None:
    golden = goldens["u2"][str(req.k)]
    if payload.get("valid") is not True:
        return "identity not validated"
    bad = _fields(payload, golden, GENERATE_FIELDS)
    if bad:
        return bad
    if file_sha256(workdir / req.out) != golden["sha256"]:
        return f"u2 file {req.out} differs from the golden"
    return None


def _check_compute_pi(req, payload, goldens, workdir: Path) -> str | None:
    pi = goldens["pi"]
    if payload.get("pi_prefix") != pi.replace(".", "")[:30]:
        return f"pi prefix {payload.get('pi_prefix')!r} is wrong"
    if payload.get("coinciding_digits", -1) < req.precision:
        return f"only {payload.get('coinciding_digits')} digits agree with reference pi"
    if req.out is not None:
        text = (workdir / req.out).read_text(encoding="ascii")
        if text != pi[:2 + req.precision] + "\n":
            return f"digit file {req.out} differs from golden pi"
    return None


def _check_verify(req, payload, goldens, workdir: Path) -> str | None:
    if payload.get("precision") != req.precision:
        return f"precision {payload.get('precision')!r}, expected {req.precision}"
    return _fields(payload, goldens["verify"][str(req.k)], VERIFY_FIELDS)


def _check_measure(req, payload, goldens, workdir: Path) -> str | None:
    return _fields(payload, goldens["measure"][str(req.k)], MEASURE_FIELDS)


_CHECKS = {
    "generate": _check_generate,
    "compute-pi": _check_compute_pi,
    "verify": _check_verify,
    "measure": _check_measure,
}


def check(req, rc: int, stdout: str, goldens: dict, workdir: Path) -> str | None:
    """None when the request's exit code, JSON summary and files match the
    goldens; otherwise the first mismatch found."""
    if rc != 0:
        return f"exit code {rc}"
    try:
        payload = json.loads(stdout)
    except ValueError:
        return "stdout is not one JSON object"
    try:
        return _CHECKS[req.kind](req, payload, goldens, workdir)
    except OSError as exc:
        return f"cannot read output: {exc}"
