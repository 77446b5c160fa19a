"""Drive the ``machinlike`` command in-process and check every answer.

The program is imported from the ``src`` directory of the checkout that
holds this benchmark, never from an installed copy.  Each request is one
call to ``cli.main(argv)`` with stdout and stderr captured; only that
call is timed.  The check that follows it, and the clean-up of files the
request no longer needs, happen outside the timed region.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import os
import sys
import time
from dataclasses import dataclass
from pathlib import Path

from checks import check

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PACKAGE = "machinlike"


class MissingProgram(RuntimeError):
    """The checkout holds no machinlike sources to benchmark."""


def import_fresh():
    """Import the package from ``SRC`` as if for the first time and return
    its ``cli`` module.

    Every ``machinlike`` module already loaded is dropped first, so the
    modules, and the caches they hold, are new.
    """
    if not (SRC / PACKAGE / "__init__.py").is_file():
        raise MissingProgram(f"no {PACKAGE} package under {SRC}")
    if sys.path[0] != str(SRC):
        sys.path.insert(0, str(SRC))
    for name in [n for n in sys.modules if n == PACKAGE or n.startswith(PACKAGE + ".")]:
        del sys.modules[name]
    cli = importlib.import_module(PACKAGE + ".cli")
    if Path(cli.__file__).resolve().parent != SRC / PACKAGE:
        raise MissingProgram(f"imported {cli.__file__}, not the copy under {SRC}")
    return cli


def library_module(name: str):
    """A loaded library module, e.g. ``library_module("series")``."""
    return sys.modules[f"{PACKAGE}.{name}"]


@contextlib.contextmanager
def working_directory(path: Path):
    path.mkdir(parents=True, exist_ok=True)
    previous = os.getcwd()
    os.chdir(path)
    try:
        yield path
    finally:
        os.chdir(previous)


@dataclass(frozen=True)
class Outcome:
    request: object
    seconds: float
    output: str            # what the command printed to stdout
    failure: str | None    # None when the output passed every check


def execute(cli, requests, goldens: dict, workdir: Path, tracer=None) -> list[Outcome]:
    """Send the requests one after another (a closed loop with one client)
    and check each reply before the next request goes out.

    Must run with ``workdir`` as the current directory, since request
    file names are relative.  With a tracer, each request becomes a
    ``cli.main`` span and gets the tracer's next request id.
    """
    main = cli.main if tracer is None else tracer.traced("cli.main", cli.main)
    outcomes = []
    for req in requests:
        if tracer is not None:
            tracer.start_request()
        out, err = io.StringIO(), io.StringIO()
        error = None
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            start = time.perf_counter()
            try:
                rc = main(list(req.argv))
            except Exception as exc:  # the run must go on; the request counts as failed
                rc, error = None, f"raised {type(exc).__name__}: {exc}"
            seconds = time.perf_counter() - start
        failure = error or check(req, rc, out.getvalue(), goldens, workdir)
        for name in (req.u2_file, req.out if req.kind != "generate" else None):
            if name is not None:
                with contextlib.suppress(FileNotFoundError):
                    (workdir / name).unlink()
        outcomes.append(Outcome(req, seconds, out.getvalue(), failure))
    return outcomes
