"""Record the goldens the benchmark checks every reply against.

    python3 perfbench/record_goldens.py

Runs the CLI in-process at every input the workloads can send and writes
perfbench/goldens.json: the SHA-256 and JSON summary of each generated
u2 file for k = 2..16, the verify fields for k = 2..12 (the same at both
precisions the workloads use), the measure fields for k = 21..64, and pi
to 2100 places from reference_pi, a precision no timed request uses.
Takes about half a minute; run it only on a commit whose outputs are
trusted.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil

import checks
import harness
import workloads

PI_PLACES = 2100


def call(cli, argv) -> dict:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = cli.main(argv)
    if rc != 0:
        raise SystemExit(f"{' '.join(argv)} exited {rc}")
    return json.loads(out.getvalue())


def record(cli) -> dict:
    series = harness.library_module("series")
    pi = str(series.reference_pi(PI_PLACES))
    u2 = {}
    for k in range(2, 17):
        path = f"u2-k{k}.txt"
        payload = call(cli, ["generate", "--k", str(k), "--precision", "100", "--out", path])
        if payload["valid"] is not True:
            raise SystemExit(f"generate --k {k} did not validate")
        u2[str(k)] = {name: payload[name] for name in checks.GENERATE_FIELDS}
        u2[str(k)]["sha256"] = checks.file_sha256(path)
    verify = {}
    for k in range(2, 13):
        seen = [{name: call(cli, ["verify", "--k", str(k), "--precision", str(p)])[name]
                 for name in checks.VERIFY_FIELDS}
                for p in workloads.VERIFY_PRECISIONS]
        if any(s != seen[0] for s in seen):
            raise SystemExit(f"verify --k {k} fields depend on the precision: {seen}")
        verify[str(k)] = seen[0]
    measure = {str(k): {name: call(cli, ["measure", "--k", str(k)])[name]
                        for name in checks.MEASURE_FIELDS}
               for k in workloads.MEASURE_KS}
    return {"pi": pi, "u2": u2, "verify": verify, "measure": measure}


def main() -> int:
    cli = harness.import_fresh()
    workdir = harness.ROOT / ".bench_work" / "record"
    try:
        with harness.working_directory(workdir):
            goldens = record(cli)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    with open(checks.GOLDENS_PATH, "w", encoding="ascii") as fh:
        json.dump(goldens, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {checks.GOLDENS_PATH}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
