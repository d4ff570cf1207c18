"""Capture the golden reports the benchmark checks every operation against.

Run from the repository root against the unmodified program:

    python3 perfbench/capture_golden.py [--workload NAME]

For every input variant of every workload it runs each operation once,
keeps the exit code, the report (minus timings), a summary of any CSV, and
independent references computed here: `norm_sq_bruteforce` brackets for the
norms and, for Monte Carlo windows that cover the support, the exact
`hellinger_product` and `negsq_product`. Writes perfbench/golden/<workload>.json.gz.
"""
from __future__ import annotations

import argparse
import gzip
import hashlib
import json
import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(SRC))
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import bernlab.cli as cli  # noqa: E402
from bernlab.cocycles import norm_sq_bruteforce  # noqa: E402
from bernlab.criteria import hellinger_product, negsq_product  # noqa: E402
from bernlab.groups import FreeGroup, Integers, inv, parse_element, word_length  # noqa: E402
from bernlab.marginals import spec_from_json  # noqa: E402
from check import csv_summary, read_csv  # noqa: E402
from run import run_op  # noqa: E402
from workloads import N_VARIANTS, WORKLOADS, make_ops, variant  # noqa: E402

# oracle windows: exact on F2 (the support lies in the ball of radius |g|),
# a certified tail beyond this radius on Z
Z_ORACLE_RADIUS = 4096
F2_ORACLE_MAX_LENGTH = 6


def _spec_of(op):
    argv = op.argv
    if "--spec" in argv:
        return spec_from_json(Path(argv[argv.index("--spec") + 1]).read_text())
    return cli.preset(argv[argv.index("--preset") + 1])


def _oracle(spec, g):
    if isinstance(spec.group, Integers):
        bv = norm_sq_bruteforce(spec, g, max(Z_ORACLE_RADIUS, abs(g)))
    else:
        bv = norm_sq_bruteforce(spec, g, word_length(g))
    return [bv.lower, bv.upper]


def _oracle_rows(spec, labels) -> dict:
    out = {}
    for i, label in enumerate(labels):
        if i >= 40 and i % 100:
            continue
        g = parse_element(spec.group, label)
        if isinstance(spec.group, FreeGroup) and word_length(g) > F2_ORACLE_MAX_LENGTH:
            continue
        out[str(i)] = _oracle(spec, g)
    return out


def capture(op) -> dict:
    seconds, rc, stdout, error = run_op(cli, op)
    if rc is None:
        raise RuntimeError(f"{op.key} raised:\n{error}")
    report = json.loads(stdout)
    res = report["results"]
    res.pop("csv", None)
    entry = {"command": report["command"], "rc": rc, "results": res,
             "seconds_at_capture": round(seconds, 3)}
    if op.csv is not None:
        entry["csv"] = csv_summary(op.csv)
        entry["csv_oracle"] = _oracle_rows(_spec_of(op), read_csv(op.csv)[0])
    elif report["command"] == "cocycle norm" and "oracle" not in res:
        spec = _spec_of(op)
        entry["oracle"] = _oracle(spec, parse_element(spec.group, res["g"]))
    elif report["command"] == "cocycle norm":
        o = res["oracle"]
        entry["oracle"] = [o["value"] - o["err"], o["value"] + o["err"]]
    elif report["command"] == "verify":
        entry["oracle"] = _oracle_rows(_spec_of(op), [row["g"] for row in res["checks"]])
    elif report["command"] == "simulate":
        entry["products"] = None
        if res["truncation_note"] == "window covers support":
            # mc_omega(g) samples the coordinates and ratios that the products
            # pair up for g^-1; the negsq product is not symmetric under
            # inversion (see NOTES.md), so compare over the same coordinates
            spec = _spec_of(op)
            g = inv(parse_element(spec.group, op.argv[op.argv.index("-g") + 1]))
            h, n = hellinger_product(spec, g, tol=1e-12), negsq_product(spec, g, tol=1e-12)
            entry["products"] = {"sqrt_omega": [h.lower, h.upper],
                                 "negsq_omega": [n.lower, n.upper]}
    return entry


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "bernlab").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS, action="append")
    args = ap.parse_args(argv)
    workdir = HERE.parent / ".perfbench_work" / "capture"
    for workload in args.workload or WORKLOADS:
        entries: dict = {}
        for index in range(N_VARIANTS):
            ops = make_ops(workload, variant(workload, index), 0, workdir)
            for op in ops:
                if op.key not in entries:
                    entries[op.key] = capture(op)
                    print(f"{workload} [{index}] {op.key}", flush=True)
        out = HERE / "golden" / f"{workload}.json.gz"
        out.parent.mkdir(exist_ok=True)
        payload = {"source_sha256": source_digest(), "entries": entries}
        with open(out, "wb") as raw, gzip.GzipFile(fileobj=raw, mode="wb", mtime=0) as fh:
            fh.write(json.dumps(payload, sort_keys=True).encode())
        print(f"wrote {out} ({len(entries)} operations)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
