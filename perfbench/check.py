"""Correctness checks of one operation's output against its golden entry.

Golden entries are captured by `capture_golden.py` from the unmodified
program. Rules:

- exit codes, strings, booleans, integers and exact fractions must be equal;
- every certified bracket ({"value", "err"} or {"lower", "upper"}, and each
  CSV row) must intersect the golden bracket, so tighter brackets pass;
- norms must also intersect the independent `norm_sq_bruteforce` oracle
  stored with the golden entry;
- Monte Carlo means must lie within 5 standard errors of the exact products
  where the window covers the support;
- other floats must agree to a relative 1e-9;
- timings, file paths and the margins derived from brackets are not
  compared.
"""
from __future__ import annotations

import csv
import hashlib
import math

# float rounding allowance when intersecting brackets
_SLACK = 1e-12
_REL_TOL = 1e-9
_MC_SIGMAS = 5.0

_IGNORED = {
    "csv",  # the path the CSV was written to
    "sqrt_lower_margin", "sqrt_upper_margin", "negsq_margin", "sum_lower",
    # Monte Carlo estimates: checked statistically in _check_simulate
    "mean_omega", "se_omega", "mean_sqrt_omega", "se_sqrt_omega",
    "mean_negsq_omega", "se_negsq_omega",
}


class CheckError(AssertionError):
    pass


def _bracket(d):
    if "value" in d and "err" in d:
        return d["value"] - d["err"], d["value"] + d["err"]
    return d["lower"], d["upper"]


def _is_bracket(d) -> bool:
    return isinstance(d, dict) and (
        ("value" in d and "err" in d) or ("lower" in d and "upper" in d))


def intersects(a, b) -> bool:
    (alo, ahi), (blo, bhi) = a, b
    slack = _SLACK * (1.0 + max(abs(alo), abs(ahi), abs(blo), abs(bhi)))
    return alo <= bhi + slack and blo <= ahi + slack


def _require(cond: bool, path: str, msg: str):
    if not cond:
        raise CheckError(f"{path}: {msg}")


def compare(gold, got, path: str = "results"):
    """Recursive comparison of a report tree under the rules above."""
    if _is_bracket(gold):
        _require(_is_bracket(got), path, "bracket missing")
        g0, g1 = _bracket(got)
        _require(g0 <= g1 and math.isfinite(g0) and math.isfinite(g1), path,
                 f"malformed bracket [{g0}, {g1}]")
        _require(intersects((g0, g1), _bracket(gold)), path,
                 f"bracket [{g0}, {g1}] misses golden {list(_bracket(gold))}")
        rest = {k: v for k, v in gold.items() if k not in ("value", "err", "lower", "upper")}
        for k, v in rest.items():
            _require(k in got, path, f"missing key {k!r}")
            compare(v, got[k], f"{path}.{k}")
        return
    if isinstance(gold, dict):
        _require(isinstance(got, dict), path, "expected an object")
        keys = set(gold) - _IGNORED
        _require(keys == set(got) - _IGNORED, path,
                 f"keys differ: {sorted(keys ^ (set(got) - _IGNORED))}")
        for k in sorted(keys):
            compare(gold[k], got[k], f"{path}.{k}")
        return
    if isinstance(gold, list):
        _require(isinstance(got, list) and len(got) == len(gold), path,
                 f"expected a list of {len(gold)}")
        for i, (a, b) in enumerate(zip(gold, got)):
            compare(a, b, f"{path}[{i}]")
        return
    if isinstance(gold, float) and not isinstance(got, bool) and isinstance(got, (int, float)):
        ok = got == gold or abs(got - gold) <= _REL_TOL * max(abs(gold), abs(got))
        _require(ok, path, f"{got!r} != golden {gold!r}")
        return
    _require(type(got) is type(gold) and got == gold, path,
             f"{got!r} != golden {gold!r}")


def read_csv(path: str):
    """(index labels, [(value, lower, upper)]) of a growth CSV."""
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    if rows[0] != ["index", "value", "lower_bound", "upper_bound"]:
        raise CheckError(f"{path}: unexpected CSV header {rows[0]}")
    labels = [r[0] for r in rows[1:]]
    vals = [(float(r[1]), float(r[2]), float(r[3])) for r in rows[1:]]
    return labels, vals


def index_digest(labels) -> str:
    return hashlib.sha256("\n".join(labels).encode()).hexdigest()


def csv_summary(path: str) -> dict:
    """Golden form of a growth CSV: row count, index digest, brackets."""
    labels, vals = read_csv(path)
    return {"rows": len(vals), "index_sha256": index_digest(labels),
            "brackets": [[lo, hi] for _, lo, hi in vals]}


def _check_csv(gold: dict, path: str, oracle: dict | None):
    labels, vals = read_csv(path)
    _require(len(vals) == gold["rows"], "csv", f"{len(vals)} rows, golden {gold['rows']}")
    _require(index_digest(labels) == gold["index_sha256"], "csv", "index column differs")
    for i, ((v, lo, hi), g) in enumerate(zip(vals, gold["brackets"])):
        where = f"csv row {labels[i]}"
        _require(lo <= v <= hi, where, f"value {v} outside [{lo}, {hi}]")
        _require(intersects((lo, hi), g), where, f"[{lo}, {hi}] misses golden {g}")
    for i, b in (oracle or {}).items():
        lo, hi = vals[int(i)][1:]
        _require(intersects((lo, hi), b), f"csv row {labels[int(i)]}",
                 f"[{lo}, {hi}] misses oracle {b}")


def _check_simulate(gold: dict, res: dict):
    if gold.get("products") is None:
        for k in ("mean_omega", "mean_sqrt_omega", "mean_negsq_omega"):
            _require(math.isfinite(res[k]) and res[k] >= 0, k, f"bad estimate {res[k]}")
        return
    exact = {"omega": (1.0, 1.0), **gold["products"]}
    for name, (lo, hi) in exact.items():
        mean, se = res[f"mean_{name}"], res[f"se_{name}"]
        dist = max(lo - mean, mean - hi, 0.0)
        _require(dist <= _MC_SIGMAS * se, f"mean_{name}",
                 f"{mean} is {dist / se if se else math.inf:.2f} SE from exact [{lo}, {hi}]")


def check_op(gold: dict, rc: int, report: dict | None, csv_path: str | None):
    """Raise CheckError unless one operation's output matches its golden entry."""
    _require(rc == gold["rc"], "exit code", f"{rc}, golden {gold['rc']}")
    _require(report is not None, "report", "no JSON report on stdout")
    _require(report.get("command") == gold["command"], "command",
             f"{report.get('command')!r}, golden {gold['command']!r}")
    res = report["results"]
    compare(gold["results"], res)
    if "oracle" in gold and report["command"] == "cocycle norm":
        _require(intersects(_bracket(res), gold["oracle"]), "results",
                 f"norm misses the brute-force oracle {gold['oracle']}")
    if report["command"] == "verify":
        for i, b in (gold.get("oracle") or {}).items():
            row = res["checks"][int(i)]
            _require(intersects(_bracket(row["norm_sq"]), b), f"checks[{i}].norm_sq",
                     f"misses the brute-force oracle {b}")
    if gold.get("csv") is not None:
        _check_csv(gold["csv"], csv_path, gold.get("csv_oracle"))
    if report["command"] == "simulate":
        _check_simulate(gold, res)


def bracket_rel_widths(report: dict | None, csv_path: str | None):
    """err/|value| of every certified bracket in one operation's output."""
    out = []

    def walk(node, key=""):
        if key == "oracle":  # the cross-check, not a certified output
            return
        if _is_bracket(node):
            lo, hi = _bracket(node)
            mid = (lo + hi) / 2.0
            if mid != 0.0:
                out.append((hi - lo) / 2.0 / abs(mid))
        if isinstance(node, dict):
            for k, v in node.items():
                walk(v, k)
        elif isinstance(node, list):
            for v in node:
                walk(v)

    if report is not None:
        walk(report.get("results"))
    if csv_path is not None:
        for _, lo, hi in read_csv(csv_path)[1]:
            if lo + hi != 0.0:
                out.append((hi - lo) / abs(lo + hi))
    return out
