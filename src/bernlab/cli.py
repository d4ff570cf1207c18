"""Command line front end: presets, JSON reports, CSV series.

Subcommands: spec, cocycle, criterion, classify, simulate, verify, build.
Exit codes: 0 success, 2 validation error, 3 no certificate when one was
required. Reports carry schema "bernlab/1", the spec digest and the seeds.
"""
from __future__ import annotations

import argparse
import functools
import hashlib
import json
import math
import re
import sys
import time
from fractions import Fraction

from . import __version__
from . import groups
from .exact import LogValue, format_fraction, parse_fraction
from .groups import FreeGroup, Integers, format_element, is_identity, parse_element
from .marginals import (
    ActionSpec,
    BaseMeasure,
    DecreasingSequence,
    SpecError,
    SpecialCocycle,
    WSplit,
    ZSequence,
    make_folner_family,
    spec_from_json,
    spec_to_json,
)

# cocycles, criteria and typeclass (and csv) are imported inside the functions
# that call them, so a command loads only the modules it runs

SCHEMA = "bernlab/1"


class CliError(Exception):
    pass


# --- presets -----------------------------------------------------------------

_PRESET_RE = re.compile(r"^([a-z0-9-]+)(?:\(([^)]*)\))?$")


def _explicit_z(lam: Fraction) -> ActionSpec:
    if not (0 < lam < 1):
        raise CliError(f"lambda must lie in (0,1), got {lam}")
    n0 = max(2, math.ceil(1 / float((1 - lam) ** 2)))
    seq = DecreasingSequence("inv_sqrt_log", n0=n0)
    # delta small enough that lam + a_0 stays below 1 - delta
    room = min(float(lam), 1.0 - float(lam) - seq.a(0))
    if room <= 0:
        raise CliError(f"no admissible delta for lambda = {lam}")
    delta = Fraction(1, max(4, math.ceil(1.2 / room)))
    fam = ZSequence(lam, n0, seq)
    return ActionSpec(Integers(), fam, delta=delta)


def preset(name: str, power: int = 1) -> ActionSpec:
    m = _PRESET_RE.match(name.strip())
    if not m:
        raise CliError(f"malformed preset name {name!r}")
    base, arg = m.group(1), m.group(2)
    if arg is not None and not arg.strip():
        raise CliError(f"preset {name!r} has empty parentheses; leave them "
                       f"out for the default")
    if arg is not None and base not in ("explicit-z", "f2-dissipative"):
        raise CliError(f"preset {name!r}: only explicit-z and f2-dissipative "
                       f"take a parameter")
    if base == "explicit-z":
        spec = _explicit_z(parse_fraction(arg) if arg else Fraction(3, 4))
        return _spec_with_power(spec, power)
    if base == "explicit-z-sqrt6":
        fam = ZSequence(Fraction(1, 2), 1,
                       DecreasingSequence("inv_sqrt", scale=Fraction(1, 6)))
        return ActionSpec(Integers(), fam, multiplicity=power, delta=Fraction(1, 3))
    if base == "f2-wsplit":
        fam = WSplit(Fraction(3, 5), Fraction(2, 5), Fraction(1, 2))
        return ActionSpec(FreeGroup(2), fam, multiplicity=power, delta=Fraction(1, 3))
    if base == "f2-wsplit-512":
        fam = WSplit(Fraction(3, 5), Fraction(5, 12), Fraction(1, 2))
        return ActionSpec(FreeGroup(2), fam, multiplicity=power, delta=Fraction(1, 3))
    if base == "f2-dissipative":
        D = parse_fraction(arg) if arg else Fraction(36)
        fam = SpecialCocycle(D, Fraction(1, 2), Fraction(1, 4))
        return ActionSpec(FreeGroup(2), fam, multiplicity=power, delta=Fraction(1, 4))
    if base == "folner-z":
        fam = make_folner_family(
            phi_kind="sqrt_log",
            phi_scale=Fraction(1, 16),
            horizon=256,
            offset=Fraction(1, 2),
            delta_f=Fraction(1, 6),
        )
        return ActionSpec(Integers(), fam, multiplicity=power, delta=Fraction(1, 3))
    raise CliError(f"unknown preset {name!r}")


def _spec_with_power(spec: ActionSpec, power: int) -> ActionSpec:
    if power == spec.multiplicity:
        return spec
    return ActionSpec(spec.group, spec.family, multiplicity=power, delta=spec.delta)


# --- report plumbing ---------------------------------------------------------

def spec_digest(spec: ActionSpec) -> str:
    payload = json.dumps(spec_to_json(spec), sort_keys=True)
    return hashlib.sha256(payload.encode()).hexdigest()[:16]


def make_report(command: str, spec, results: dict, seeds=None, started=None) -> dict:
    report = {
        "schema": SCHEMA,
        "tool_version": __version__,
        "command": command,
        "results": results,
    }
    if spec is not None:
        report["spec_digest"] = spec_digest(spec)
    if seeds is not None:
        report["seeds"] = seeds
    if started is not None:
        report["wall_time_s"] = round(time.monotonic() - started, 6)
    return report


def _emit(report: dict, out: str | None):
    # a non-finite float must fail here: JSON has no NaN or Infinity
    text = json.dumps(report, indent=2, default=str, allow_nan=False)
    if out:
        with open(out, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _write_csv(path: str, rows):
    import csv

    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["index", "value", "lower_bound", "upper_bound"])
        w.writerows(rows)


def _load_spec(args) -> ActionSpec:
    power = args.power
    if getattr(args, "preset", None):
        return preset(args.preset, power=power)
    if getattr(args, "spec", None):
        with open(args.spec) as fh:
            spec = spec_from_json(fh.read())
        return _spec_with_power(spec, power) if power != 1 else spec
    raise CliError("one of --spec FILE or --preset NAME is required")


def _check_radius(radius: int) -> None:
    if radius < 0:
        raise CliError(f"radius must be nonnegative, got {radius}")


def _parse_g(spec: ActionSpec, text: str):
    return parse_element(spec.group, text)


# --- verify_bounds -----------------------------------------------------------

def _finite_or_none(x: float):
    # JSON has no infinity or NaN: a float that overflowed is reported as null
    return x if math.isfinite(x) else None


def verify_bounds(spec: ActionSpec, grid, tol: float = 1e-6) -> dict:
    """Per-element inequality suite relating the integral products to the
    cocycle norm; failures are report content, not errors."""
    from .cocycles import norm_sq
    from .criteria import HELLINGER_TAIL, integral_products, kappa0

    k0 = float(kappa0(spec.delta))
    # the integral products only need a loose tail: it widens the certified
    # bracket slightly but keeps slowly decaying families fast
    product_tol = max(tol, 1e-4)
    rows, failures = [], 0
    for g in grid:
        nv = norm_sq(spec, g, tol=tol)
        hv, pv = integral_products(spec, g, tol=product_tol)
        lower_ok = hv.upper >= math.exp(-HELLINGER_TAIL * nv.upper) * (1 - 1e-12)
        upper_ok = hv.lower <= math.exp(-0.5 * max(nv.lower, 0.0)) * (1 + 1e-12)
        # e^{k0 ||c_g||^2} overflows a float for large norms: compare logs
        log_bound = k0 * nv.upper
        negsq_ok = (pv.lower <= 0.0
                    or math.log(pv.lower) <= log_bound + math.log1p(1e-12))
        ok = lower_ok and upper_ok and negsq_ok
        failures += not ok
        try:
            negsq_margin = math.exp(log_bound) - pv.lower
        except OverflowError:
            negsq_margin = math.inf
        rows.append({
            "g": format_element(g),
            "norm_sq": {"value": nv.value, "err": nv.err},
            "sqrt_omega_integral": {"value": hv.value, "err": hv.err},
            "negsq_omega_integral": {"value": _finite_or_none(pv.value),
                                     "err": _finite_or_none(pv.err)},
            "sqrt_lower_margin": hv.upper - math.exp(-HELLINGER_TAIL * nv.upper),
            "sqrt_upper_margin": math.exp(-0.5 * max(nv.lower, 0.0)) - hv.lower,
            "negsq_margin": _finite_or_none(negsq_margin),
            "pass": ok,
        })
    return {"kappa0": k0, "n_checked": len(rows), "n_failed": failures,
            "checks": rows}


# --- classify helpers --------------------------------------------------------

def element_ratio_values(spec: ActionSpec, g):
    """Exact values of the Radon-Nikodym cocycle omega(g, .) per coordinate."""
    from .cocycles import value_pairs

    values = set()
    for _, p, q in value_pairs(spec, g, 0):
        if not isinstance(p, Fraction) or not isinstance(q, Fraction):
            raise CliError("classification needs a rational-valued family")
        values.add(q / p)
        values.add((1 - q) / (1 - p))
    return sorted(values)


def _parse_measure(text: str):
    return BaseMeasure(tuple(text.split(",")))


def _log_json(v: LogValue | None):
    if v is None:
        return None
    return {"exact": repr(v), "decimal": float(v)}


def _type_json(t):
    out = {"label": repr(t)}
    if t.kind == "III_lambda":
        out["lambda"] = t.lam
    return out


def classify_report(mu0, mu1, stable: bool) -> dict:
    from .typeclass import krieger_type, ratio_group, stable_params, stable_type_set

    rg = ratio_group(mu0.t_values(mu1))
    results = {
        "type": _type_json(krieger_type(rg)),
        "L": repr(rg),
        "sd_basis": [format_fraction(q) for q in rg.generators],
    }
    if stable:
        sp = stable_params(mu0, mu1)
        st = stable_type_set(sp)
        results["stable"] = {
            "a": _log_json(sp.a),
            "b": _log_json(sp.b),
            "k1": "inf" if (sp.L.kind == "cyclic" and sp.k1 is None) else sp.k1,
            "rule": st["rule"],
            "stable_types": [_type_json(x) for x in st["types"]],
        }
    return results


# --- subcommands -------------------------------------------------------------

def cmd_spec(args) -> int:
    if args.action == "validate":
        with open(args.file) as fh:
            spec = spec_from_json(fh.read())
        report = make_report("spec validate", spec,
                             {"valid": True, "normalized": spec_to_json(spec)})
        _emit(report, args.out)
        return 0
    raise CliError(f"unknown spec action {args.action!r}")


def cmd_cocycle(args) -> int:
    from .cocycles import norm_sq, norm_sq_bruteforce

    started = time.monotonic()
    spec = _load_spec(args)
    if args.action == "norm":
        g = _parse_g(spec, args.g)
        nv = norm_sq(spec, g, tol=args.tol)
        results = {
            "g": format_element(g),
            "value": nv.value,
            "err": nv.err,
            "method": "closed-form",
        }
        if nv.exact is not None:
            results["exact"] = format_fraction(nv.exact)
        if nv.err > args.tol:
            # a work budget ran out first: the bracket reached is reported
            results["tol_missed"] = True
        if args.oracle_radius is not None:
            _check_radius(args.oracle_radius)
            ov = norm_sq_bruteforce(spec, g, args.oracle_radius)
            results["oracle"] = {"value": ov.value, "err": ov.err,
                                 "radius": args.oracle_radius}
            results["oracle_agrees"] = (
                abs(nv.value - ov.value) <= nv.err + ov.err + 1e-9
            )
        _emit(make_report("cocycle norm", spec, results, started=started), args.out)
        return 0
    if args.action == "growth":
        _check_radius(args.radius)
        rows, missed = [], False
        if isinstance(spec.group, Integers):
            elements = range(1, args.radius + 1)
        else:
            elements = (g for g in groups.ball(spec.group, args.radius)
                        if not is_identity(g))
        for g in elements:
            nv = norm_sq(spec, g, tol=args.tol)
            missed |= nv.err > args.tol
            label = g if isinstance(g, int) else format_element(g)
            rows.append([label, nv.value, nv.lower, nv.upper])
        out = args.out or "growth.csv"
        _write_csv(out, rows)
        results = {"rows": len(rows), "csv": out}
        if missed:
            # a row's work budget ran out first (see `cocycle norm`)
            results["tol_missed"] = True
        print(json.dumps(make_report("cocycle growth", spec, results,
                                     started=started), indent=2))
        return 0
    raise CliError(f"unknown cocycle action {args.action!r}")


def cmd_criterion(args) -> int:
    from .criteria import classify_conservativity, verify_certificate

    started = time.monotonic()
    spec = _load_spec(args)
    kappa = None if args.kappa == "auto" else parse_fraction(args.kappa)
    verdict = classify_conservativity(spec, kappa=kappa)
    results = {
        "verdict": verdict.verdict,
        "kappa": verdict.kappa,
        "evidence": verdict.evidence,
        "certificate_checks": verify_certificate(spec, verdict),
    }
    if args.csv and "partial_sums" in verdict.evidence:
        _write_csv(args.csv, [
            [r["radius"], (r["lower"] + r["upper"]) / 2, r["lower"], r["upper"]]
            for r in verdict.evidence["partial_sums"]
        ])
        results["csv"] = args.csv
    _emit(make_report("criterion", spec, results, started=started), args.out)
    if args.require_certificate and verdict.verdict == "Inconclusive":
        return 3
    return 0


def cmd_classify(args) -> int:
    from .typeclass import krieger_type, ratio_group

    started = time.monotonic()
    if args.mu0 or args.mu1:
        if not (args.mu0 and args.mu1):
            raise CliError("--mu0 and --mu1 must be given together")
        mu0, mu1 = _parse_measure(args.mu0), _parse_measure(args.mu1)
        results = classify_report(mu0, mu1, args.stable)
        _emit(make_report("classify", None, results, started=started), args.out)
        return 0
    spec = _load_spec(args)
    if not args.element:
        raise CliError("--element is required with --spec/--preset")
    g = _parse_g(spec, args.element)
    values = element_ratio_values(spec, g)
    rg = ratio_group(values)
    results = {
        "g": format_element(g),
        "omega_values": [format_fraction(v) for v in values],
        "ratio_group": repr(rg),
        "type": _type_json(krieger_type(rg)),
    }
    _emit(make_report("classify", spec, results, started=started), args.out)
    return 0


def cmd_simulate(args) -> int:
    from .criteria import mc_omega

    started = time.monotonic()
    spec = _load_spec(args)
    g = _parse_g(spec, args.g)
    results = mc_omega(spec, g, radius=args.window, samples=args.samples,
                       seed=args.seed)
    # the six estimates are the only floats; one that overflowed reads null
    results = {k: _finite_or_none(v) if isinstance(v, float) else v
               for k, v in results.items()}
    report = make_report("simulate", spec, results,
                         seeds=[args.seed], started=started)
    _emit(report, args.out)
    return 0


def cmd_verify(args) -> int:
    started = time.monotonic()
    spec = _load_spec(args)
    _check_radius(args.radius)
    if isinstance(spec.group, FreeGroup):
        grid = [g for g in groups.ball(spec.group, args.radius)
                if not is_identity(g)]
    else:
        grid = [k for k in range(-args.radius, args.radius + 1) if k != 0]
    results = verify_bounds(spec, grid, tol=args.tol)
    _emit(make_report("verify", spec, results, started=started), args.out)
    return 0 if results["n_failed"] == 0 else 2


def cmd_build(args) -> int:
    spec = preset(args.preset, power=args.power)
    payload = spec_to_json(spec)
    text = json.dumps(payload, indent=2)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
        print(json.dumps(make_report(
            "build", spec, {"written": args.out}), indent=2))
    else:
        print(text)
    return 0


def cmd_nonamenable(args) -> int:
    from .criteria import nonamenability_check

    started = time.monotonic()
    spec = _load_spec(args)
    results = nonamenability_check(spec)
    _emit(make_report("nonamenable", spec, results, started=started), args.out)
    return 0


# --- argument parsing --------------------------------------------------------

def _add_spec_flags(p):
    p.add_argument("--spec", help="ActionSpec JSON file")
    p.add_argument("--preset", help="named preset, e.g. f2-wsplit")
    p.add_argument("--power", type=int, default=1, help="diagonal power multiplicity")
    p.add_argument("--out", help="write the JSON report here instead of stdout")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="bernlab",
        description="explicit nonsingular Bernoulli actions: cocycle norms, "
                    "conservativity criteria, type classification",
    )
    ap.add_argument("--version", action="version", version=__version__)
    sub = ap.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("spec", help="validate a spec file")
    p.add_argument("action", choices=["validate"])
    p.add_argument("file")
    p.add_argument("--out")

    p = sub.add_parser("cocycle", help="cocycle norms and growth series")
    p.add_argument("action", choices=["norm", "growth"])
    _add_spec_flags(p)
    p.add_argument("-g", default="e", help='group element, e.g. "a b^-1 a"')
    p.add_argument("--tol", type=float, default=1e-6)
    p.add_argument("--oracle-radius", type=int, default=None)
    p.add_argument("--radius", type=int, default=4)

    p = sub.add_parser("criterion", help="conservative/dissipative verdict")
    _add_spec_flags(p)
    p.add_argument("--kappa", default="auto")
    p.add_argument("--csv", help="dump partial-sum trajectories here")
    p.add_argument("--require-certificate", action="store_true")

    p = sub.add_parser("classify", help="Krieger type and stable type")
    _add_spec_flags(p)
    p.add_argument("--mu0", help='comma list of masses, e.g. "2/3,1/3"')
    p.add_argument("--mu1")
    p.add_argument("--stable", action="store_true")
    p.add_argument("--element", help="classify via omega(g, .) values")

    p = sub.add_parser("simulate", help="Monte Carlo omega estimates")
    _add_spec_flags(p)
    p.add_argument("-g", required=True)
    p.add_argument("--samples", type=int, default=10**5)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--window", type=int, default=64)

    p = sub.add_parser("verify", help="run the inequality suite")
    _add_spec_flags(p)
    p.add_argument("--radius", type=int, default=4)
    p.add_argument("--tol", type=float, default=1e-6)

    p = sub.add_parser("build", help="write a preset spec to JSON")
    p.add_argument("--preset", required=True)
    p.add_argument("--power", type=int, default=1)
    p.add_argument("--out")

    p = sub.add_parser("nonamenable", help="Hellinger sum vs the Kesten norm")
    _add_spec_flags(p)

    return ap


@functools.cache
def _parser() -> argparse.ArgumentParser:
    # built once per process: parse_args keeps no state between calls
    return build_parser()


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
        # looked up at call time, so a rebound cmd_<name> is the one called
        return globals()[f"cmd_{args.cmd}"](args)
    except (CliError, SpecError, groups.GroupError, FileNotFoundError,
            json.JSONDecodeError) as exc:
        print(f"bernlab: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
