"""Seeded operation lists for the benchmark workloads.

Each workload is a fixed list of `bernlab` CLI invocations. The sizes of the
work are fixed; the benchmark seed only picks which inputs fill them in: the
`-g` words, the FreeProductW lambda, the measures given to `classify` and the
Monte Carlo seeds. Words and lambdas come from a finite pool of variants per
workload, so that every input the benchmark can generate has a golden report
captured by `capture_golden.py`. Monte Carlo seeds are free: the Monte Carlo
checks are statistical and do not compare against a captured sample.
"""
from __future__ import annotations

import json
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

WORKLOADS = ("free-group", "z-tails", "special-windows")

# Every benchmark seed maps to one of this many input variants per workload.
N_VARIANTS = 32

LAMBDAS = ("1/4", "1/3", "2/5", "1/2", "3/5", "2/3", "3/4", "4/5")

# Presets each workload builds before its first operation (set-up).
PRESETS = {
    "free-group": ("f2-wsplit",),
    "z-tails": ("explicit-z-sqrt6", "explicit-z", "folner-z"),
    "special-windows": ("f2-dissipative", "f2-dissipative(12)"),
}

# `verify --preset explicit-z` exits 2 with every check failing: the fixed
# 3/5 constant in `verify_bounds` and in the `hellinger_product` tail holds,
# to leading order, only when p(1-p) >= 5/24. The operation stays in
# `z-tails` so the defect keeps showing until it is fixed.
KNOWN_DEFECTS = {
    "verify --preset explicit-z": (
        "exits 2 with all 8 checks failing at radius 4: the 3/5 constant in "
        "verify_bounds and the hellinger_product tail needs p(1-p) >= 5/24"
    ),
}


@dataclass
class Op:
    """One CLI invocation and what its correctness check needs."""

    key: str  # golden key: the argv with generated paths and MC seed elided
    argv: list
    csv: str | None = None  # CSV the operation writes, if any
    spec_file: str | None = None  # generated spec file the operation reads

    @property
    def known_defect(self) -> str | None:
        return KNOWN_DEFECTS.get(self.key)


def _word(rng: random.Random, magnitudes: tuple) -> str:
    """A reduced rank-2 word whose syllable exponents have the given absolute
    values, in random order, with random signs and first generator."""
    gen = rng.choice("ab")
    parts = []
    for m in rng.sample(magnitudes, len(magnitudes)):
        e = m * rng.choice((1, -1))
        parts.append(gen if e == 1 else f"{gen}^{e}")
        gen = "b" if gen == "a" else "a"
    return " ".join(parts)


def _word_of_length(rng: random.Random, length: int) -> str:
    """A uniformly drawn non-backtracking rank-2 word of the given length."""
    letters = []
    while len(letters) < length:
        x = rng.choice(("a", "A", "b", "B"))
        if letters and letters[-1] == x.swapcase():
            continue
        letters.append(x)
    parts = []
    for x in letters:
        e = 1 if x.islower() else -1
        if parts and parts[-1][0] == x.lower():
            parts[-1][1] += e
        else:
            parts.append([x.lower(), e])
    return " ".join(g if e == 1 else f"{g}^{e}" for g, e in parts)


def variant(workload: str, index: int) -> dict:
    """The seeded inputs of one pool variant of a workload."""
    rng = random.Random(f"{workload}/{index}")
    if workload == "free-group":
        return {
            "norm_word": _word_of_length(rng, 4),
            "fpw_lambda": rng.choice(LAMBDAS),
            "fpw_word": _word_of_length(rng, 8),
            "sim_word": _word_of_length(rng, 3),
            "classify_lambda": rng.choice(LAMBDAS),
        }
    if workload == "special-windows":
        # The exponent magnitudes fix the work: the norm bracket and its
        # oracle window depend on them, and every word with magnitudes {1, 2}
        # leaves 258 coordinates in the 256-window Monte Carlo matrix.
        return {
            "norm_words": [_word(rng, (2, 3)), _word(rng, (2, 3))],
            "sim_word": _word(rng, (1, 2)),
            "classify_word": _word(rng, (1, 3)),
        }
    return {}


def pick(workload: str, seed: int) -> tuple[int, int]:
    """(variant index, Monte Carlo seed) for a benchmark seed."""
    rng = random.Random(f"{workload}:{seed}")
    return rng.randrange(N_VARIANTS), rng.randrange(2**31)


def fpw_spec_json(lam: str) -> dict:
    """FreeProductW spec for lambda, built with the public builders."""
    from bernlab.groups import FreeGroup
    from bernlab.marginals import (
        ActionSpec,
        FreeProductW,
        measures_from_lambda,
        spec_to_json,
    )

    mu0, mu1 = measures_from_lambda(Fraction(lam))
    spec = ActionSpec(FreeGroup(2), FreeProductW(mu0, mu1), delta=Fraction(1, 5))
    return spec_to_json(spec)


def lambda_measures(lam: str) -> tuple[str, str]:
    """`--mu0`/`--mu1` arguments for the pair of measures with ratio lambda."""
    from bernlab.exact import format_fraction
    from bernlab.marginals import measures_from_lambda

    mu0, mu1 = measures_from_lambda(Fraction(lam))
    return tuple(",".join(format_fraction(p) for p in mu.probs) for mu in (mu0, mu1))


def make_ops(workload: str, var: dict, mc_seed: int, workdir: Path) -> list[Op]:
    """The operation list of a workload, writing its spec files to workdir."""
    workdir.mkdir(parents=True, exist_ok=True)

    def growth(preset: str, radius: int) -> Op:
        out = str(workdir / f"growth-{preset}-{radius}.csv")
        return Op(f"cocycle growth --preset {preset} --radius {radius}",
                  ["cocycle", "growth", "--preset", preset, "--radius", str(radius),
                   "--out", out], csv=out)

    def plain(text: str) -> Op:
        return Op(text, text.split())

    def simulate(preset: str, g: str, window: int, samples: int) -> Op:
        key = f"simulate --preset {preset} -g {g} --window {window} --samples {samples}"
        return Op(key, ["simulate", "--preset", preset, "-g", g, "--window", str(window),
                        "--samples", str(samples), "--seed", str(mc_seed)])

    if workload == "free-group":
        lam = var["fpw_lambda"]
        spec_path = workdir / f"fpw-{lam.replace('/', '_')}.json"
        spec_path.write_text(json.dumps(fpw_spec_json(lam), indent=2) + "\n")
        mu0, mu1 = lambda_measures(var["classify_lambda"])
        w, fw = var["norm_word"], var["fpw_word"]
        return [
            plain("verify --preset f2-wsplit --radius 5"),
            growth("f2-wsplit", 8),
            Op(f"cocycle norm --preset f2-wsplit -g {w} --oracle-radius 6",
               ["cocycle", "norm", "--preset", "f2-wsplit", "-g", w,
                "--oracle-radius", "6"]),
            Op(f"cocycle norm --spec fpw({lam}) -g {fw}",
               ["cocycle", "norm", "--spec", str(spec_path), "-g", fw],
               spec_file=str(spec_path)),
            simulate("f2-wsplit", var["sim_word"], 4, 100000),
            plain("criterion --preset f2-wsplit"),
            plain("nonamenable --preset f2-wsplit"),
            Op(f"classify --mu0 {mu0} --mu1 {mu1}",
               ["classify", "--mu0", mu0, "--mu1", mu1]),
            Op(f"classify --mu0 {mu0} --mu1 {mu1} --stable",
               ["classify", "--mu0", mu0, "--mu1", mu1, "--stable"]),
        ]
    if workload == "z-tails":
        return [
            growth("explicit-z-sqrt6", 80),
            growth("explicit-z", 30),
            plain("verify --preset explicit-z-sqrt6"),
            plain("verify --preset folner-z"),
            plain("verify --preset explicit-z"),
            growth("folner-z", 1000),
            plain("criterion --preset explicit-z-sqrt6"),
            plain("criterion --preset explicit-z"),
            plain("criterion --preset folner-z"),
        ]
    if workload == "special-windows":
        ops = [
            Op(f"cocycle norm --preset f2-dissipative -g {w} --oracle-radius 2048",
               ["cocycle", "norm", "--preset", "f2-dissipative", "-g", w,
                "--oracle-radius", "2048"])
            for w in var["norm_words"]
        ]
        return ops + [
            simulate("f2-dissipative", var["sim_word"], 256, 100000),
            plain("criterion --preset f2-dissipative"),
            Op("criterion --preset f2-dissipative(12)",
               ["criterion", "--preset", "f2-dissipative(12)"]),
            Op(f"classify --preset f2-dissipative --element {var['classify_word']}",
               ["classify", "--preset", "f2-dissipative", "--element",
                var["classify_word"]]),
        ]
    raise ValueError(f"unknown workload {workload!r}")
