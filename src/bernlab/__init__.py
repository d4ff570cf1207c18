"""Explicit nonsingular Bernoulli actions: cocycle norms with certified
error, conservative/dissipative criteria, and exact type classification.

Names are imported from their modules (`bernlab.marginals`, `bernlab.cli`,
...); the package namespace holds only `__version__`.

A module imports at module level only what every command that loads it runs.
The rest is imported inside the function that calls it, never inside a
per-point or per-word function, so a command loads only the modules it runs:
- numpy (tens of milliseconds, more while OpenBLAS starts its threads) in the
  functions that compute with it, and concurrent.futures in `mc_omega`; no
  constructor builds an array;
- `cocycles`, `criteria` and `typeclass` in the CLI commands that call them;
- `bump` and `folner` in the constructors of the families built on them.
No module uses `dataclasses`, whose import and class creation took a third of
the start-up: the value classes derive `exact.Record` instead.
"""

__version__ = "1.0.0"
