"""End-to-end and per-layer benchmark of the `bernlab` CLI.

Usage (from the repository root):

    python3 perfbench/run.py --workload free-group --seed 1 --seconds 40 --trace 0

One client in one process runs the workload's fixed operation list as a
closed loop: each operation is one in-process `bernlab.cli.main(argv)` call,
started when the previous one has returned, the way a researcher runs a batch
of CLI commands. The list is repeated until the next repetition would overrun
`--seconds`; every output is checked against its golden report each time.
Calibration rounds between the operations measure the shared host's speed,
and the timings are reported in seconds at a fixed reference speed (see
`calibrate.py`).

With `--trace 0` the last line of stdout is a JSON object whose metrics are
the end-to-end metrics; with `--trace 1` it runs the list once untraced and
once with every layer wrapped (see `layertrace.py`) and reports per-layer counts
and self times. Human-readable lines and the machine record come before it.
"""
from __future__ import annotations

import argparse
import gzip
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import traceback
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

# One worker per workload on a 2-core machine: numpy must not spawn its own.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "BERNLAB_THREADS")
BLAS_THREADS = "1"
SETUP_SAMPLES = 7
SETUP_ROUNDS = 8

END_TO_END_UNITS = {"wall_s": "s", "slowest_op_s": "s", "setup_s": "s",
                    "peak_rss_mb": "MB", "bracket_rel_width_max": "ratio"}

PER_LAYER = {
    "groups.mul.calls": "count",
    "groups.mul.self_s": "s",
    "groups.inv.calls": "count",
    "groups.sphere.items": "count",
    "groups.word_validations": "count",
    "marginals.f_value.calls": "count",
    "marginals.f_value.self_s": "s",
    "marginals.seq_values.calls": "count",
    "marginals.seq_values.items": "count",
    "marginals.seq_values.items_per_norm": "count",
    "cocycles.norm_sq.calls": "count",
    "cocycles.norm_sq.self_s": "s",
    "cocycles.norm_sq_bruteforce.calls": "count",
    "cocycles.norm_sq_bruteforce.self_s": "s",
    "cocycles.affinity_pairs.calls": "count",
    "cocycles.affinity_pairs.self_s": "s",
    "cocycles.support_elements.items": "count",
    "cocycles.affinity_pairs.useful_ratio": "ratio",
    "kernels.zseq_norm_head.calls": "count",
    "kernels.zseq_norm_head.self_s": "s",
    "kernels.zseq_norm_head.bytes_computed": "bytes",
    "kernels.segment_square_sum.calls": "count",
    "kernels.segment_square_sum.self_s": "s",
    "kernels.segment_square_sum.bytes_computed": "bytes",
    "bump.h_exact.calls": "count",
    "bump.h_exact.self_s": "s",
    "bump.gamma_norm_sq_bounds.self_s": "s",
    "folner.f.calls": "count",
    "folner.f.self_s": "s",
    "folner.build_folner.self_s": "s",
    "criteria.hellinger_product.calls": "count",
    "criteria.hellinger_product.self_s": "s",
    "criteria.negsq_product.calls": "count",
    "criteria.negsq_product.self_s": "s",
    "criteria.products.rounds_per_call": "count",
    "criteria.mc_omega.calls": "count",
    "criteria.mc_omega.self_s": "s",
    "criteria.mc_omega.coord_samples": "count",
    "criteria.classify_conservativity.self_s": "s",
    "criteria.criterion_partial_sums.self_s": "s",
    "typeclass.ratio_group.self_s": "s",
    "typeclass.stable_params.self_s": "s",
    "exact.parse_fraction.calls": "count",
    "cli.verify.self_s": "s",
    "cli.cocycle.self_s": "s",
    "cli.criterion.self_s": "s",
    "cli.classify.self_s": "s",
    "cli.simulate.self_s": "s",
    "cli.nonamenable.self_s": "s",
    "cli.preset.self_s": "s",
    "trace_overhead": "ratio",
}

# Child process timing `import bernlab` plus building the workload's presets
# and spec files, which a CLI user pays on every invocation. It repeats
# build_presets() instead of importing this module, so that none of the
# harness's imports are loaded before the clock starts. After the clock stops
# it times calibration rounds (one warm-up round, then SETUP_ROUNDS) and
# prints the set-up seconds and the mean round.
_SETUP_CHILD = """
import sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import bernlab.cli as cli
from bernlab.marginals import spec_from_json
for name in sys.argv[5:]:
    if name.endswith('.json'):
        with open(name) as fh:
            spec_from_json(fh.read())
    else:
        cli.preset(name)
seconds = time.perf_counter() - t0
sys.path.insert(0, sys.argv[2])
from calibrate import one_round
workload = sys.argv[3]
one_round(workload)
rounds = [one_round(workload) for _ in range(int(sys.argv[4]))]
print(seconds, sum(rounds) / len(rounds))
"""


class BenchError(Exception):
    pass


@dataclass
class OpResult:
    key: str
    seconds: float
    rc: int | None
    error: str | None = None  # exception text or failed check; None when correct
    widths: tuple = ()  # relative widths of the certified brackets
    digest: str = ""  # sha256 of the report without its timing


def _parse_report(stdout: str) -> dict | None:
    try:
        return json.loads(stdout)
    except ValueError:
        return None


def _digest(report: dict | None) -> str:
    untimed = {k: v for k, v in (report or {}).items() if k != "wall_time_s"}
    return hashlib.sha256(json.dumps(untimed, sort_keys=True).encode()).hexdigest()


def run_op(cli, op) -> tuple[float, int | None, str, str | None]:
    """One timed `cli.main(argv)` call: (seconds, exit code, stdout, error)."""
    out, err = io.StringIO(), io.StringIO()
    error = None
    t0 = perf_counter()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            rc = cli.main(op.argv)
    except SystemExit as exc:  # argparse rejects bad arguments this way
        rc = exc.code if isinstance(exc.code, int) else 2
    except Exception:  # an operation that raises is a failed operation
        rc, error = None, traceback.format_exc(limit=3)
    seconds = perf_counter() - t0
    if rc not in (0, None) and not error:
        msg = err.getvalue().strip()
        if msg:
            error = msg
    return seconds, rc, out.getvalue(), error


def run_list(cli, ops, golden: dict, after_op=None) -> list[OpResult]:
    """Run the operation list once and check every output. `after_op` is
    called with each operation's seconds, before its output is checked."""
    from check import CheckError, bracket_rel_widths, check_op

    results = []
    for op in ops:
        seconds, rc, stdout, error = run_op(cli, op)
        if after_op is not None:
            after_op(seconds)
        report = _parse_report(stdout)
        res = OpResult(op.key, seconds, rc, digest=_digest(report))
        gold = golden.get(op.key)
        if gold is None:
            res.error = "no golden entry for this operation"
        elif rc is None:
            res.error = error
        else:
            try:
                check_op(gold, rc, report, op.csv)
            except CheckError as exc:
                res.error = f"{exc}" + (f" [{error}]" if error else "")
        if res.error is None:
            res.widths = tuple(bracket_rel_widths(report, op.csv))
        results.append(res)
    return results


def setup_seconds(workload: str, names: list[str]) -> list[float]:
    """Set-up time, measured SETUP_SAMPLES times in fresh child processes,
    each sample in seconds at the reference speed of its own process."""
    from calibrate import ref_round_s

    samples = []
    for _ in range(SETUP_SAMPLES):
        proc = subprocess.run(
            [sys.executable, "-c", _SETUP_CHILD, str(SRC), str(HERE), workload,
             str(SETUP_ROUNDS), *names],
            capture_output=True, text=True, timeout=120, cwd=ROOT)
        if proc.returncode != 0:
            raise BenchError(f"set-up child failed: {proc.stderr.strip()}")
        seconds, mean_round = map(float, proc.stdout.split()[-2:])
        samples.append(seconds * ref_round_s(workload) / mean_round)
    return samples


def load_golden(workload: str) -> dict:
    path = HERE / "golden" / f"{workload}.json.gz"
    with gzip.open(path, "rt") as fh:
        return json.load(fh)


def machine_record(args, variant: int, mc_seed: int) -> dict:
    import importlib.util

    import numpy

    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "numba_present": importlib.util.find_spec("numba") is not None,
        "blas_threads": BLAS_THREADS,
        "seed": args.seed,
        "variant": variant,
        "mc_seed": mc_seed,
        "workload": args.workload,
        "platform": platform.platform(),
    }


def _summary(results: list[list[OpResult]]):
    """(attempted, failed checks, failed in the wider sense that also counts a
    non-zero exit, messages)."""
    flat = [r for rep in results for r in rep]
    failed = [r for r in flat if r.error is not None]
    nonzero = sum(r.error is not None or r.rc != 0 for r in flat)
    return len(flat), len(failed), nonzero, [f"{r.key}: {r.error}" for r in failed]


def end_to_end(cli, ops, golden, seconds: float, setup: list[float], workload: str):
    """Repeat the list until the next repetition would end after `seconds`.

    The first repetition warms the program's caches and the allocator (on
    `z-tails` it runs about 25% slower than the rest) and is checked but not
    timed. Each operation counts with its mean over the other repetitions,
    rescaled to the reference speed by the calibration rounds run after each
    operation: the host's speed changes over minutes (see NOTES.md), and the
    rounds measure it at the same moments as the program. Returns every
    repetition, warm-up first, the metrics and the scale.
    """
    from calibrate import Calibrator, one_round

    t0 = perf_counter()
    reps: list[list[OpResult]] = [run_list(cli, ops, golden)]
    one_round(workload)
    elapsed = [perf_counter() - t0]  # per repetition, checks and calibration included
    cal = Calibrator(workload)
    while True:
        t0 = perf_counter()
        reps.append(run_list(cli, ops, golden, after_op=cal.after))
        elapsed.append(perf_counter() - t0)
        if sum(elapsed) + statistics.median(elapsed) > seconds:
            break
    scale = cal.scale()
    mean = [statistics.fmean(r.seconds for r in rep_op) for rep_op in zip(*reps[1:])]
    widths = [w for rep in reps for r in rep for w in r.widths]
    metrics = {
        "wall_s": scale * sum(mean),
        "slowest_op_s": scale * max(mean),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "bracket_rel_width_max": max(widths, default=0.0),
    }
    return reps, metrics, scale


def layer_metrics(table: dict, tracer, overhead: float) -> dict:
    def get(fn, stat):
        row = table.get(fn)
        if stat in ("calls", "items", "self_s"):
            return row[stat] if row else 0
        return tracer.extra.get(f"{fn}.{stat}", 0)

    def ratio(a, b):
        return a / b if b else 0.0

    special = {
        "groups.word_validations": tracer.word_validations,
        "marginals.seq_values.items_per_norm": ratio(
            get("marginals.seq_values", "items"), get("cocycles.norm_sq", "calls")),
        "cocycles.affinity_pairs.useful_ratio": ratio(
            tracer.useful_pairs, tracer.visited_points),
        "criteria.products.rounds_per_call": ratio(
            get("cocycles.affinity_pairs", "calls"),
            get("criteria.hellinger_product", "calls")
            + get("criteria.negsq_product", "calls")),
        "trace_overhead": overhead,
    }
    out = {}
    for name in PER_LAYER:
        if name in special:
            out[name] = special[name]
        else:
            fn, stat = name.rsplit(".", 1)
            out[name] = get(fn, stat)
    return out


def traced(cli, ops, golden, presets: list[str]):
    """One untraced and one traced pass; per-layer metrics of the traced one."""
    from layertrace import Tracer

    plain = run_list(cli, ops, golden)
    tracer = Tracer()
    tracer.install()
    try:
        with tracer.span("setup"):
            build_presets(cli, presets)
        tracer.flush()
        rep = run_list(cli, ops, golden, after_op=lambda _seconds: tracer.flush())
    finally:
        tracer.uninstall()
    wall_plain = sum(r.seconds for r in plain)
    wall_traced = sum(r.seconds for r in rep)
    table = tracer.table()
    return [plain, rep], layer_metrics(table, tracer, wall_traced / wall_plain), table


def build_presets(cli, names: list[str]) -> None:
    from bernlab.marginals import spec_from_json

    for name in names:
        if name.endswith(".json"):
            spec_from_json(Path(name).read_text())
        else:
            cli.preset(name)


def parse_args(argv=None):
    from workloads import WORKLOADS

    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def main(argv=None) -> int:
    sys.path.insert(0, str(HERE))
    args = parse_args(argv)
    if not (SRC / "bernlab" / "__init__.py").is_file():
        print(f"perfbench: no bernlab sources under {SRC}", file=sys.stderr)
        return 2
    for var in THREAD_VARS:
        os.environ[var] = BLAS_THREADS
    os.environ.pop("BERNLAB_NO_NUMBA", None)
    sys.path.insert(0, str(SRC))
    os.environ["PYTHONPATH"] = str(SRC)

    import bernlab.cli as cli
    from workloads import PRESETS, make_ops, pick, variant

    var_index, mc_seed = pick(args.workload, args.seed)
    golden = load_golden(args.workload)["entries"]
    scratch = ROOT / ".perfbench_work"
    scratch.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=scratch))
    try:
        ops = make_ops(args.workload, variant(args.workload, var_index), mc_seed, workdir)
        presets = list(PRESETS[args.workload]) + [op.spec_file for op in ops if op.spec_file]
        build_presets(cli, presets)
        scale = None
        if args.trace:
            reps, metrics, table = traced(cli, ops, golden, presets)
            units = PER_LAYER
            (scratch / f"trace-{args.workload}.json").write_text(
                json.dumps(table, indent=1, sort_keys=True) + "\n")
        else:
            t0 = perf_counter()
            setup = setup_seconds(args.workload, presets)
            budget = args.seconds - (perf_counter() - t0)
            reps, metrics, scale = end_to_end(cli, ops, golden, budget, setup, args.workload)
            units = END_TO_END_UNITS
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted, failed, ops_failed, messages = _summary(reps)
    print(f"perfbench {args.workload}: {len(reps)} repetition(s) of {len(ops)} operations")
    for name, value in metrics.items():
        print(f"  {name:<42} {value:>14.6g} {units[name]}")
    if scale is not None:
        print(f"  host speed: measured seconds x {scale:.4f} = seconds at the reference speed")
    print(f"  {'ops_failed_frac':<42} {ops_failed / attempted:>14.6g} ratio"
          f"  ({ops_failed} of {attempted} raised, exited non-zero or failed"
          f" the check; {failed} failed the check)")
    for op in ops:
        if op.known_defect:
            print(f"  known defect: {op.key}: {op.known_defect}")
    first = "untimed warm-up" if scale is not None else "untraced"
    print(f"  repetition walls (s), measured, {first} first: " + " ".join(
        f"{sum(r.seconds for r in rep):.4f}" for rep in reps))
    for rep_ops in zip(*reps):
        times = [r.seconds for r in rep_ops]
        print(f"  op  measured min {min(times):9.4f} s  median"
              f" {statistics.median(times):9.4f} s  {rep_ops[0].key}")
    for msg in messages[:20]:
        print(f"  FAILED {msg}", file=sys.stderr)
    print("machine " + json.dumps(machine_record(args, var_index, mc_seed)))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
