"""Self-test of the benchmark: tracing must not change any report.

Run from the repository root:  python3 -m pytest perfbench -q
"""
from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import layertrace  # noqa: E402
import run  # noqa: E402
from workloads import WORKLOADS, make_ops, variant  # noqa: E402

# cheap operations from each workload
TINY = {
    "free-group": ("cocycle norm", "simulate", "criterion", "nonamenable", "classify"),
    "z-tails": ("criterion",),
    "special-windows": ("classify", "criterion --preset f2-dissipative(12)"),
}


def _tiny_ops(tmp_path):
    ops = []
    for workload, prefixes in TINY.items():
        ops += [op for op in make_ops(workload, variant(workload, 0), 7, tmp_path / workload)
                if op.key.startswith(prefixes)]
    golden = {}
    for workload in WORKLOADS:
        golden.update(run.load_golden(workload)["entries"])
    return ops, golden


def test_traced_reports_equal_untraced(tmp_path):
    import bernlab.cli as cli
    import bernlab.groups as groups

    ops, golden = _tiny_ops(tmp_path)
    mul = groups.mul
    (plain, traced), metrics, table = run.traced(cli, ops, golden, ["f2-wsplit", "folner-z"])
    assert groups.mul is mul, "tracer left a patch installed"
    assert [r.error for r in plain + traced] == [None] * (2 * len(ops))
    for a, b in zip(plain, traced):
        assert (a.rc, a.digest) == (b.rc, b.digest), a.key

    assert set(metrics) == set(run.PER_LAYER)
    for name in ("groups.mul.calls", "marginals.f_value.calls", "groups.word_validations",
                 "cocycles.support_elements.items", "criteria.mc_omega.coord_samples",
                 "folner.build_folner.self_s", "cli.preset.self_s"):
        assert metrics[name] > 0, name
    assert metrics["trace_overhead"] > 0
    for row in table.values():
        assert row["self_s"] <= row["total_s"] + 1e-9


def test_self_time_survives_a_flush_inside_open_spans(monkeypatch):
    ticks = iter(range(10**6))
    monkeypatch.setattr(layertrace, "perf_counter", lambda: float(next(ticks)))

    def table(cap):
        monkeypatch.setattr(layertrace, "SPAN_CAP", cap)
        tracer = layertrace.Tracer()
        inner = tracer._wrap("inner", lambda: None)
        outer = tracer._wrap("outer", lambda: [inner() for _ in range(5)])
        outer()
        outer()
        return tracer.table()

    # each clock read advances one tick: an inner span lasts 1, an outer 11
    expected = {"inner": {"calls": 10, "items": 0, "self_s": 10.0, "total_s": 10.0},
                "outer": {"calls": 2, "items": 0, "self_s": 12.0, "total_s": 22.0}}
    assert table(2) == expected
    assert table(10**6) == expected


def test_benchmark_json_matches_the_harness():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert spec["paths"] == ["perfbench"]
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert any(m["name"] == "setup_s" for m in spec["end_to_end"])


def test_calibration_rescales_by_the_mean_round(monkeypatch):
    import gc

    import calibrate

    assert set(calibrate.MIX) == set(WORKLOADS)
    gc.disable()
    try:
        assert calibrate.one_round("z-tails") > 0
        assert not gc.isenabled(), "a round must restore the collector's state"
    finally:
        gc.enable()
    assert calibrate.one_round("z-tails") > 0 and gc.isenabled()

    rounds = iter([0.5, 0.25, 0.25, 1.0])
    monkeypatch.setattr(calibrate, "one_round", lambda workload: next(rounds))
    cal = calibrate.Calibrator("free-group")
    cal.after(1.0)  # one round: 0.5 s covers 10% of 1 s
    cal.after(10.0)  # rounds until 1 s is covered: 0.25 + 0.25 + 1.0
    assert cal.rounds == [0.5, 0.25, 0.25, 1.0]
    assert cal.scale() == calibrate.ref_round_s("free-group") / 0.5
