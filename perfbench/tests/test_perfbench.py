"""Tests of the benchmark itself.  Run from the repository root:

    python3 -m pytest perfbench/tests
"""

from __future__ import annotations

import json
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import checkout  # noqa: E402
import tracing  # noqa: E402

checkout.require_src()
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _run(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_smoke_pass_prints_every_metric_with_its_unit(trace, section):
    proc = _run("--workload", "quick-suites", "--seed", "3", "--seconds", "0", "--trace", str(trace))
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 18
    units = {name: m["unit"] for name, m in result["metrics"].items()}
    assert units == {m["name"]: m["unit"] for m in SPEC[section]}
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())


def _bindings():
    return {(id(owner), attr): vars(owner)[attr]
            for t in tracing.TARGETS for owner, attr, _ in tracing._resolve(t)}


def test_traced_run_wraps_every_target_and_restores_it(tmp_path):
    from enrq import fibers

    before = _bindings()
    tracer = tracing.Tracer()
    with pytest.raises(RuntimeError, match="stop"), tracer:
        assert all(now is not before[key] for key, now in _bindings().items())
        fibers.lefschetz_check("I2", 2)
        raise RuntimeError("stop")
    after = _bindings()
    assert all(after[key] is original for key, original in before.items())

    calls = dict(zip((t.name for t in tracer.targets), tracer.calls))
    # fixed_euler is reached only through lefschetz_check's module lookup
    assert calls["fibers.lefschetz_check"] == 1 and calls["fibers.fixed_euler"] > 0
    tracer.write_spans(tmp_path / "spans")
    spans = tracing.read_spans(tmp_path / "spans")
    assert len(spans) == sum(tracer.calls) - calls["gf.GF.elements"]
    top = [s for s in spans if s[3] == -1]
    assert [s[0] for s in top] == ["fibers.lefschetz_check"]
    assert all(spans[s[3]][0] == "fibers.lefschetz_check" for s in spans if s[0] == "fibers.fixed_euler")
    total = top[0][2] - top[0][1]
    assert sum(tracer.self_s) == pytest.approx(total)


def test_missing_target_fails_instead_of_reporting_zero():
    with pytest.raises(LookupError, match="gf.GF.no_such_method"):
        tracing.Tracer([tracing.Target("gf.GF.no_such_method", "nothing")])
    # configs imports exact_det by name: tracing only lattice's binding would miss those calls
    with pytest.raises(LookupError, match="enrq.configs.exact_det"):
        tracing.Tracer([tracing.Target("lattice.exact_det", "nothing")])


def test_host_speed_sampling_runs_during_a_pass_and_cleans_up():
    import run

    before = signal.getsignal(signal.SIGALRM)
    with run.HostSpeed() as host:
        deadline = time.perf_counter() + 0.3
        while time.perf_counter() < deadline:
            pass
    assert len(host.samples) >= 2
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def test_run_fails_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _run("--workload", "quick-suites", "--seed", "1", "--seconds", "1", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
