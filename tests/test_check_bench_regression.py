"""The bench-regression guardrail script's failure-mode handling.

The comparison logic itself is exercised by CI on real benchmark output;
these tests pin the explicit handling of broken inputs -- above all a
missing or empty *current* results file, which happens whenever the
benchmark run dies before ``--benchmark-json`` writes anything.
"""

from __future__ import annotations

import importlib.util
import json
import os

import pytest

_SCRIPT = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    "scripts",
    "check_bench_regression.py",
)


def _load_script():
    spec = importlib.util.spec_from_file_location("check_bench_regression", _SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def script():
    return _load_script()


def _bench(fullname: str, mean: float, **extra_info) -> dict:
    return {"fullname": fullname, "stats": {"mean": mean}, "extra_info": extra_info}


def _write(path, benchmarks) -> str:
    path.write_text(json.dumps({"benchmarks": benchmarks}))
    return str(path)


class TestBrokenInputs:
    def test_missing_current_file_exits_with_a_clear_message(self, script, tmp_path):
        baseline = _write(tmp_path / "baseline.json", [_bench("a", 1.0)])
        with pytest.raises(SystemExit, match="cannot read the current results file"):
            script.main([baseline, str(tmp_path / "does_not_exist.json")])

    def test_empty_current_file_exits_with_a_clear_message(self, script, tmp_path):
        baseline = _write(tmp_path / "baseline.json", [_bench("a", 1.0)])
        current = tmp_path / "current.json"
        current.write_text("")
        with pytest.raises(SystemExit, match="is empty"):
            script.main([baseline, str(current)])

    def test_truncated_json_exits_with_a_clear_message(self, script, tmp_path):
        baseline = _write(tmp_path / "baseline.json", [_bench("a", 1.0)])
        current = tmp_path / "current.json"
        current.write_text('{"benchmarks": [')
        with pytest.raises(SystemExit, match="not valid JSON"):
            script.main([baseline, str(current)])

    def test_payload_without_benchmarks_key_is_rejected(self, script, tmp_path):
        baseline = _write(tmp_path / "baseline.json", [_bench("a", 1.0)])
        current = tmp_path / "current.json"
        current.write_text("{}")
        with pytest.raises(SystemExit, match="no 'benchmarks' key"):
            script.main([baseline, str(current)])

    def test_zero_recorded_benchmarks_is_rejected(self, script, tmp_path):
        baseline = _write(tmp_path / "baseline.json", [_bench("a", 1.0)])
        current = _write(tmp_path / "current.json", [])
        with pytest.raises(SystemExit, match="contains no benchmarks"):
            script.main([baseline, str(current)])

    def test_missing_baseline_names_the_baseline_role(self, script, tmp_path):
        current = _write(tmp_path / "current.json", [_bench("a", 1.0)])
        with pytest.raises(SystemExit, match="cannot read the baseline results file"):
            script.main([str(tmp_path / "gone.json"), current])


class TestComparison:
    def test_clean_run_passes(self, script, tmp_path, capsys):
        baseline = _write(tmp_path / "baseline.json", [_bench("a", 1.0)])
        current = _write(tmp_path / "current.json", [_bench("a", 1.05)])
        assert script.main([baseline, current]) == 0
        assert "passed" in capsys.readouterr().out

    def test_regression_fails(self, script, tmp_path, capsys):
        baseline = _write(tmp_path / "baseline.json", [_bench("a", 1.0)])
        current = _write(tmp_path / "current.json", [_bench("a", 2.0)])
        assert script.main([baseline, current]) == 1
        assert "REGRESSION" in capsys.readouterr().out

    def test_benchmark_missing_from_current_run_fails(self, script, tmp_path, capsys):
        baseline = _write(
            tmp_path / "baseline.json", [_bench("a", 1.0), _bench("b", 1.0)]
        )
        current = _write(tmp_path / "current.json", [_bench("a", 1.0)])
        assert script.main([baseline, current]) == 1
        assert "missing" in capsys.readouterr().out

    def test_speedup_floor_enforced(self, script, tmp_path):
        baseline = _write(
            tmp_path / "baseline.json", [_bench("a", 1.0, speedup_vs_reference=70.0)]
        )
        current = _write(
            tmp_path / "current.json", [_bench("a", 1.0, speedup_vs_reference=5.0)]
        )
        assert script.main([baseline, current]) == 1

    def test_service_warm_vs_cold_floor_enforced(self, script, tmp_path):
        baseline = _write(
            tmp_path / "baseline.json", [_bench("svc", 1.0, warm_vs_cold_speedup=1500.0)]
        )
        current = _write(
            tmp_path / "current.json", [_bench("svc", 1.0, warm_vs_cold_speedup=3.0)]
        )
        assert script.main([baseline, current]) == 1

    def test_deep_compile_floor_enforced(self, script, tmp_path, capsys):
        baseline = _write(
            tmp_path / "baseline.json", [_bench("compile", 1.0, deep_compile_speedup=20.0)]
        )
        slow = _write(
            tmp_path / "slow.json", [_bench("compile", 1.0, deep_compile_speedup=8.0)]
        )
        assert script.main([baseline, slow]) == 1
        assert "deep_compile_speedup fell to 8.0x (floor 10x)" in capsys.readouterr().out
        fast = _write(
            tmp_path / "fast.json", [_bench("compile", 1.0, deep_compile_speedup=12.0)]
        )
        assert script.main([baseline, fast]) == 0

    def test_dropping_a_recorded_speedup_key_fails(self, script, tmp_path, capsys):
        baseline = _write(
            tmp_path / "baseline.json", [_bench("svc", 1.0, warm_vs_cold_speedup=1500.0)]
        )
        current = _write(tmp_path / "current.json", [_bench("svc", 1.0)])
        assert script.main([baseline, current]) == 1
        assert "floor check was skipped" in capsys.readouterr().out

    def test_current_only_benchmark_floor_enforced(self, script, tmp_path, capsys):
        """A bench absent from the baseline still has its floor checked.

        The compiled-kernel benches skip without numba, so a baseline
        regenerated on a numba-less machine omits them entirely; their
        self-relative speedup floors must bind wherever the bench does
        run (the numba CI leg).
        """
        baseline = _write(tmp_path / "baseline.json", [_bench("a", 1.0)])
        current = _write(
            tmp_path / "current.json",
            [_bench("a", 1.0), _bench("dag", 1.0, dag_compiled_speedup=1.2)],
        )
        assert script.main([baseline, current]) == 1
        assert "dag_compiled_speedup fell to 1.2x" in capsys.readouterr().out

    def test_current_only_benchmark_clearing_its_floor_passes(self, script, tmp_path):
        baseline = _write(tmp_path / "baseline.json", [_bench("a", 1.0)])
        current = _write(
            tmp_path / "current.json",
            [
                _bench("a", 1.0),
                _bench("dag", 1.0, dag_compiled_speedup=5.5),
                _bench("hier", 1.0, hier_compiled_speedup=3.0, hier_parallel_speedup=4.0),
            ],
        )
        assert script.main([baseline, current]) == 0

    def test_network_slowdown_ceiling_enforced(self, script, tmp_path, capsys):
        baseline = _write(
            tmp_path / "baseline.json",
            [_bench("net", 1.0, network_vs_analytic_slowdown=2.2)],
        )
        slow = _write(
            tmp_path / "slow.json",
            [_bench("net", 1.0, network_vs_analytic_slowdown=3.1)],
        )
        assert script.main([baseline, slow]) == 1
        assert "network_vs_analytic_slowdown rose to 3.10x" in capsys.readouterr().out
        fast = _write(
            tmp_path / "fast.json",
            [_bench("net", 1.0, network_vs_analytic_slowdown=2.5)],
        )
        assert script.main([baseline, fast]) == 0

    def test_dropping_the_network_slowdown_key_fails(self, script, tmp_path, capsys):
        baseline = _write(
            tmp_path / "baseline.json",
            [_bench("net", 1.0, network_vs_analytic_slowdown=2.2)],
        )
        current = _write(tmp_path / "current.json", [_bench("net", 1.0)])
        assert script.main([baseline, current]) == 1
        assert "ceiling check was skipped" in capsys.readouterr().out
