"""Self-test of the ledger, on tiny configurations.

    python -m pytest benchmarks/ledger -q

Checks the machinery, not the numbers: the fold, the determinism of the
call counts, that a wrong pin or a raising body fails the run, that the
metric names are the declared ones, and that ``pins.json`` still equals
the values the repo commits elsewhere.
"""

import dataclasses
import json
import re
import shutil
import subprocess
import sys
from collections import namedtuple
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
for entry in (str(HERE), str(ROOT / "src")):
    if entry not in sys.path:
        sys.path.insert(0, entry)

import compare  # noqa: E402
import fold  # noqa: E402
import run  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

BENCHMARK = run.load_benchmark()
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


@pytest.fixture(scope="module")
def tiny_records():
    """Every workload once, tiny, with the traced pass (two at a time:
    nothing here reads the timings)."""
    with ThreadPoolExecutor(max_workers=2) as pool:
        records = pool.map(
            lambda name: run.run_worker(name, seed=0, seconds=0, trace=True,
                                        tiny=True),
            run.WORKLOAD_NAMES)
        return dict(zip(run.WORKLOAD_NAMES, records))


# -- the fold --------------------------------------------------------------------

def test_every_module_has_exactly_one_layer():
    from repro.lint.layer_dag import LAYERS

    files = sorted((ROOT / "src" / "repro").rglob("*.py"))
    assert files
    for path in files:
        module = fold.module_of(str(path), ROOT / "src")
        assert module and module.startswith("repro"), path
        assert fold.layer_of(module) in LAYERS, module
        assert fold.ledger_layer(module) in fold.LAYERS, module
    assert fold.module_of(__file__, ROOT / "src") is None


Entry = namedtuple("Entry", "code callcount inlinetime calls")
Sub = namedtuple("Sub", "code callcount inlinetime")


def test_foreign_frames_are_charged_to_their_caller():
    import statistics

    from repro.network.fabric import Fabric
    from repro.sim.kernel import Environment

    sim_frame = Environment.timeout.__code__
    network_frame = Fabric.__init__.__code__
    library_frame = statistics.median.__code__      # a non-repro Python frame
    stats = [
        Entry(sim_frame, 2, 1.0, [Sub("<built-in heappush>", 6, 0.5)]),
        Entry("<built-in heappush>", 6, 0.5, None),
        Entry(network_frame, 1, 2.0, [Sub(library_frame, 4, 0.25)]),
        Entry(library_frame, 4, 0.25, [Sub("<built-in sorted>", 4, 0.125)]),
        Entry("<built-in sorted>", 4, 0.125, None),
        Entry("<built-in never-called-by-a-profiled-frame>", 3, 0.0625, None),
    ]
    folded = fold.fold(stats, ROOT / "src")
    assert folded["sim"] == {"self_s": 1.5, "calls": 8}
    assert folded["network"] == {"self_s": 2.375, "calls": 9}
    assert folded["other"] == {"self_s": 0.0625, "calls": 3}
    assert sum(layer["calls"] for layer in folded.values()) == 20


def test_call_counts_repeat_across_fresh_interpreters(tiny_records):
    name = "q6-burst-900"
    again = run.run_worker(name, seed=0, seconds=0, trace=True, tiny=True)
    for record in (tiny_records[name], again):
        assert record["per_layer"]["network.calls"] > 0
    for layer in fold.LAYERS:
        key = f"{layer}.calls"
        assert again["per_layer"][key] == tiny_records[name]["per_layer"][key]


# -- checks ----------------------------------------------------------------------

def test_tiny_runs_pass_every_check(tiny_records):
    for name, record in tiny_records.items():
        attempted, failed = run.check_counts(record)
        assert failed == 0, (name, record["checks"])
        assert any(check.startswith("pin.") for check in record["checks"])
        assert record["checks"]["traced_equals_untraced"] is True
    assert run.exit_code(list(tiny_records.values()), []) == 0


def test_a_mutated_pin_fails_the_run(tmp_path):
    pins = json.loads((HERE / "pins.json").read_text())
    pins["tiny"]["q6-burst-900"]["observed"]["events"] += 1
    mutated = tmp_path / "pins.json"
    mutated.write_text(json.dumps(pins))
    record = run.run_worker("q6-burst-900", seed=0, seconds=0, trace=False,
                            tiny=True, pins=str(mutated))
    attempted, failed = run.check_counts(record)
    assert record["checks"]["pin.events"] is False
    assert failed / attempted > 0
    assert run.exit_code([record], []) != 0


def test_a_raising_body_fails_every_check(monkeypatch):
    def build(seed, tiny, span):
        def body():
            raise RuntimeError("the program broke")
        return body

    name = "q6-burst-900"
    monkeypatch.setitem(
        workloads.WORKLOADS, name,
        dataclasses.replace(workloads.WORKLOADS[name], build=build))
    record = worker.measure({"workload": name, "seed": 0, "seconds": 0,
                             "trace": False, "tiny": True, "pins": None,
                             "started": 0.0})
    attempted, failed = run.check_counts(record)
    assert failed == attempted >= 1
    assert "end_to_end" not in record
    assert run.exit_code([record], []) != 0


def test_disagreeing_repeats_fail_every_check():
    workload = workloads.WORKLOADS["q6-burst-900"]
    checks = worker.evaluate_checks(
        workload, [{"rows": 1, "events": 5}, {"rows": 1, "events": 6}],
        False, {"events": 5}, published=False)
    assert len(checks) >= 3 and not any(checks.values())


def test_replay_kernel_falls_back_when_the_parallel_name_is_gone(monkeypatch):
    import repro.shard as shard

    assert workloads.resolve_replay_kernel() is not shard.run_replay
    monkeypatch.delattr(shard, "run_parallel_replay")
    assert workloads.resolve_replay_kernel() is shard.run_replay


def test_pins_equal_the_values_committed_elsewhere():
    pins = {name: pinned["observed"] for name, pinned in json.loads(
        (HERE / "pins.json").read_text())["full"].items()}
    legacy = ROOT / "benchmarks" / "perf" / "BENCH_PR10.json"
    table = ROOT / "benchmarks" / "results" / "table6_full_scale.txt"
    if not legacy.exists() or not table.exists():
        pytest.skip("the legacy recordings this cross-checks are gone")
    scenarios = json.loads(legacy.read_text())["scenarios"]

    def committed(scenario, mode):
        return scenarios[scenario][mode]["after"]["checks"]

    assert pins["q6-burst-900"] == committed("q6-burst", "full")
    assert pins["serving-mix"] == committed("serving", "full")
    assert pins["tenant-replay"] == committed(
        "sharded-serving-parallel", "full")
    assert pins["tenant-replay"]["digest"] == "fccd0c5927f7590c"
    observed = dict(pins["tenant-replay-observed"])
    assert observed.pop("obs_digest") == "f7dee40716172677"
    assert observed.pop("alerts") == 4
    assert observed == committed("sharded-serving-parallel", "smoke")
    assert observed["digest"] == "07a053f41f28efcd"

    q12 = pins["q12-sf1000"]
    rows = {" ".join(line.split()[:-4]): line.split()[-4:]
            for line in table.read_text().splitlines()[3:]}
    formats = {"FaaS runtime [s]": ("runtime_s", "{:.1f}"),
               "Cumulated time [s]": ("cumulated_s", "{:.1f}"),
               "FaaS cost [c]": ("cost_cents", "{:.2f}"),
               "Break-even [Q/h]": ("break_even_qph", "{:.0f}"),
               "Storage requests": ("requests", "{:,}"),
               "Peak-to-average nodes": ("peak_to_average", "{:.2f}")}
    assert set(rows) == set(formats)
    for label, (key, shape) in formats.items():
        _, q6_measured, _, q12_measured = rows[label]
        assert shape.format(q12[f"q6.{key}"]) == q6_measured, label
        assert shape.format(q12[f"q12.{key}"]) == q12_measured, label


# -- names -----------------------------------------------------------------------

def test_metric_names_are_the_declared_ones(tiny_records):
    declared_e2e = {m["name"] for m in BENCHMARK["end_to_end"]}
    declared_layer = {m["name"] for m in BENCHMARK["per_layer"]}
    for name in declared_e2e | declared_layer | set(run.WORKLOAD_NAMES):
        assert NAME.fullmatch(name), name
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(
        run.WORKLOAD_NAMES)
    assert {f"{layer}.{kind}" for layer in fold.LAYERS
            for kind in ("self_s", "calls")} <= declared_layer

    emitted = set()
    for record in tiny_records.values():
        assert set(record["end_to_end"]) == declared_e2e
        assert set(run.driver_metrics(record, BENCHMARK, "end_to_end")) \
            == declared_e2e
        assert set(run.driver_metrics(record, BENCHMARK, "per_layer")) \
            == declared_layer
        emitted |= set(record["per_layer"])
        printed = run.format_record(record, BENCHMARK)
        for name in declared_e2e | declared_layer:
            assert f"  {name} " in printed, name
    assert emitted <= declared_layer
    # Absent only where they cannot be measured: no paper reference at
    # tiny size, no second core for the forked pool.
    assert declared_layer - emitted <= {"engine.paper_err_pct",
                                        "shard.pool_ratio"}


# -- compare.py ------------------------------------------------------------------

def _set_file(path, walls, failed=0):
    runs = [{"workloads": {"w": {
        "checks": {"a": True, "b": failed == 0},
        "end_to_end": {"wall_s": wall, "units_per_s": 100.0 / wall,
                       "peak_rss_mb": 50.0, "setup_s": 0.3}}}}
        for wall in walls]
    path.write_text(json.dumps({"runs": runs}))
    return str(path)


def test_compare_verdicts(tmp_path, capsys):
    steady = [1.00, 1.01, 0.99, 1.00, 1.02]
    base = _set_file(tmp_path / "a.json", steady)
    same = _set_file(tmp_path / "b.json", [w * 1.03 for w in steady])
    slower = _set_file(tmp_path / "c.json", [w * 1.30 for w in steady])
    noisy = _set_file(tmp_path / "d.json", [1.0, 1.4, 0.8, 1.2, 1.0])
    broken = _set_file(tmp_path / "e.json", steady, failed=1)

    assert compare.main(["compare", base, same]) == 0
    assert "same" in capsys.readouterr().out
    assert compare.main(["compare", base, slower]) == 1
    assert "worse" in capsys.readouterr().out
    assert compare.main(["compare", slower, base]) == 0
    assert "better" in capsys.readouterr().out
    assert compare.main(["compare", base, noisy]) == 0
    assert "unresolved" in capsys.readouterr().out
    assert compare.main(["compare", base, broken]) == 1
    assert "ROSE" in capsys.readouterr().out


# -- the contract's edges --------------------------------------------------------

def test_without_the_program_the_run_fails_and_prints_no_result(tmp_path):
    shutil.copytree(HERE, tmp_path / "benchmarks" / "ledger",
                    ignore=shutil.ignore_patterns("__pycache__", "out"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "benchmarks/ledger/run.py", "--workload",
         "q6-burst-900", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, check=False)
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout


def test_ruff_is_clean():
    ruff = shutil.which("ruff")
    if ruff is None:
        pytest.skip("ruff is not installed here")
    done = subprocess.run([ruff, "check", "benchmarks"], cwd=ROOT,
                          capture_output=True, text=True, check=False)
    assert done.returncode == 0, done.stdout
