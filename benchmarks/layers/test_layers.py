"""Tests for the layer benchmark.

Run from the repository root with
``PYTHONPATH=src python -m pytest benchmarks/layers``; the smoke run
takes about 20 s.
"""

from __future__ import annotations

import json
import shutil
import subprocess

import pytest

import bench
import compare
from rep import streaming_matches_batch
from spans import SpanRecorder, self_seconds

SPEC = json.loads(bench.SPEC_PATH.read_text(encoding="utf-8"))
E2E = {m["name"]: m for m in SPEC["end_to_end"]}
LAYERS = {m["name"]: m for m in SPEC["per_layer"]}


@pytest.fixture(scope="module")
def smoke(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("smoke")
    out = tmp / "ledger.json"
    code = bench.main(["--smoke", "--out", str(out), "--spans", str(tmp)])
    return code, json.loads(out.read_text(encoding="utf-8")), tmp


def test_benchmark_json_matches_the_benchmark():
    assert [w["name"] for w in SPEC["workloads"]] == list(bench.WORKLOADS)
    assert E2E["setup_s"]["bound"] == max(m["bound"] for m in E2E.values())
    assert all(0 < m["bound"] <= 0.25 for m in E2E.values())
    assert len(LAYERS) <= 128 and "cb.other.wall_s" in LAYERS
    for name in LAYERS:
        assert bench.layer_moves(name)


def test_smoke_emits_every_declared_metric(smoke):
    code, ledger, tmp = smoke
    assert code == 0
    assert set(ledger["workloads"]) == set(bench.WORKLOADS)
    for name, entry in ledger["workloads"].items():
        assert entry["failed"] == 0 and entry["attempted"] >= 2, name
        assert entry["digest"] == bench.WORKLOADS[name]["smoke"]["pin"]
        assert set(entry["metrics"]) == set(E2E), name
        for metric, summary in entry["metrics"].items():
            assert summary["unit"] == E2E[metric]["unit"]
            assert summary["median"] > 0, (name, metric)
        assert set(entry["layers"]) == set(LAYERS), name
        assert (tmp / f"spans-{name}.json").is_file()
    # A layer no workload exercises would be a misspelt span name.
    for metric, decl in LAYERS.items():
        if decl["unit"] == "s":
            assert any(entry["layers"][metric] > 0
                       for entry in ledger["workloads"].values()), metric


def test_wrong_pin_fails_every_rep(monkeypatch, capsys, tmp_path):
    monkeypatch.setitem(bench.WORKLOADS["farm-vista"]["smoke"], "pin",
                        "0" * 64)
    out = tmp_path / "ledger.json"
    code = bench.main(["--smoke", "--workload", "farm-vista", "--trace",
                       "0", "--out", str(out)])
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code == 1
    assert result["correct"] is False
    assert result["failed"] == result["attempted"] >= 1
    ledger = json.loads(out.read_text(encoding="utf-8"))
    assert ledger["workloads"]["farm-vista"]["error_rate"] == 1


def _ledger(scale: float = 1.0, failed: int = 0) -> dict:
    """A one-workload ledger with 10% bounds; ``scale`` slows it down."""
    def summary(median):
        values = [median * f for f in (0.99, 0.995, 1.0, 1.005, 1.01)]
        return {"median": median, "q1": values[1], "q3": values[3],
                "n": len(values), "values": values}
    metrics = [dict(m, bound=0.1) for m in SPEC["end_to_end"]]
    return {"metrics": metrics, "workloads": {"study": {
        "attempted": 5, "failed": failed, "error_rate": failed / 5,
        "metrics": {"wall_s": summary(10.0 * scale),
                    "events_per_s": summary(1e5 / scale),
                    "setup_s": summary(0.3)}}}}


def _compare(tmp_path, old, new, capsys):
    paths = []
    for name, ledger in (("old", old), ("new", new)):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(ledger), encoding="utf-8")
        paths.append(str(path))
    code = compare.main(paths)
    return code, capsys.readouterr().out


def test_compare_passes_identical_ledgers(tmp_path, capsys):
    code, out = _compare(tmp_path, _ledger(), _ledger(), capsys)
    assert code == 0
    assert "regressed" not in out and "unresolved" not in out


def test_compare_flags_a_20pct_regression(tmp_path, capsys):
    code, out = _compare(tmp_path, _ledger(), _ledger(scale=1.2), capsys)
    assert code == 1
    rows = {tuple(line.split()[:2]): line.split()[-1]
            for line in out.splitlines()[1:]}
    assert rows[("study", "wall_s")] == "regressed"
    assert rows[("study", "events_per_s")] == "regressed"
    assert rows[("study", "setup_s")] == "ok"
    code, out = _compare(tmp_path, _ledger(scale=1.2), _ledger(), capsys)
    assert code == 0 and "improved" in out


def test_compare_flags_a_higher_error_rate(tmp_path, capsys):
    code, out = _compare(tmp_path, _ledger(), _ledger(failed=1), capsys)
    assert code == 1
    assert any(line.split()[1:2] == ["error_rate"]
               and line.endswith("regressed") for line in out.splitlines())


def test_wide_spread_is_unresolved():
    old = {"median": 10, "q1": 8, "q3": 12, "values": [7, 8, 10, 12, 13]}
    new = {"median": 11, "q1": 9, "q3": 13, "values": [8, 9, 11, 13, 14]}
    assert compare.verdict(old, new, "lower", 0.1)[1] == "unresolved"
    new = {"median": 20, "q1": 18, "q3": 22, "values": [17, 18, 20, 22, 23]}
    assert compare.verdict(old, new, "lower", 0.1)[1] == "regressed"
    assert compare.verdict(old, new, "higher", 0.1)[1] == "improved"


def test_self_time_subtracts_what_children_cover():
    spans = [["rep", 0, 100, None],
             ["a", 10, 40, 0], ["b", 30, 60, 0],   # overlap: union 50
             ["a", 70, 80, 0],
             ["c", 15, 20, 1]]                     # inside the first a
    got = {name: round(s * 1e9) for name, s in self_seconds(spans).items()}
    assert got == {"rep": 100 - 60, "a": (30 - 5) + 10, "b": 30, "c": 5}


def test_span_recorder_records_parents():
    span = SpanRecorder()
    with span("rep"):
        with span("core.index"):
            pass
        with span("core.render"):
            with span("core.values"):
                pass
    names = [(s[0], s[3]) for s in span.spans]
    assert names == [("rep", None), ("core.index", 0), ("core.render", 0),
                     ("core.values", 2)]
    assert all(s[1] <= s[2] for s in span.spans)
    total = self_seconds(span.spans)
    duration = (span.spans[0][2] - span.spans[0][1]) / 1e9
    assert sum(total.values()) == pytest.approx(duration)


def test_streaming_check_ignores_only_the_batch_only_tail():
    head = "Trace: linux/idle, 10 events\n\n"
    common = "=== Summary ===\nrow\n\n=== Origins (Table 3 schema) ===\nx\n"
    batch = head + common + ("\n=== Value adaptivity (Section 4.2) ===\n"
                             "a\n\n=== Inferred nested timeouts ===\nn\n")
    stream = head + common + ("\n=== Value adaptivity (Section 4.2) ===\n"
                              "(unavailable on a streaming analysis)\n")
    assert streaming_matches_batch(stream, batch)
    assert not streaming_matches_batch(stream.replace("row", "rows"), batch)
    assert not streaming_matches_batch(stream.replace("x\n", ""), batch)


@pytest.mark.skipif(shutil.which("ruff") is None, reason="ruff not installed")
def test_ruff_clean():
    result = subprocess.run(["ruff", "check", str(bench.HERE)],
                            capture_output=True, text=True)
    assert result.returncode == 0, result.stdout + result.stderr
