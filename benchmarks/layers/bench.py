#!/usr/bin/env python3
"""Layer-by-layer benchmark of the timer-study pipeline.

Four workloads, each a batch job run in a closed loop with one client:
every rep is a fresh process (``rep.py``), one at a time, and the next
rep starts when the previous one has exited.  Reps are interleaved
round-robin across the selected workloads.  After the timed reps, one
traced rep per workload records spans around each layer's public calls
and reports the per-layer split.  ``BENCHMARK.json`` at the repository
root declares the workloads and every metric's unit, direction and
bound; ``README.md`` beside this file explains them.

Run from the repository root::

    python3 benchmarks/layers/bench.py --seed 0 --out benchmarks/layers/results.json
    python3 benchmarks/layers/bench.py --workload farm-linux --seed 3 --seconds 20 --trace 0
    python3 benchmarks/layers/bench.py --smoke

The last stdout line is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``,
the per-layer metrics with ``--trace 1``.  With one workload selected
``metrics`` maps metric name to ``{"value", "unit"}``; with several it
is keyed by workload first.  Exit status is 1 when any rep failed a
check, 2 when the repository's sources or ``BENCHMARK.json`` are absent.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SPEC_PATH = ROOT / "BENCHMARK.json"
OUT_DIR = HERE / "out"

#: Parameters and seed-0 output digests per size.  The full study pin
#: is the repository's study sha256; the others were recorded when the
#: benchmark was written.  Other seeds are checked for agreement
#: between every rep of a run, traced and untraced.
#:
#: ``rep_s`` is a full-size rep's nominal wall time on a 2-vCPU VM.
#: ``--seconds S`` runs ceil(S / rep_s) reps of each workload, so every
#: run of a workload takes the same number of reps however fast the
#: machine or the code is: a median of 2 and a median of 3 reps differ
#: systematically when interference only ever adds time.
WORKLOADS = {
    "study": {
        "rep_s": 12.5,
        "full": {"params": {"minutes": 2.0, "jobs": 2},
                 "pin": "f82955d05db9dea00c4c34cbdb6a1369"
                        "fb0ab58c395a8ceedc489a0947f5035e"},
        "smoke": {"params": {"minutes": 0.2, "jobs": 2},
                  "pin": "52c340e6a363e49b4292beb25197b16d"
                         "0d6d25cbf2377dbb44c1298a68216562"},
    },
    "farm-linux": {
        "rep_s": 8.5,
        "full": {"params": {"os": "linux", "connections": 100_000,
                            "seconds": 2.0},
                 "pin": "6d59ed3764fe61cf936c7c9a64671458"
                        "2100e880edba48e77107894cd5c6df2b"},
        "smoke": {"params": {"os": "linux", "connections": 2_000,
                             "seconds": 1.0},
                  "pin": "6eb440563ba3b7c3e00d8e74990a48c9"
                         "702e336db646cce32b059f0055e500c4"},
    },
    "farm-vista": {
        "rep_s": 7.0,
        "full": {"params": {"os": "vista", "connections": 100_000,
                            "seconds": 2.0},
                 "pin": "655153549352cae4a71454352a19041a"
                        "1b7a97f4aa33ad3137c34f2164f3bccd"},
        "smoke": {"params": {"os": "vista", "connections": 2_000,
                             "seconds": 1.0},
                  "pin": "f60e92c0c915f97c5a3e9e4a673f9e5b"
                         "8138d953a24173e42fe0a7ddc22c0474"},
    },
    "replay": {
        "rep_s": 3.0,
        "full": {"params": {"minutes": 1.0},
                 "pin": "e1a9f8b4ddb986a1cd0a1300ab8137ae"
                        "6a1ff4885966a4b818e45687205cb59c"},
        "smoke": {"params": {"minutes": 0.2},
                  "pin": "423a562b61ccdd809478c34fabe43a92"
                         "c8eff15903de50401e71b4c371e4fa73"},
    },
}

#: What each per-layer metric should move, by name prefix (the longest
#: matching prefix applies).  Written into the ledger and the README.
LAYER_MOVES = {
    "kern.setup_s": "setup_s on farm-linux and farm-vista",
    "sim.": "wall_s and events_per_s on both farms and on study",
    "cb.": "wall_s and events_per_s on the farm of the label's backend; "
           "the other farm should not move",
    "linuxkern.": "nothing on its own; explains farm-linux's per-event "
                  "growth",
    "vistakern.": "nothing on its own; explains farm-vista's per-event "
                  "cost",
    "workloads.": "wall_s on study",
    "tracing.open_s": "wall_s and events_per_s on replay",
    "tracing.hydrate_s": "wall_s and events_per_s on replay",
    "tracing.write_s": "wall_s and events_per_s on replay",
    "tracing.v2_bytes": "wall_s on replay (bytes mapped and written)",
    "tracing.records_": "nothing; study's relay/ETW accounting",
    "tracing.conservation_violations": "correct/failed on study",
    "core.": "wall_s and events_per_s on study and replay, nothing on "
             "the farms",
    "core.streaming.": "wall_s and events_per_s on replay",
    "core.streaming.heap_peak_mib": "nothing; the retained-heap evidence "
                                    "for ROADMAP item 4",
    "core.shard.": "nothing; analyze --jobs 2 against serial analyze, "
                   "the input ROADMAP item 2 needs",
    "trace_overhead_pct": "nothing; the cost of the traced run itself",
}

#: Set-up is sampled at least this often per workload and run; reps
#: that do not reach it are topped up with set-up-only children.  With
#: 7 samples the quartiles exclude the extremes (imports are noisy).
MIN_SETUPS = 7
#: One child may not outlive this; a run must end within 180 s.
CHILD_TIMEOUT_S = 150


def run_child(spec: dict):
    """Run ``rep.py`` with ``spec``; its result dict, or ``None`` if it
    failed.  The child gets its own process group so that any pool
    workers it leaves behind are killed with it."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "rep.py"), json.dumps(spec)],
        cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, start_new_session=True)
    try:
        out, err = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        out, err = "", f"timed out after {CHILD_TIMEOUT_S} s"
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()
    lines = out.strip().splitlines()
    if proc.returncode == 0 and lines:
        try:
            return json.loads(lines[-1])
        except json.JSONDecodeError:
            pass
    print(f"bench: {spec['workload']} {spec['mode']} rep failed "
          f"(exit {proc.returncode}):\n{err[-2000:]}", file=sys.stderr)
    return None


def summarize(values: list) -> dict:
    """Median, quartiles (``statistics.quantiles``, n=4) and count."""
    if len(values) > 1:
        q1, median, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = median = q3 = values[0]
    return {"median": median, "q1": q1, "q3": q3, "n": len(values),
            "values": values}


def layer_moves(name: str) -> str:
    best = max((prefix for prefix in LAYER_MOVES if name.startswith(prefix)),
               key=len)
    return LAYER_MOVES[best]


class Workload:
    """Every rep of one workload in one run, and what they add up to."""

    def __init__(self, name: str, size: str, args, work_dir: Path):
        self.name = name
        self.params = WORKLOADS[name][size]["params"]
        if args.smoke:
            self.reps = 1
        elif args.seconds is not None:
            self.reps = max(1, math.ceil(args.seconds
                                         / WORKLOADS[name]["rep_s"]))
        else:
            self.reps = args.reps
        self.pin = WORKLOADS[name][size]["pin"] if args.seed == 0 else None
        self.seed = args.seed
        self.work_dir = work_dir
        self.inputs = None
        self.timed: list[dict] = []     # untraced reps, as the user runs them
        self.checked: list[dict] = []   # every rep whose output is checked
        self.setups: list[float] = []
        self.crashed = 0
        self.traced = None
        self.serial = None              # study at jobs 1, untraced

    def spec(self, mode: str, **extra) -> dict:
        spec = {"workload": self.name, "mode": mode, "seed": self.seed,
                "params": self.params, "work_dir": str(self.work_dir),
                "inputs": self.inputs}
        spec.update(extra)
        return spec

    def child(self, mode: str, **extra):
        result = run_child(self.spec(mode, **extra))
        if result is None:
            self.crashed += 1
        elif mode != "traced":
            self.setups.append(result["setup_s"])
        if result is not None and "digest" in result:
            self.checked.append(result)
        return result

    def prepare(self) -> None:
        if self.name == "replay":
            result = run_child(self.spec("prepare"))
            if result is None:
                self.crashed += 1
            else:
                self.inputs = result["inputs"]

    def timed_rep(self) -> None:
        if self.name == "replay" and self.inputs is None:
            return
        result = self.child("timed")
        if result is not None:
            self.timed.append(result)

    def traced_rep(self, spans_dir: Path) -> None:
        if self.name == "replay" and self.inputs is None:
            return
        params = self.params
        if self.name == "study":
            # The traced study is serial: the profiler sees every engine
            # only in-process.  The untraced serial rep is its baseline.
            params = dict(params, jobs=1)
            self.serial = self.child("timed", params=params)
        self.traced = self.child(
            "traced", params=params,
            spans=str(spans_dir / f"spans-{self.name}.json"))

    # -- results ----------------------------------------------------------

    @property
    def reference(self):
        if self.pin is not None:
            return self.pin
        return self.checked[0]["digest"] if self.checked else None

    @property
    def attempted(self) -> int:
        return len(self.checked) + self.crashed

    @property
    def failed(self) -> int:
        reference = self.reference
        return self.crashed + sum(
            1 for r in self.checked
            if r["digest"] != reference or not all(r["checks"].values()))

    def end_to_end(self) -> dict:
        reps = self.timed
        if not reps:
            return {}
        return {
            "wall_s": summarize([r["wall_s"] for r in reps]),
            "events_per_s": summarize([r["events"] / r["wall_s"]
                                       for r in reps]),
            "peak_rss_mib": summarize([r["peak_rss_mib"] for r in reps]),
            "setup_s": summarize(self.setups),
        }

    def per_layer(self, declared: list) -> dict:
        """Declared per-layer metrics; a layer this workload does not
        exercise reads 0, and profiler labels that are not declared
        fold into ``cb.other.wall_s``."""
        layers = dict.fromkeys(declared, 0.0)
        if self.traced is None or not self.timed:
            return layers
        for name, value in self.traced["layers"].items():
            if name in layers:
                layers[name] = value
            elif name.startswith("cb."):
                layers["cb.other.wall_s"] += value

        def median_phase(key):
            return statistics.median(r["phases"][key] for r in self.timed)

        events = statistics.median(r["events"] for r in self.timed)
        baseline = statistics.median(r["wall_s"] for r in self.timed)
        if self.name == "study" and self.serial is not None:
            jobs1 = self.serial["phases"]["run_s"]
            jobs2 = median_phase("run_s")
            baseline = self.serial["wall_s"]
            layers.update({
                "workloads.study_jobs1_s": jobs1,
                "workloads.study_jobs2_s": jobs2,
                "workloads.parallel_speedup": jobs1 / jobs2,
                "core.analyze_events_per_s":
                    events / median_phase("analyze_s"),
            })
        if self.name == "replay":
            layers["core.analyze_events_per_s"] = \
                events / median_phase("batch_s")
            layers["core.streaming.events_per_s"] = \
                events / median_phase("stream_s")
            layers["core.shard.speedup"] = (
                layers["core.shard.jobs1_s"] / layers["core.shard.jobs2_s"])
        layers["trace_overhead_pct"] = \
            100.0 * (self.traced["wall_s"] - baseline) / baseline
        return layers

    def ledger(self, spec: dict) -> dict:
        why = {w["name"]: w["why"] for w in spec["workloads"]}
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
        entry = {
            "why": why[self.name], "params": self.params, "seed": self.seed,
            "pin": self.pin, "digest": self.reference,
            "attempted": self.attempted, "failed": self.failed,
            "error_rate": self.failed / max(1, self.attempted),
            "metrics": {name: dict(summary, unit=units[name])
                        for name, summary in self.end_to_end().items()},
        }
        if self.traced is not None:
            entry["layers"] = self.per_layer(
                [m["name"] for m in spec["per_layer"]])
        return entry


def parse_args(argv):
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0],
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", action="append", choices=WORKLOADS,
                        help="workload to run (repeatable; default: all)")
    parser.add_argument("--seed", type=int, default=0,
                        help="the only input: seeds every simulation")
    parser.add_argument("--reps", type=int, default=7,
                        help="timed reps per workload (default 7)")
    parser.add_argument("--seconds", type=float, default=None,
                        help="instead of --reps: about this many seconds "
                             "of reps per workload (see WORKLOADS)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=1,
                        help="1 (default): add the traced rep and report "
                             "per-layer metrics; 0: timed reps only")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes, one rep: runs every check fast")
    parser.add_argument("--out", default=None,
                        help="write the full ledger (JSON) here")
    parser.add_argument("--spans", default=str(OUT_DIR),
                        help="directory for the traced reps' spans")
    return parser.parse_args(argv)


def report(ledgers: dict, file=sys.stderr) -> None:
    for name, entry in ledgers.items():
        print(f"\n{name}: {entry['attempted']} reps checked, "
              f"{entry['failed']} failed, digest {str(entry['digest'])[:12]}",
              file=file)
        for metric, s in entry["metrics"].items():
            print(f"  {metric:<14} {s['median']:>14.4f} {s['unit']:<6} "
                  f"q1 {s['q1']:.4f}  q3 {s['q3']:.4f}  n={s['n']}",
                  file=file)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir() or not SPEC_PATH.is_file():
        print(f"bench: {ROOT} has no src/repro or BENCHMARK.json",
              file=sys.stderr)
        return 2
    spec = json.loads(SPEC_PATH.read_text(encoding="utf-8"))
    size = "smoke" if args.smoke else "full"
    spans_dir = Path(args.spans)
    spans_dir.mkdir(parents=True, exist_ok=True)
    OUT_DIR.mkdir(exist_ok=True)
    work_dir = Path(tempfile.mkdtemp(prefix="work-", dir=OUT_DIR))
    try:
        workloads = [Workload(name, size, args, work_dir)
                     for name in dict.fromkeys(args.workload or WORKLOADS)]
        for w in workloads:
            w.prepare()
        for round_ in range(max(w.reps for w in workloads)):
            for w in workloads:
                if round_ < w.reps:
                    w.timed_rep()
        for w in workloads:
            while len(w.setups) < MIN_SETUPS and w.crashed == 0:
                w.child("setup")
        if args.trace:
            for w in workloads:
                w.traced_rep(spans_dir)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    ledgers = {w.name: w.ledger(spec) for w in workloads}
    report(ledgers)
    if args.out:
        ledger = {
            "command": "python3 benchmarks/layers/bench.py --seed 0 "
                       "--out benchmarks/layers/results.json",
            "smoke_command": "python3 benchmarks/layers/bench.py --smoke",
            "paths": ["benchmarks/layers"],
            "config": {"seed": args.seed,
                       "reps": {w.name: w.reps for w in workloads},
                       "seconds": args.seconds, "smoke": args.smoke,
                       "trace": args.trace, "cpus": os.cpu_count(),
                       "python": platform.python_version()},
            "metrics": spec["end_to_end"],
            "layer_metrics": [dict(m, moves=layer_moves(m["name"]))
                              for m in spec["per_layer"]],
            "workloads": ledgers,
        }
        Path(args.out).write_text(json.dumps(ledger, indent=1) + "\n",
                                  encoding="utf-8")

    kind = "per_layer" if args.trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in spec[kind]}
    metrics = {}
    for name, entry in ledgers.items():
        values = entry.get("layers", {}) if args.trace else {
            k: v["median"] for k, v in entry["metrics"].items()}
        metrics[name] = {k: {"value": v, "unit": units[k]}
                         for k, v in values.items()}
    attempted = sum(e["attempted"] for e in ledgers.values())
    failed = sum(e["failed"] for e in ledgers.values())
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": metrics[workloads[0].name] if len(workloads) == 1
        else metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
