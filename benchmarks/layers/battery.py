"""The study analysis battery, copied into the benchmark.

This is the per-trace battery of ``benchmarks/bench_pipeline.py`` (the
``timerstudy analyze`` analyses plus Figure 1 for the desktop trace),
kept here so a change elsewhere in the tree cannot change the work the
benchmark measures.  The sha256 of the battery text over the nine study
traces at seed 0 and 2 virtual minutes is the repository's study pin
(``f82955d0...``); matching it proves this copy runs the same battery.

``span(name)`` wraps each public call; it is a no-op in untimed reps
and a :class:`spans.SpanRecorder` in the traced rep.  Spans change no
output.
"""

from __future__ import annotations

import hashlib

from repro.core import (adaptivity_report, duration_scatter, infer_nesting,
                        origin_table, pattern_breakdown, rate_series,
                        render_histogram, render_nesting,
                        render_origin_table, render_rates, render_scatter,
                        round_value_share, summarize, value_histogram)

#: Fixed rather than read from the backend registry: a new backend must
#: not change the study the benchmark runs.
STUDY_ORDER = [(os_name, workload) for os_name in ("linux", "vista")
               for workload in ("idle", "skype", "firefox", "webserver")
               ] + [("vista", "desktop")]


def analysis_battery(trace, span) -> str:
    out = []
    with span("core.summary"):
        row = summarize(trace).as_row()
    out.append(str(row))
    with span("core.classify"):
        row = pattern_breakdown(trace).figure2_row()
    out.append(str(row))
    with span("core.values"):
        hist = value_histogram(trace)
        share = round_value_share(hist)
    with span("core.render"):
        out.append(render_histogram(hist))
    out.append(f"{share:.6f}")
    with span("core.durations"):
        scatter = duration_scatter(trace)
        share = scatter.share_above_100pct()
    with span("core.render"):
        out.append(render_scatter(scatter))
    out.append(f"{share:.6f}")
    with span("core.origins"):
        rows = origin_table(trace, min_sets=5)
    with span("core.render"):
        out.append(render_origin_table(rows))
    with span("core.adaptivity"):
        report = adaptivity_report(trace)
    with span("core.render"):
        out.append(report.render())
    with span("core.nesting"):
        nested = infer_nesting(trace)[:10]
    with span("core.render"):
        out.append(render_nesting(nested))
    return "\n".join(out)


def figure1(trace, span) -> str:
    with span("core.rates"):
        series = rate_series(trace)
    with span("core.render"):
        return render_rates(series,
                            groups=["Outlook", "Browser", "System", "Kernel"],
                            max_rows=10)


def study_digest(texts) -> str:
    """sha256 over the battery texts in :data:`STUDY_ORDER`."""
    digest = hashlib.sha256()
    for text in texts:
        digest.update(text.encode("utf-8"))
    return digest.hexdigest()
