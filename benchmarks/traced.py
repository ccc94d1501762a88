"""Traced in-process run: spans around the public calls into each layer.

The pipeline repeats, from outside the package, what ``carbonledger run``
and ``carbonledger report`` do with the same generated inputs: load the
registry, parse and drain the trace, parse the event stream, sample with
the paced emitter as a real child process, integrate, slice phases,
forecast, append to the ledger, read it back and render every format.
Each call is wrapped in a span (name, start, end, parent, run id) kept in
memory; a layer's self time is its spans' durations minus their direct
children's. Spans inside the package are out of scope here.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import time
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

from reference import Expected, check_json_report, check_ledger, check_record, check_text_report
from workloads import CAR_KG_PER_KM, CADENCE_MS, PUE, Inputs

LAYERS = ("probe", "sampler", "energy", "forecast", "carbon", "ledger")


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    run_id: int

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]


class Tracer:
    """In-memory span recorder; spans of one pipeline share a run id."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.run_id = 0
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        index = self.add(name, time.perf_counter(), 0.0)
        self._stack.append(index)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[index].end = time.perf_counter()

    def add(self, name: str, start: float, end: float) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, start, end, parent, self.run_id))
        return len(self.spans) - 1

    def self_times(self) -> list[float]:
        own = [s.end - s.start for s in self.spans]
        for s in self.spans:
            if s.parent is not None:
                own[s.parent] -= s.end - s.start
        return own

    def dump(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps(s.__dict__) + "\n")


class TimedProbe:
    """Delegating probe that accumulates the wall and thread CPU of read()."""

    def __init__(self, inner):
        self.inner = inner
        self.descriptor = inner.descriptor
        self.source_ids = inner.source_ids
        self.skipped_reads = 0
        self.first = None
        self.wall = 0.0
        self.cpu = 0.0

    def read(self):
        c0, t0 = time.thread_time(), time.perf_counter()
        batch = self.inner.read()
        self.wall += time.perf_counter() - t0
        self.cpu += time.thread_time() - c0
        if self.first is None:
            self.first = t0
        return batch


def pipeline(tr: Tracer, inputs: Inputs, exp: Expected, workdir: Path, emitter_cmd) -> tuple[dict, list[str]]:
    """One traced pass; returns (per-run figures, mismatches)."""
    from carbonledger import carbon, energy, forecast, ledger, probe, sampler

    spec = inputs.spec
    figures: dict[str, float] = {}
    errors: list[str] = []
    run = tr.run_id
    desc = probe.ProbeDescriptor("replay", probe.ProbeKind.REPLAY, spec.sources, str(inputs.trace_path))
    lines = inputs.schedule_path.read_text(encoding="utf-8").splitlines()
    events_path = workdir / f"trace-events-{run}"
    events_path.write_text("", encoding="utf-8")
    ledger_path = workdir / f"trace-ledger-{run}.jsonl"
    if inputs.history_path:
        shutil.copyfile(inputs.history_path, ledger_path)
        with open(ledger_path, "rb") as fh:
            figures["ledger.lines_before_append"] = sum(1 for _ in fh)
    else:
        figures["ledger.lines_before_append"] = 0

    with tr.span("pipeline"):
        with tr.span("carbon.load_intensity_registry"):
            registry = carbon.load_intensity_registry(inputs.registry_path)
        intensity = registry[inputs.region]

        with tr.span("probe.parse_trace"):
            rows = probe.parse_trace(inputs.trace_path)
        figures["probe.trace_rows"] = len(rows)
        del rows

        with tr.span("probe.replay_drain"):
            drained = probe.open_probe(desc)
            count = 0
            while (batch := drained.read()) is not None:
                count += len(batch)
        figures["probe.samples_read"] = count
        del drained

        with tr.span("sampler.parse_events"):
            _, violations = sampler.parse_events(lines)
        figures["sampler.event_lines"] = len(lines)
        figures["sampler.event_violations"] = violations

        with tr.span("probe.open_probe"):
            timed = TimedProbe(probe.open_probe(desc))
        ticks = {"n": 0, "samples": 0, "forecasts": 0, "first_epochs": 0, "cpu": 0.0}

        def on_tick(snapshot) -> None:
            c0, t0 = time.thread_time(), time.perf_counter()
            ticks["n"] += 1
            ticks["samples"] += len(snapshot.samples)
            # the tracker makes its one forecast on the first snapshot with
            # a completed epoch, summarizing every epoch completed by then
            if ticks["forecasts"] == 0 and snapshot.epochs_completed() >= 1:
                ticks["forecasts"] = 1
                ticks["first_epochs"] = snapshot.epochs_completed()
            ticks["cpu"] += time.thread_time() - c0
            tr.add("bench.on_tick", t0, time.perf_counter())

        env = dict(os.environ, CARBONLEDGER_EVENTS=str(events_path))
        child = subprocess.Popen(emitter_cmd(workdir / f"trace-side-{run}.json"), env=env)
        try:
            with tr.span("sampler.run_sampler"):
                c0 = time.thread_time()
                log = sampler.run_sampler(
                    [timed], CADENCE_MS, events_path,
                    stop_condition=lambda: child.poll() is not None, on_tick=on_tick,
                )
                run_cpu = time.thread_time() - c0
                tr.add("probe.replay_read", timed.first, timed.first + timed.wall)
        finally:
            if child.poll() is None:
                child.kill()
            child.wait()
        if child.returncode != 0:
            errors.append(f"emitter exited {child.returncode}")
        figures["sampler.run_sampler_cpu_s"] = run_cpu - timed.cpu - ticks["cpu"]
        figures["sampler.ticks"] = ticks["n"]
        figures["sampler.snapshot_samples_total"] = ticks["samples"]
        figures["sampler.snapshot_useful_ratio"] = ticks["forecasts"] / max(ticks["n"], 1)
        figures["sampler.first_snapshot_epochs"] = ticks["first_epochs"]

        with tr.span("energy.integrate_run"):
            total = energy.integrate_energy(log, PUE)
        figures["energy.samples_integrated"] = len(log.samples)

        summaries = []
        phases = [("setup", "setup")] + [(f"epoch:{k}", f"epoch {k}") for k in range(1, log.epochs_completed() + 1)]
        for selector, name in phases:
            with tr.span("sampler.slice_phase"):
                start, end = sampler.phase_window(log, selector)
                part = sampler.slice_phase(log, selector)
            with tr.span("energy.integrate_phase"):
                kwh = energy.integrate_energy(part, PUE).facility_kwh
            with tr.span("carbon.co2e"):
                kg = carbon.co2e(kwh, intensity)
            summaries.append(forecast.PhaseSummary(name, (end - start) / 3_600_000.0, kwh, kg))
        figures["sampler.phases_sliced"] = len(phases)
        del part

        setup, epochs = summaries[0], summaries[1:]
        with tr.span("forecast.predict"):
            early = forecast.predict(epochs[:1], setup, spec.epochs, intensity)
        with tr.span("forecast.refine_chain"):
            trail = early
            for summary in epochs[1:]:
                trail = forecast.refine(trail, summary)
        figures["forecast.refine_calls"] = len(epochs) - 1
        if abs(early.predicted_kwh - exp.forecast_kwh) > 1e-9 * exp.forecast_kwh:
            errors.append(f"predict {early.predicted_kwh} != reference {exp.forecast_kwh}")
        if abs(trail.predicted_kwh - exp.energy_kwh) > 1e-9 * exp.energy_kwh:
            errors.append(f"forecast at k = planned {trail.predicted_kwh} != total {exp.energy_kwh}")

        with tr.span("carbon.emissions"):
            report = carbon.emissions(total.facility_kwh, intensity, car_kg_per_km=CAR_KG_PER_KM)

        train = [log.events_of(sampler.EventKind.TRAIN_START)[0], log.events_of(sampler.EventKind.TRAIN_END)[0]]
        label = f"trace-{run}"
        record = ledger.ExperimentRecord(
            experiment_id=f"{run:012x}", label=label, started_at="2024-01-01T00:00:00+00:00",
            duration_hours=(train[1].timestamp_ms - train[0].timestamp_ms) / 3_600_000.0,
            epochs_completed=log.epochs_completed(),
            energy_kwh=total.facility_kwh, intensity_g_per_kwh=intensity.grams_per_kwh, pue=PUE,
            co2e_kg=report.co2e_kg, car_km=report.car_km, car_factor_kg_per_km=CAR_KG_PER_KM,
            region=inputs.region, phase_breakdown=tuple(summaries),
            quality_notes=tuple(log.warnings) + tuple(total.notes),
        )
        errors += check_record(record.to_dict(), exp, label)

        with tr.span("ledger.append_record"):
            ledger.append_record(ledger_path, record)
        with tr.span("ledger.read_records"):
            records = ledger.read_records(ledger_path)
        figures["ledger.records_read"] = len(records)
        documents = {}
        for fmt in ("text", "csv", "json"):
            with tr.span(f"ledger.render_{fmt}"):
                documents[fmt] = ledger.render_report(records, fmt)
        figures["ledger.render_bytes"] = sum(len(d.encode("utf-8")) for d in documents.values())

    ledger_errors, last = check_ledger(ledger_path, exp, label)
    errors += ledger_errors
    if last is not None:
        errors += check_text_report(documents["text"], exp, last)
        errors += check_json_report(documents["json"], exp, last)
    for path in (events_path, ledger_path):
        path.unlink()
    return figures, errors


# per-layer metric name -> span name whose per-run total it reports
SPAN_METRICS = {
    "probe.parse_trace_s": "probe.parse_trace",
    "probe.replay_drain_s": "probe.replay_drain",
    "sampler.parse_events_s": "sampler.parse_events",
    "sampler.slice_phase_s": "sampler.slice_phase",
    "energy.integrate_run_s": "energy.integrate_run",
    "energy.integrate_phases_s": "energy.integrate_phase",
    "forecast.predict_s": "forecast.predict",
    "forecast.refine_chain_s": "forecast.refine_chain",
    "carbon.registry_load_s": "carbon.load_intensity_registry",
    "carbon.emissions_s": "carbon.emissions",
    "ledger.append_s": "ledger.append_record",
    "ledger.read_records_s": "ledger.read_records",
    "ledger.render_text_s": "ledger.render_text",
    "ledger.render_csv_s": "ledger.render_csv",
    "ledger.render_json_s": "ledger.render_json",
}


# spans of the calls ``carbonledger run`` itself makes; the other spans
# time standalone calls that only the traced run makes
RUN_SPANS = {
    "carbon.load_intensity_registry", "probe.open_probe", "sampler.run_sampler", "probe.replay_read",
    "energy.integrate_run", "sampler.slice_phase", "energy.integrate_phase", "carbon.co2e",
    "forecast.predict", "carbon.emissions", "ledger.append_record",
}


def per_run_totals(tr: Tracer) -> list[dict[str, float]]:
    """Span-metric totals and per-layer self times, one dict per run."""
    own = tr.self_times()
    runs: dict[int, dict[str, float]] = {}
    by_span = {v: k for k, v in SPAN_METRICS.items()}
    for s, self_s in zip(tr.spans, own):
        totals = runs.setdefault(
            s.run_id, {f"{layer}.self_s": 0.0 for layer in LAYERS} | {"trace.run_self_total_s": 0.0}
        )
        if s.name in by_span:
            metric = by_span[s.name]
            totals[metric] = totals.get(metric, 0.0) + (s.end - s.start)
        if s.layer in LAYERS:
            totals[f"{s.layer}.self_s"] += self_s
        if s.name in RUN_SPANS:
            totals["trace.run_self_total_s"] += self_s
        if s.name == "pipeline":
            totals["trace.pipeline_wall_s"] = s.end - s.start
    return [runs[k] for k in sorted(runs)]
