"""carbonledger benchmark: seeded replay workloads driven from outside.

Run from the root of a source checkout:

    python3 benchmarks/run.py --workload live-events --seed 1 --seconds 50 --trace 0

Workloads (see ``workloads.SPECS``): ``live-events`` and ``ledger-history``
are the ones BENCHMARK.json lists; ``replay-day`` runs the same way but is
left out of that list because its long, memory-bound runs vary too much
from run to run to hold a bound. With ``--trace 0`` the benchmark launches
the real ``carbonledger run`` and ``carbonledger report`` processes on
inputs generated from ``--seed``, checks every output against the
independent reference in ``reference.py`` and reports end-to-end metrics as
medians over the runs made in ``--seconds`` seconds, after one discarded
warm-up run at tiny scale. Besides whole runs it makes probe runs, cut
short once the epoch-1 forecast is printed, which sample ``setup_s`` and
``forecast_latency_s`` at a fraction of a whole run's cost. With
``--trace 1`` it makes one untraced run for ``run_wall_s`` and then
repeats the traced in-process pipeline of ``traced.py`` for the per-layer
metrics. The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.

Measurement is limited to the benchmark's own processes: tracker CPU and
peak RSS come from ``os.wait4`` in ``launcher.py``; nothing traces the
machine, drops caches or changes cgroups or CPU affinity.

Host speed: on a shared 2-vCPU host the same ``report --format text``
launch on a 20,000-record ledger took from 0.85 to 1.8 s depending on the
minute, in regimes that last minutes, so no run length averages them out.
The end-to-end times that are mostly the tracker's or a report's own CPU
work on a workload (its ``Spec.scaled``) are therefore given in reference
seconds: right before every launch of the tracker or a report the
benchmark times the fixed calibration job of ``calibrate.py``, and a run
scales the median of each such metric by ``CAL_REF_S`` / the median
calibration time of that run. The others are given as measured:
``run_wall_s``, mostly the tracked job's own pacing on live-events;
``tracker_peak_rss_mb``; and on ledger-history ``finalize_s`` and
``forecast_latency_s``, mostly one poll sleep of the tracker there. On
live-events those two also hold that sleep, at most 100 ms, and it is
scaled with the rest. The log prints every metric's measured samples,
the calibration times and the factor.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import reference
import traced
import workloads
from workloads import CAR_KG_PER_KM, CADENCE_MS, PUE

HERE = Path(__file__).resolve().parent
EMITTER = HERE / "emitter.py"
LAUNCHER = HERE / "launcher.py"
CALIBRATE = HERE / "calibrate.py"
PROCESS_TIMEOUT_S = 170.0
# Per scale and iteration: probe runs; then tracked runs, and each report
# format, are launched until this much of each is timed or this many
# launches are made (so cheap launches are sampled more often), but each
# report format at least this many times: the JSON report on ledger-history
# is as noisy as the text report but four times as long. The tiny scale
# only has to show that everything runs.
REPEATS = {"full": (3, 2.5, 6, 3), "tiny": (1, 0.0, 1, 1)}
# The calibration job's time at reference speed: where its median is
# CAL_REF_S, reference seconds are measured seconds.
CAL_REF_S = 0.15

END_TO_END = {
    "setup_s": "s",
    "run_wall_s": "s",
    "finalize_s": "s",
    "forecast_latency_s": "s",
    "tracker_cpu_s": "CPU-s",
    "tracker_peak_rss_mb": "MB",
    "report_text_s": "s",
    "report_json_s": "s",
}

PER_LAYER = {
    **{name: "s" for name in traced.SPAN_METRICS},
    "probe.trace_rows": "count",
    "probe.samples_read": "count",
    "sampler.event_lines": "count",
    "sampler.event_violations": "count",
    "sampler.run_sampler_cpu_s": "CPU-s",
    "sampler.ticks": "count",
    "sampler.snapshot_samples_total": "count",
    "sampler.snapshot_useful_ratio": "ratio",
    "sampler.phases_sliced": "count",
    "sampler.first_snapshot_epochs": "count",
    "energy.samples_integrated": "count",
    "forecast.refine_calls": "count",
    "ledger.records_read": "count",
    "ledger.render_bytes": "count",
    "ledger.lines_before_append": "count",
    **{f"{layer}.self_s": "s" for layer in traced.LAYERS},
    "trace.pipeline_wall_s": "s",
    "trace.run_self_total_s": "s",
    "trace.run_wall_s": "s",
}


class Bench:
    """One benchmark invocation: generated inputs, a work dir, counters."""

    def __init__(self, root: Path, inputs: workloads.Inputs, workdir: Path, scale: str):
        self.root = root
        self.probes, self.repeat_min_s, self.repeat_max, self.min_reports = REPEATS[scale]
        self.inputs = inputs
        self.exp = reference.Expected(inputs)
        self.workdir = workdir
        self.attempted = 0
        self.failed = 0
        self.serial = 0
        self.calibrations: list[float] = []
        self.env = {k: v for k, v in os.environ.items() if not k.startswith("CARBONLEDGER_")}
        self.env["PYTHONPATH"] = str(root / "src")
        self.env["PYTHONUNBUFFERED"] = "1"

    def record(self, what: str, errors: list[str]) -> bool:
        self.attempted += 1
        if errors:
            self.failed += 1
            for e in errors[:5]:
                print(f"FAIL {what}: {e}", file=sys.stderr)
        return not errors

    def calibrate(self) -> None:
        """Time the calibration job once, for the host's speed right now."""
        name = f"calibrate-{len(self.calibrations)}"
        proc = self.launch([sys.executable, str(CALIBRATE), str(self.inputs.calibration_path)], subprocess.DEVNULL, name)
        cal = self.finish(proc, name)
        if cal["code"] != 0:
            raise RuntimeError(f"calibration job exited {cal['code']}: {self.stderr_of(name)}")
        self.calibrations.append(cal["t_exit"] - cal["t_launch"])

    def emitter_cmd(self, side: Path) -> list[str]:
        spec = self.inputs.spec
        return [
            sys.executable, str(EMITTER), "--schedule", str(self.inputs.schedule_path), "--side", str(side),
            "--batches-per-epoch", str(spec.batches_per_epoch),
            "--epoch-wall-s", str(spec.epoch_wall_s),
            "--linger-s", str(spec.linger_s),
        ]

    def run_cmd(self, label: str, ledger: Path, events: Path, side: Path) -> list[str]:
        inputs = self.inputs
        return [
            sys.executable, "-m", "carbonledger.cli", "run",
            "--label", label, "--region", inputs.region, "--registry", str(inputs.registry_path),
            "--pue", str(PUE), "--interval-ms", str(CADENCE_MS), "--car-factor", str(CAR_KG_PER_KM),
            "--probe", f"replay:{inputs.trace_path}*{inputs.spec.sources}",
            "--ledger", str(ledger), "--events", str(events),
            "--planned-epochs", str(inputs.spec.epochs),
            "--", *self.emitter_cmd(side),
        ]

    def launch(self, cmd: list[str], stdout, name: str, kill_when: Path | None = None) -> subprocess.Popen:
        """Start cmd under the launcher; its stderr goes to NAME.stderr."""
        extra = ["--kill-when", str(kill_when)] if kill_when else []
        with open(self.workdir / f"{name}.stderr", "wb") as err:
            return subprocess.Popen(
                [sys.executable, str(LAUNCHER), str(self.workdir / f"{name}.launch"), *extra, "--", *cmd],
                env=self.env, cwd=self.workdir, stdout=stdout, stderr=err,
            )

    def finish(self, proc: subprocess.Popen, name: str) -> dict:
        """Wait for the launcher; returns its report on the launched command."""
        try:
            proc.wait(timeout=PROCESS_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
        try:
            return json.loads((self.workdir / f"{name}.launch").read_text(encoding="utf-8"))
        except (OSError, ValueError):
            return {"code": f"launcher exited {proc.returncode}"}

    def stderr_of(self, name: str) -> str:
        return (self.workdir / f"{name}.stderr").read_text(encoding="utf-8", errors="replace")[-400:]

    def again(self, times: list[float], at_least: int = 1) -> bool:
        """Whether a repeated launch should be made once more."""
        return len(times) < at_least or (sum(times) < self.repeat_min_s and len(times) < self.repeat_max)

    def tracked_run(self, tag: str) -> tuple[dict[str, float] | None, Path, dict | None]:
        """One checked ``carbonledger run``; returns (figures, its ledger, appended record)."""
        wd = self.workdir
        label = f"bench-{tag}"
        ledger = wd / f"ledger-{tag}.jsonl"
        side = wd / f"side-{tag}.json"
        if self.inputs.history_path:
            shutil.copyfile(self.inputs.history_path, ledger)
        lines: list[tuple[float, str]] = []
        self.calibrate()
        proc = self.launch(self.run_cmd(label, ledger, wd / f"events-{tag}", side), subprocess.PIPE, f"run-{tag}")
        for raw in proc.stdout:
            lines.append((time.monotonic(), raw.decode("utf-8", "replace").rstrip("\n")))
        proc.stdout.close()
        run = self.finish(proc, f"run-{tag}")

        errors = [] if run["code"] == 0 else [f"tracker exited {run['code']}: {self.stderr_of(f'run-{tag}')}"]
        forecast = next(((t, s) for t, s in lines if s.startswith("forecast after epoch 1:")), None)
        errors += reference.check_forecast_line(forecast[1] if forecast else None, self.exp)
        ledger_errors, last = reference.check_ledger(ledger, self.exp, label)
        errors += ledger_errors
        try:
            emitted = json.loads(side.read_text(encoding="utf-8"))
        except (OSError, ValueError) as exc:
            errors.append(f"no emitter side file: {exc}")
        if not self.record(f"run {tag}", errors):
            return None, ledger, None
        figures = {
            "setup_s": emitted["t_start"] - run["t_launch"],
            "run_wall_s": run["t_exit"] - run["t_launch"],
            "finalize_s": run["t_exit"] - emitted["t_exit"],
            "forecast_latency_s": forecast[0] - emitted["t_epoch1"],
            "tracker_cpu_s": run["cpu_s"] - emitted["cpu_s"],
            "tracker_peak_rss_mb": run["maxrss_kb"] / 1024.0,
            "emitter_late_s": emitted["late_s"],
        }
        return figures, ledger, last

    def iteration(self) -> dict[str, list[float]] | None:
        """Tracked runs, then both reports on the last run's ledger.

        Runs and reports are launched again as ``again`` says, so noise
        averages over more samples where a launch is cheap. Returns None
        when any output is wrong.
        """
        self.serial += 1
        n = self.serial
        figures: dict[str, list[float]] = {"run_wall_s": []}
        ledger = None
        runs = figures["run_wall_s"]
        while self.again(runs):
            if ledger is not None:
                ledger.unlink()
            run, ledger, last = self.tracked_run(f"{n}-{len(runs)}")
            if run is None:
                ledger.unlink(missing_ok=True)
                return None
            for key, value in run.items():
                figures.setdefault(key, []).append(value)

        ok = True
        for fmt in ("text", "json"):
            times = figures.setdefault(f"report_{fmt}_s", [])
            while ok and self.again(times, self.min_reports):
                name = f"report-{n}-{fmt}-{len(times)}"
                out = self.workdir / f"{name}.out"
                self.calibrate()
                with open(out, "wb") as fh:
                    rproc = self.launch(
                        [sys.executable, "-m", "carbonledger.cli", "report", "--ledger", str(ledger), "--format", fmt],
                        fh, name,
                    )
                report = self.finish(rproc, name)
                rerrors = [] if report["code"] == 0 else [f"report exited {report['code']}: {self.stderr_of(name)}"]
                if not rerrors:
                    check = reference.check_text_report if fmt == "text" else reference.check_json_report
                    rerrors += check(out.read_text(encoding="utf-8"), self.exp, last)
                ok &= self.record(f"report {fmt} {n}", rerrors)
                times.append(report.get("t_exit", 0.0) - report.get("t_launch", 0.0))
                out.unlink()
        ledger.unlink()
        return figures if ok else None

    def probe(self) -> dict[str, float] | None:
        """A run cut short once the tracker has printed its epoch-1 forecast.

        Samples setup_s and forecast_latency_s, and checks the forecast
        line, at a fraction of a whole run's cost: once the line is read
        and the emitter has saved its EPOCH_END 1 stamp, the launcher kills
        the tracker's process group, emitter included, and reaps both.
        """
        self.serial += 1
        n = self.serial
        name, side, stop = f"probe-{n}", self.workdir / f"side-{n}.json", self.workdir / f"stop-{n}"
        cmd = self.run_cmd(name, self.workdir / f"{name}.jsonl", self.workdir / f"events-{n}", side)
        self.calibrate()
        proc = self.launch(cmd, subprocess.PIPE, name, kill_when=stop)
        forecast = emitted = None
        for raw in proc.stdout:
            line = raw.decode("utf-8", "replace").rstrip("\n")
            if forecast is None and line.startswith("forecast after epoch 1:"):
                forecast = (time.monotonic(), line)
                emitted = epoch1_stamp(side)
                stop.touch()
        proc.stdout.close()
        run = self.finish(proc, name)
        errors = reference.check_forecast_line(forecast[1] if forecast else None, self.exp)
        if forecast and emitted is None:
            errors.append("the emitter saved no EPOCH_END 1 stamp")
        if "t_launch" not in run:
            errors.append(f"probe not launched: {run['code']}: {self.stderr_of(name)}")
        if not self.record(f"probe {n}", errors):
            return None
        return {"setup_s": emitted["t_start"] - run["t_launch"], "forecast_latency_s": forecast[0] - emitted["t_epoch1"]}


def epoch1_stamp(side: Path, timeout_s: float = 5.0) -> dict | None:
    """The emitter's side file, once it holds the EPOCH_END 1 stamp."""
    deadline = time.monotonic() + timeout_s
    while True:
        try:
            data = json.loads(side.read_text(encoding="utf-8"))
            if data.get("t_epoch1") is not None:
                return data
        except (OSError, ValueError):
            pass
        if time.monotonic() >= deadline:
            return None
        time.sleep(0.002)


def git_commit(root: Path) -> str:
    head = root / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            name = ref[5:]
            loose = root / ".git" / name
            if loose.exists():
                return loose.read_text().strip()
            for line in (root / ".git" / "packed-refs").read_text().splitlines():
                if line.endswith(" " + name):
                    return line.split()[0]
        return ref
    except OSError:
        pass
    return "unknown (not a git checkout)"


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def summarize(name: str, values: list[float], unit: str) -> str:
    if not values:
        return f"{name}: no samples"
    return (
        f"{name}: median {statistics.median(values):.6g} {unit} "
        f"(n={len(values)}: {', '.join(f'{v:.4g}' for v in values)})"
    )


def end_to_end(bench: Bench, seconds: float) -> dict[str, list[float]]:
    samples: dict[str, list[float]] = {name: [] for name in END_TO_END}
    t_end = time.monotonic() + seconds
    # Probes go with every iteration, so that like every other metric they
    # are spread over the whole run. A run stops once less than half an
    # iteration is left, so that it lasts about ``seconds`` on average.
    while True:
        t_iteration = time.monotonic()
        for _ in range(bench.probes):
            for key, value in (bench.probe() or {}).items():
                samples[key].append(value)
        figures = bench.iteration()
        if figures:
            for key, values in figures.items():
                samples.setdefault(key, []).extend(values)
        now = time.monotonic()
        if t_end - now < (now - t_iteration) / 2:
            break
    samples["calibration_s"] = bench.calibrations
    return samples


def per_layer(bench: Bench, seconds: float) -> tuple[dict[str, list[float]], traced.Tracer]:
    t_end = time.monotonic() + seconds
    figures = bench.iteration()
    run_wall = figures["run_wall_s"] if figures else []
    sys.path.insert(0, str(bench.root / "src"))
    tr = traced.Tracer()
    counts: list[dict[str, float]] = []
    while True:
        tr.run_id += 1
        figures_run, errors = traced.pipeline(tr, bench.inputs, bench.exp, bench.workdir, bench.emitter_cmd)
        bench.record(f"traced pipeline {tr.run_id}", errors)
        counts.append(figures_run)
        if time.monotonic() >= t_end:
            break
    rows = traced.per_run_totals(tr)
    samples: dict[str, list[float]] = {}
    for row, count in zip(rows, counts):
        for key, value in {**row, **count}.items():
            samples.setdefault(key, []).append(value)
    samples["trace.run_wall_s"] = run_wall
    return samples, tr


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.SPECS["full"]))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=sorted(workloads.SPECS), default="full")
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "carbonledger" / "cli.py").is_file():
        print(f"no carbonledger sources under {root / 'src'}; run from the repository root", file=sys.stderr)
        return 2
    workdir = root / ".bench_work" / f"{args.workload}-{args.seed}-{args.trace}-{os.getpid()}"
    try:
        t0 = time.monotonic()
        inputs = workloads.generate(args.workload, args.seed, args.scale, workdir)
        bench = Bench(root, inputs, workdir, args.scale)
        print(f"workload {args.workload} seed {args.seed} scale {args.scale}: inputs in {time.monotonic() - t0:.2f} s")
        # Warm-up, discarded: every launch is a fresh interpreter, so what a
        # first run fills is the byte-code and page caches; a tiny run of the
        # same workload fills them, and the inputs were just written.
        warm_dir = workdir / "warm-up"
        warm = Bench(root, workloads.generate(args.workload, args.seed, "tiny", warm_dir), warm_dir, "tiny")
        warm.iteration()
        bench.attempted, bench.failed = warm.attempted, warm.failed
        print(
            f"python {platform.python_version()}; cpu {cpu_model()}; nproc {os.cpu_count()}; "
            f"commit {git_commit(root)}"
        )
        print("scope: this benchmark's own processes only; no machine-wide tracing, cache dropping, "
              "cgroup or affinity changes")
        if args.trace:
            samples, tr = per_layer(bench, args.seconds)
            tr.dump(root / ".bench_work" / f"spans-{args.workload}-{args.seed}.jsonl")
            units = PER_LAYER
        else:
            samples = end_to_end(bench, args.seconds)
            units = END_TO_END
        for name in sorted(samples):
            print(summarize(name, samples[name], units.get(name, "s")))
        if args.trace:
            self_total = statistics.median(samples["trace.run_self_total_s"])
            run_wall = statistics.median(samples["trace.run_wall_s"] or [float("nan")])
            print(f"self times of the run's own calls sum to {self_total:.3f} s beside run_wall_s "
                  f"{run_wall:.3f} s; uncovered (interpreter start, exit, work outside these calls) "
                  f"{run_wall - self_total:.3f} s")
        print(f"error_rate: {bench.failed / max(bench.attempted, 1):.6g} ratio "
              f"({bench.failed} failed of {bench.attempted} attempted)")
        missing = [name for name in units if not samples.get(name)]
        if missing:
            print(f"no samples for {missing}", file=sys.stderr)
            return 1
        values = {name: statistics.median(samples[name]) for name in units}
        if not args.trace:
            factor = CAL_REF_S / statistics.median(samples["calibration_s"])
            print(f"host speed: {inputs.spec.scaled} scaled from the measured medians above by "
                  f"{CAL_REF_S} s / median calibration_s = {factor:.4g}")
            for name in inputs.spec.scaled:
                values[name] *= factor
                print(f"{name}: {values[name]:.6g} reference {units[name]}")
        result = {
            "correct": bench.failed == 0,
            "attempted": bench.attempted,
            "failed": bench.failed,
            "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
        }
        print(json.dumps(result))
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
