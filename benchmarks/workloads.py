"""Seeded input generation for the benchmark workloads.

Every input the tracker sees is written here from ``random.Random(seed)``:
replay traces, epoch-event schedules, an intensity registry and, for
``ledger-history``, a pre-filled ledger. The same seed gives byte-identical
files. The generator never imports carbonledger, so the expected figures
the reference checker derives from these inputs are independent of the
code under test.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path

MS_PER_HOUR = 3_600_000
CADENCE_MS = 1000
PUE = 1.4
CAR_KG_PER_KM = 0.1206
REGISTRY_ROWS = 40
# Records in the fixed file the host-speed calibration job parses.
CALIBRATION_RECORDS = 4000

CPU_BOUND = ("setup_s", "finalize_s", "forecast_latency_s", "tracker_cpu_s", "report_text_s", "report_json_s")
# On ledger-history the tracker has little to do after its first poll, so
# finalize_s and forecast_latency_s are mostly its poll sleep (up to 100 ms):
# over ten runs on a shared 2-vCPU host their medians stayed within
# 0.110-0.118 s and 0.072-0.079 s while the calibration time ranged over
# 0.110-0.157 s. They are given as measured there.
POLL_BOUND = ("finalize_s", "forecast_latency_s")
HISTORY_SCALED = tuple(name for name in CPU_BOUND if name not in POLL_BOUND)


@dataclass(frozen=True)
class Spec:
    """Sizes and pacing of one workload.

    ``batches_per_epoch`` 0 means the emitter writes the whole schedule
    in one burst; otherwise each epoch's lines go out in that many
    batches spread evenly over ``epoch_wall_s`` seconds of wall time.
    ``linger_s`` is how long the emitter stays alive after its last line.
    ``scaled`` names the end-to-end times that are mostly the tracker's or
    a report's own CPU work on this workload, so ``run.py`` gives them in
    reference seconds (see its docstring).
    """

    name: str
    hours: float
    sources: int
    epochs: int
    metrics_per_epoch: int
    batches_per_epoch: int = 0
    epoch_wall_s: float = 0.0
    linger_s: float = 0.0
    history_records: int = 0
    scaled: tuple[str, ...] = CPU_BOUND


# "full" sizes are the measured cases the workloads are named for; "tiny"
# keeps every code path but finishes in about a second, for the benchmark's
# own smoke test.
SPECS = {
    "full": {
        # almost all load on trace parse/drain, slicing and integration
        "replay-day": Spec("replay-day", 24, 4, 50, 2),
        # the live path: event-tail parsing and one snapshot per tick; the
        # linger outlasts the tracker's last tick, so finalize_s does not
        # depend on where in its poll cycle the tracker was when the job ended
        "live-events": Spec(
            "live-events", 6, 2, 20, 5000, batches_per_epoch=20, epoch_wall_s=0.4, linger_s=0.5
        ),
        # ledger read/render both ways beside one small appending run
        # 10,000 records, not 20,000: at 20,000 a JSON report took 5-7 s on a
        # shared 2-vCPU host, too long to sample it often enough in one run
        # for a steady median; both sizes read and render the same way
        "ledger-history": Spec("ledger-history", 1, 2, 3, 1, history_records=10_000, scaled=HISTORY_SCALED),
    },
    "tiny": {
        "replay-day": Spec("replay-day", 0.5, 4, 5, 2),
        "live-events": Spec(
            "live-events", 0.25, 2, 3, 200, batches_per_epoch=4, epoch_wall_s=0.08, linger_s=0.1
        ),
        "ledger-history": Spec("ledger-history", 0.25, 2, 3, 1, history_records=50, scaled=HISTORY_SCALED),
    },
}


@dataclass
class Inputs:
    """Generated files plus the in-memory values the checker needs."""

    spec: Spec
    trace_path: Path
    schedule_path: Path
    registry_path: Path
    region: str
    grams_per_kwh: float
    timestamps: list[int]
    watts: list[float]
    boundaries: list[int]  # TRAIN_START, EPOCH_START 1, EPOCH_END 1..N (= TRAIN_END)
    calibration_path: Path | None = None
    history_path: Path | None = None


def random_walk(rng: random.Random, count: int) -> list[float]:
    """Bounded random walk in watts, rounded to 0.1 W so text round-trips."""
    low, high = 40.0, 450.0
    w = rng.uniform(150.0, 300.0)
    out = []
    for _ in range(count):
        w += rng.gauss(0.0, 4.0)
        if w < low:
            w = 2 * low - w
        elif w > high:
            w = 2 * high - w
        out.append(round(w, 1))
    return out


def epoch_boundaries(rng: random.Random, end_ms: int, epochs: int) -> list[int]:
    """TRAIN_START, EPOCH_START 1 and every EPOCH_END, jittered per seed.

    Boundaries fall at arbitrary milliseconds, mostly between samples, so
    the tracker interpolates at phase edges; the last one is the trace end.
    """
    setup_ms = int(end_ms * rng.uniform(0.02, 0.05))
    weights = [rng.uniform(0.8, 1.2) for _ in range(epochs)]
    span = end_ms - setup_ms
    scale = span / sum(weights)
    points = [0, setup_ms]
    acc = 0.0
    for w in weights[:-1]:
        acc += w * scale
        points.append(setup_ms + int(acc))
    points.append(end_ms)
    return points


def schedule(rng: random.Random, spec: Spec, bounds: list[int]) -> list[str]:
    """The event stream, in the grammar of ``carbonledger-workload``."""
    names = ("loss", "acc", "lr", "grad_norm", "tokens_per_s")
    lines = [f"TRAIN_START {bounds[0]}"]
    loss = 2.0 + rng.random()
    for k in range(1, spec.epochs + 1):
        start, end = bounds[k], bounds[k + 1]
        lines.append(f"EPOCH_START {k} {start}")
        step = (end - start) / (spec.metrics_per_epoch + 1)
        for m in range(spec.metrics_per_epoch):
            loss *= 1.0 - rng.uniform(0.0, 2e-5 * 5000 / spec.metrics_per_epoch)
            name = names[m % len(names)]
            value = loss if name == "loss" else rng.uniform(0.0, 10.0)
            lines.append(f"METRIC {k} {name} {value:.6f} {start + int(step * (m + 1))}")
        lines.append(f"EPOCH_END {k} {end}")
    lines.append(f"TRAIN_END {bounds[-1]}")
    return lines


def history_record(rng: random.Random, index: int, regions: list[tuple[str, float]]) -> dict:
    """One ledger line whose stored figures satisfy the record formulas."""
    region, grams = regions[rng.randrange(len(regions))]
    phases = []
    for p in range(rng.randint(1, 10)):
        hours = rng.uniform(0.01, 3.0)
        kwh = rng.uniform(0.01, 40.0)
        phases.append(
            {
                "co2e_kg": kwh * grams / 1000.0,
                "duration_hours": hours,
                "facility_kwh": kwh,
                "phase_name": "setup" if p == 0 else f"epoch {p}",
            }
        )
    energy = sum(p["facility_kwh"] for p in phases)
    co2e = energy * grams / 1000.0
    return {
        "car_factor_kg_per_km": CAR_KG_PER_KM,
        "car_km": co2e / CAR_KG_PER_KM,
        "co2e_kg": co2e,
        "duration_hours": sum(p["duration_hours"] for p in phases) + rng.uniform(0.0, 0.5),
        "energy_kwh": energy,
        "epochs_completed": len(phases) - 1,
        "experiment_id": f"{rng.getrandbits(48):012x}",
        "intensity_g_per_kwh": grams,
        "label": f"hist-{index:05d}-{rng.choice(('bert', 'gpt', 'kg', 'vit', 'rnn'))}",
        "phase_breakdown": phases,
        "pue": PUE,
        "quality_notes": [] if rng.random() < 0.9 else ["1 event protocol violation(s)"],
        "region": region,
        "started_at": f"2024-{rng.randint(1, 12):02d}-{rng.randint(1, 28):02d}T"
        f"{rng.randint(0, 23):02d}:{rng.randint(0, 59):02d}:00+00:00",
        "v": 1,
    }


def write_history(path: Path, rng: random.Random, count: int, regions: list[tuple[str, float]]) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for i in range(count):
            fh.write(json.dumps(history_record(rng, i, regions), sort_keys=True, ensure_ascii=False) + "\n")


def generate(workload: str, seed: int, scale: str, workdir: Path) -> Inputs:
    spec = SPECS[scale][workload]
    rng = random.Random(f"{workload}:{seed}")
    workdir.mkdir(parents=True, exist_ok=True)

    end_ms = int(spec.hours * MS_PER_HOUR)
    timestamps = list(range(0, end_ms + 1, CADENCE_MS))
    watts = random_walk(rng, len(timestamps))
    trace_path = workdir / "trace.csv"
    trace_path.write_text(
        "".join(f"{t},{w:.1f}\n" for t, w in zip(timestamps, watts)), encoding="utf-8"
    )

    bounds = epoch_boundaries(rng, end_ms, spec.epochs)
    lines = schedule(rng, spec, bounds)
    schedule_path = workdir / "schedule.txt"
    schedule_path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")

    regions = [(f"Z{i:02d}", round(rng.uniform(20.0, 900.0), 1)) for i in range(REGISTRY_ROWS)]
    registry_path = workdir / "registry.csv"
    registry_path.write_text(
        "# region,grams_per_kwh,source,as_of\n"
        + "".join(f"{r},{g},bench,2024-01-01\n" for r, g in regions),
        encoding="utf-8",
    )
    region, grams = regions[rng.randrange(len(regions))]

    inputs = Inputs(
        spec, trace_path, schedule_path, registry_path, region, grams,
        timestamps, watts, bounds,
    )
    if spec.history_records:
        inputs.history_path = workdir / "history.jsonl"
        write_history(inputs.history_path, rng, spec.history_records, regions)
    # The calibration input has a fixed seed, not the workload's, so the
    # calibration job does the same work in every run of every workload.
    inputs.calibration_path = workdir / "calibration.jsonl"
    write_history(inputs.calibration_path, random.Random("calibration"), CALIBRATION_RECORDS, [("Z00", 100.0)])
    return inputs
