"""Acceptance gate: one test per criterion, each printing a pass line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; every criterion pins its stated tolerance and, where stated, its
runtime budget.
"""

from __future__ import annotations

import json
import math
import random
import sys
import time
from pathlib import Path

import pytest

from carbonledger import carbon, forecast, ledger
from carbonledger.cli import main as cli_main
from carbonledger.energy import MS_PER_HOUR, RunParams, closed_form_energy, integrate_energy
from carbonledger.kgverb import WeightedTriple, mask_tokens, select_top, unmask
from carbonledger.ledger import read_records, render_report
from carbonledger.sampler import parse_events
from carbonledger.workload import early_stop_index

from conftest import constant_trace, make_log, make_record
from goldens import EFFECTIVE_INTENSITY, GOLDEN_ROWS, INVERTED_WATTS, LLM_EMISSIONS

CAR_FACTOR = carbon.DEFAULT_CAR_KG_PER_KM


def announce(criterion: int, message: str) -> None:
    print(f"ACCEPTANCE {criterion} PASS: {message}")


def test_criterion_1_golden_table_reproduction(tmp_path):
    started = time.perf_counter()
    path = tmp_path / "ledger.jsonl"
    for label, hours, kwh, _, _ in GOLDEN_ROWS:
        ledger.append_record(
            path,
            make_record(
                label=label,
                hours=hours,
                kwh=kwh,
                grams=EFFECTIVE_INTENSITY,
                car_factor=CAR_FACTOR,
                phase_breakdown=(),
            ),
        )
    document = render_report(read_records(path), "text")
    body = document.splitlines()[2:]
    for line, (label, _, _, kg, km) in zip(body, GOLDEN_ROWS):
        cells = [c.strip() for c in line.split("|")]
        assert cells[0] == label
        assert abs(float(cells[3]) - kg) <= 0.01 + 1e-9
        assert abs(float(cells[4]) - km) <= 0.05 + 1e-9
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0
    announce(1, f"six golden rows reproduced at 294.6 g/kWh and 0.1206 kg/km in {elapsed:.3f}s")


def test_criterion_2_closed_form_inversion():
    started = time.perf_counter()
    by_label = {label: (hours, kwh) for label, hours, kwh, _, _ in GOLDEN_ROWS}
    for label, frozen_watts in INVERTED_WATTS.items():
        hours, kwh = by_label[label]
        result = closed_form_energy(RunParams(hours, 2, frozen_watts, 1.55))
        assert abs(result.facility_kwh - kwh) <= 0.01
        inverted = kwh * 1000.0 / (1.55 * hours * 2)
        assert 150.0 <= inverted <= 300.0
        assert inverted == pytest.approx(frozen_watts, abs=0.05)
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0
    announce(2, f"per-device averages 256.6/247.5 W close the loop in {elapsed:.3f}s")


def test_criterion_3_co2e_exactness_and_documented_discrepancy():
    rng = random.Random(380380)
    for _ in range(1000):
        energy_kwh = rng.uniform(0.0, 100.0)
        assert carbon.co2e(energy_kwh, 380.0) == pytest.approx(
            0.380 * energy_kwh, rel=1e-12, abs=1e-18
        )
    implied = [kg / kwh for _, _, kwh, kg, _ in GOLDEN_ROWS]
    assert all(0.293 <= ratio <= 0.297 for ratio in implied)
    announce(
        3,
        "co2e is exactly 0.380 * kWh at 380 g/kWh; golden rows imply 0.293-0.297 kg/kWh "
        f"(range {min(implied):.4f}-{max(implied):.4f})",
    )


def test_criterion_4_flight_equivalences():
    for model, tons, flights in LLM_EMISSIONS:
        assert carbon.flight_equivalent(tons) == pytest.approx(flights, abs=0.5), model
    announce(4, "all five published emission rows within 0.5 round flights at 0.8333 t/flight")


def _analytic_piecewise_linear_kwh(points: list[tuple[int, float]]) -> float:
    total_w_ms = 0.0
    for (t1, w1), (t2, w2) in zip(points, points[1:]):
        slope = (w2 - w1) / (t2 - t1)
        total_w_ms += w1 * (t2 - t1) + slope * (t2 - t1) ** 2 / 2.0
    return total_w_ms / MS_PER_HOUR / 1000.0


def test_criterion_5_integration_oracles():
    started = time.perf_counter()
    rng = random.Random(50505)

    # piecewise-linear traces with breakpoints on sample times: exact
    for _ in range(200):
        times = sorted(rng.sample(range(0, 3_600_001, 1000), rng.randint(2, 25)))
        points = [(t, rng.uniform(0.0, 500.0)) for t in times]
        log = make_log({"g": points}, interval_ms=4_000_000)
        assert integrate_energy(log, 1.0).raw_kwh == pytest.approx(
            _analytic_piecewise_linear_kwh(points), rel=1e-9
        )

    # smooth traces: halving the interval walks the error down toward a
    # dense midpoint-Riemann oracle
    duration = 7_200_000
    for _ in range(50):
        base = rng.uniform(150.0, 300.0)
        amp = rng.uniform(10.0, min(80.0, base - 60.0))
        cycles = rng.uniform(0.5, 3.0)
        phase = rng.uniform(0.0, 2.0 * math.pi)
        slope = rng.uniform(-50.0, 50.0)

        def watts(t: float) -> float:
            return base + amp * math.sin(2.0 * math.pi * cycles * t / duration + phase) + slope * t / duration

        dt = 1125
        dense_riemann = (
            sum(watts(k * dt + dt / 2.0) * dt for k in range(duration // dt)) / MS_PER_HOUR / 1000.0
        )
        errors = []
        for interval in (450_000, 225_000, 112_500):
            points = [(t, watts(t)) for t in range(0, duration + 1, interval)]
            log = make_log({"g": points}, interval_ms=interval)
            errors.append(abs(integrate_energy(log, 1.0).raw_kwh - dense_riemann))
        assert errors[0] >= errors[1] >= errors[2], errors
    elapsed = time.perf_counter() - started
    assert elapsed < 10.0
    announce(5, f"200 exact piecewise-linear + 50 monotone smooth refinements in {elapsed:.2f}s")


def _run_cli_fixture(tmp_path: Path, triples: Path, tag: str) -> int:
    trace = constant_trace(tmp_path / f"trace-{tag}.csv", 250.0, 3_600_000, 1000)
    child = [
        sys.executable,
        "-m",
        "carbonledger.workload",
        "--triples",
        str(triples),
        "--max-epochs",
        "3",
        "--losses",
        "1.0,0.9,0.8",
        "--virtual-start-ms",
        "0",
        "--epoch-ms",
        "1200000",
    ]
    return cli_main(
        [
            "run",
            "--label",
            "accept",
            "--region",
            "DE",
            "--probe",
            f"replay:{trace}*2",
            "--ledger",
            str(tmp_path / "ledger.jsonl"),
            "--events",
            str(tmp_path / f"events-{tag}.log"),
            "--interval-ms",
            "1000",
            "--planned-epochs",
            "3",
            "--",
            *child,
        ]
    )


def test_criterion_6_end_to_end_replay(tmp_path, triples_file):
    assert _run_cli_fixture(tmp_path, triples_file, "a") == 0
    assert _run_cli_fixture(tmp_path, triples_file, "b") == 0
    first, second = read_records(tmp_path / "ledger.jsonl")
    assert first.energy_kwh == pytest.approx(0.775, abs=1e-6)
    assert first.co2e_kg == pytest.approx(0.2945, abs=1e-4)
    a, b = first.to_dict(), second.to_dict()
    assert a["experiment_id"] != b["experiment_id"]
    for volatile in ("experiment_id", "started_at"):
        a.pop(volatile)
        b.pop(volatile)
    assert a == b
    announce(6, "wrapped replay run measures 0.775 kWh / 0.2945 kg; rerun field-identical")


def test_criterion_7_forecast_properties():
    de = carbon.CarbonIntensity("DE", 380.0)

    def epoch(k: int, kwh: float) -> forecast.PhaseSummary:
        return forecast.PhaseSummary(f"epoch {k}", 0.5, kwh, carbon.co2e(kwh, de))

    # fixed point: k == N reproduces the measured totals
    rng = random.Random(77)
    for _ in range(50):
        n = rng.randint(1, 8)
        epochs = [epoch(k, rng.uniform(0.05, 2.0)) for k in range(1, n + 1)]
        setup = forecast.PhaseSummary("setup", 0.1, rng.uniform(0.0, 0.2), 0.0)
        predicted = forecast.predict(epochs, setup, n, de)
        measured = setup.facility_kwh + math.fsum(e.facility_kwh for e in epochs)
        assert predicted.predicted_kwh == pytest.approx(measured, rel=1e-12)

    # homogeneous epochs: the k=1 forecast already equals the final figure
    pairs = [(t, 240.0) for t in range(0, 5_400_001, 60_000)]
    events = ["TRAIN_START 0"]
    for k in range(1, 4):
        events.append(f"EPOCH_START {k} {(k - 1) * 1_800_000}")
        events.append(f"EPOCH_END {k} {k * 1_800_000}")
    events.append("TRAIN_END 5400000")
    log = make_log({"g": pairs}, interval_ms=60_000, event_lines=events)
    from carbonledger.sampler import slice_phase

    per_epoch = [
        forecast.PhaseSummary(
            f"epoch {k}", 0.5, integrate_energy(slice_phase(log, f"epoch:{k}"), 1.55).facility_kwh, 0.0
        )
        for k in range(1, 4)
    ]
    homogeneous = forecast.predict(per_epoch[:1], None, 3, de)
    final = integrate_energy(slice_phase(log, "run"), 1.55).facility_kwh
    assert homogeneous.predicted_kwh == pytest.approx(final, rel=1e-9)

    # the 0.10/0.12/0.14 ramp: 0.30 / 0.33 / 0.36 after k = 1/2/3
    ramp = [epoch(1, 0.10), epoch(2, 0.12), epoch(3, 0.14)]
    f1 = forecast.predict(ramp[:1], None, 3, de)
    f2 = forecast.refine(f1, ramp[1])
    f3 = forecast.refine(f2, ramp[2])
    assert f1.predicted_kwh == pytest.approx(0.30, rel=1e-12)
    assert f2.predicted_kwh == pytest.approx(0.33, rel=1e-12)
    assert f3.predicted_kwh == pytest.approx(0.36, rel=1e-12)
    announce(7, "fixed point exact, homogeneous k=1 within 1e-9, ramp 0.30/0.33/0.36")


def test_criterion_8_kgverb_properties():
    rng = random.Random(888)
    words = "time stone river cloud iron glass north small quiet bright".split()

    # mask/unmask round-trip over 1000 random cases
    for _ in range(1000):
        tokens = [rng.choice(words) for _ in range(rng.randint(1, 25))]
        probability = rng.uniform(0.02, 0.9)
        pair = mask_tokens(tokens, probability, seed=rng.randrange(2**31))
        assert unmask(pair) == tuple(tokens)

    # masked fraction concentrates at p = 0.15 over 10,000 tokens
    pair = mask_tokens([f"t{i}" for i in range(10_000)], 0.15, seed=1234)
    fraction = sum(len(span) for span in pair.labels) / 10_000
    assert abs(fraction - 0.15) <= 3 * math.sqrt(0.15 * 0.85 / 10_000)

    # select_top invariant under permutation
    triples = [
        WeightedTriple(rng.choice("abcd"), "IsA", f"o{i}", rng.choice((1.0, 2.0, 3.0)))
        for i in range(40)
    ]
    for scope in ("global", "per-subject"):
        expected = select_top(triples, 5, scope)
        for _ in range(5):
            shuffled = triples[:]
            rng.shuffle(shuffled)
            assert select_top(shuffled, 5, scope) == expected

    # early stopper equals the brute-force oracle, incl. the worked example
    def oracle(losses: list[float], patience: int) -> int | None:
        for k in range(patience, len(losses) + 1):
            window = range(k - patience + 1, k + 1)
            if all(losses[j - 1] >= min(losses[: j - 1], default=float("inf")) for j in window):
                return k
        return None

    assert early_stop_index([1.0, 0.9, 0.9, 0.9, 0.9], 3) == 5
    for _ in range(1000):
        losses = [rng.choice((0.1, 0.2, 0.3, 0.5, 0.9)) for _ in range(rng.randint(1, 40))]
        patience = rng.randint(1, 5)
        assert early_stop_index(losses, patience) == oracle(losses, patience)
    announce(8, "mask round-trip x1000, 3-sigma fraction, permutation-stable top-n, stopper oracle x1000")


MALFORMED_EVENT_LINES = [
    "",
    "NOPE 0",
    "TRAIN_START",
    "TRAIN_START 0 0",
    "TRAIN_START abc",
    "TRAIN_START -5",
    "TRAIN_START 5.5",
    "EPOCH_START 1",
    "EPOCH_START 0 100",
    "EPOCH_START one 100",
    "EPOCH_END 2 15",
    "EPOCH_START 3 15",
    "METRIC 1 val_loss 0.5",
    "METRIC 1 val_loss abc 100",
    "METRIC 1 val_loss nan 100",
    "METRIC 9 val_loss 0.5 100",
    "metric 1 val_loss 0.5 100",
    "EPOCH_START 1  100",
    "TRAIN_END",
    "EPOCH_END 1 100 extra",
]


def test_criterion_9_serialization_round_trips(tmp_path):
    # ledger JSONL: append, parse, render JSON, parse again, byte-stable
    path = tmp_path / "ledger.jsonl"
    for label, hours, kwh, _, _ in GOLDEN_ROWS[:3]:
        ledger.append_record(
            path, make_record(label=label, hours=hours, kwh=kwh, phase_breakdown=())
        )
    records = read_records(path)
    document = render_report(records, "json")
    reparsed = ledger.parse_report_json(document)
    assert reparsed == records
    assert render_report(reparsed, "json") == document
    assert json.loads(document)[0]["v"] == 1

    # the event grammar accepts exactly the protocol and counts rejects
    valid = ["TRAIN_START 0", "EPOCH_START 1 10", "METRIC 1 val_loss 0.5 15", "EPOCH_END 1 20", "TRAIN_END 30"]
    log = make_log({}, event_lines=valid)
    assert (len(log.events), log.metric_lines, log.violations) == (4, 1, 0)
    assert log.metrics == {1: {"val_loss": 0.5}}

    assert len(MALFORMED_EVENT_LINES) == 20
    interleaved = valid[:2] + MALFORMED_EVENT_LINES + valid[2:]
    events, violations = parse_events(interleaved)
    assert violations == 20
    assert events == log.events
    assert make_log({}, event_lines=interleaved).metrics == log.metrics
    announce(9, "ledger and report JSON round-trip stable; 20 crafted bad event lines rejected")
