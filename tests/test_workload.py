from __future__ import annotations

import random

import pytest

from carbonledger.sampler import EventKind, parse_events
from carbonledger.workload import (
    WorkloadConfig,
    default_loss,
    early_stop_index,
    main,
    run_workload,
)

from conftest import event_stream


def brute_force_stop(losses: list[float], patience: int) -> int | None:
    """Independent oracle: stop at the first epoch k whose trailing
    ``patience`` epochs each fail to beat the minimum of everything
    before them (prefix minima recomputed from scratch every time)."""
    for k in range(patience, len(losses) + 1):
        window = range(k - patience + 1, k + 1)  # 1-based epoch numbers
        if all(losses[j - 1] >= min(losses[: j - 1], default=float("inf")) for j in window):
            return k
    return None


def test_patience_arithmetic_example():
    assert early_stop_index([1.0, 0.9, 0.9, 0.9, 0.9], 3) == 5


def test_strictly_decreasing_never_stops():
    assert early_stop_index([1.0, 0.9, 0.8, 0.7, 0.6, 0.5], 3) is None


def test_plateau_after_six_stops_at_nine():
    losses = [1.0, 0.8, 0.7, 0.6, 0.55, 0.5] + [0.5] * 44
    assert early_stop_index(losses, 3) == 9


def test_early_stopper_matches_brute_force_oracle():
    rng = random.Random(600613)
    for _ in range(1000):
        length = rng.randint(1, 40)
        # coarse grid keeps ties frequent, which is where stoppers go wrong
        losses = [rng.choice((0.1, 0.2, 0.3, 0.5, 0.9)) for _ in range(length)]
        patience = rng.randint(1, 5)
        assert early_stop_index(losses, patience) == brute_force_stop(losses, patience)


def test_default_loss_decays_then_plateaus():
    values = [default_loss(k) for k in range(1, 40)]
    assert values[0] > values[1] > values[5]
    assert min(values) == 0.1


def run_config(triples_file, events_path, **overrides) -> WorkloadConfig:
    base = dict(
        triples_path=str(triples_file),
        event_path=str(events_path),
        max_epochs=6,
        virtual_start_ms=0,
        epoch_ms=1000,
    )
    base.update(overrides)
    return WorkloadConfig(**base)


def test_workload_emits_protocol(tmp_path, triples_file):
    events_path = tmp_path / "events.log"
    result = run_workload(
        run_config(triples_file, events_path, losses=[1.0, 0.9, 0.8], max_epochs=3)
    )
    assert result.epochs_run == 3
    assert result.stopped_early is False
    events, violations = parse_events(events_path.read_text().splitlines())
    assert violations == 0
    kinds = [e.kind for e in events]
    assert kinds[0] is EventKind.TRAIN_START
    assert kinds[-1] is EventKind.TRAIN_END
    assert kinds.count(EventKind.EPOCH_START) == 3
    assert kinds.count(EventKind.EPOCH_END) == 3
    stream = event_stream(events_path.read_text().splitlines())
    assert stream.metrics == {1: {"val_loss": 1.0}, 2: {"val_loss": 0.9}, 3: {"val_loss": 0.8}}
    assert stream.metric_lines == 3


def test_workload_virtual_timeline(tmp_path, triples_file):
    events_path = tmp_path / "events.log"
    run_workload(
        run_config(
            triples_file,
            events_path,
            losses=[1.0, 0.9, 0.8],
            max_epochs=3,
            virtual_start_ms=500,
            epoch_ms=2000,
        )
    )
    events, _ = parse_events(events_path.read_text().splitlines())
    by_kind = {(e.kind, e.epoch_index): e.timestamp_ms for e in events}
    assert by_kind[(EventKind.TRAIN_START, 0)] == 500
    assert by_kind[(EventKind.EPOCH_START, 1)] == 500
    assert by_kind[(EventKind.EPOCH_END, 1)] == 2500
    assert by_kind[(EventKind.EPOCH_END, 3)] == 6500
    assert by_kind[(EventKind.TRAIN_END, 0)] == 6500


def test_workload_stops_on_plateau(tmp_path, triples_file):
    events_path = tmp_path / "events.log"
    result = run_workload(
        run_config(
            triples_file,
            events_path,
            losses=[1.0, 0.9, 0.9, 0.9, 0.9, 0.9],
            max_epochs=50,
            patience=3,
        )
    )
    assert result.epochs_run == 5
    assert result.stopped_early is True


def test_workload_plateau_after_six_improvements_stops_at_nine(tmp_path, triples_file):
    # improvement through epoch 6, flat afterwards, 50 max, patience 3
    losses = [1.0, 0.8, 0.7, 0.6, 0.55, 0.5]
    result = run_workload(
        run_config(triples_file, events_path=tmp_path / "e.log", losses=losses, max_epochs=50)
    )
    assert result.epochs_run == 9
    assert result.stopped_early is True


def test_workload_schedule_exhaustion_plateaus(tmp_path, triples_file):
    # single loss value: epochs 2..4 never improve, stop at 4
    result = run_workload(
        run_config(triples_file, tmp_path / "e.log", losses=[0.5], max_epochs=10)
    )
    assert result.epochs_run == 4


def test_workload_is_deterministic(tmp_path, triples_file):
    first = run_workload(run_config(triples_file, tmp_path / "a.log", losses=[1.0, 0.9, 0.8], max_epochs=3))
    second = run_workload(run_config(triples_file, tmp_path / "b.log", losses=[1.0, 0.9, 0.8], max_epochs=3))
    assert first.checksum == second.checksum
    assert (tmp_path / "a.log").read_text() == (tmp_path / "b.log").read_text()


def test_workload_requires_event_path(tmp_path, triples_file, monkeypatch):
    monkeypatch.delenv("CARBONLEDGER_EVENTS", raising=False)
    with pytest.raises(ValueError):
        run_workload(WorkloadConfig(triples_path=str(triples_file)))


def test_workload_unwritable_event_path(tmp_path, triples_file):
    with pytest.raises(OSError):
        run_workload(run_config(triples_file, tmp_path / "missing" / "events.log"))


def test_workload_env_var_supplies_event_path(tmp_path, triples_file, monkeypatch):
    events_path = tmp_path / "env-events.log"
    monkeypatch.setenv("CARBONLEDGER_EVENTS", str(events_path))
    config = WorkloadConfig(
        triples_path=str(triples_file), losses=[1.0], max_epochs=1, virtual_start_ms=0
    )
    run_workload(config)
    assert events_path.exists()


def test_cli_main_runs(tmp_path, triples_file, monkeypatch, capsys):
    events_path = tmp_path / "events.log"
    monkeypatch.setenv("CARBONLEDGER_EVENTS", str(events_path))
    code = main(
        [
            "--triples",
            str(triples_file),
            "--max-epochs",
            "2",
            "--losses",
            "1.0,0.5",
            "--virtual-start-ms",
            "0",
            "--corpus-out",
            str(tmp_path / "corpus.txt"),
        ]
    )
    assert code == 0
    assert "2 epoch(s)" in capsys.readouterr().out
    assert (tmp_path / "corpus.txt").exists()
    assert events_path.exists()


def test_cli_main_bad_losses(tmp_path, triples_file, monkeypatch):
    monkeypatch.setenv("CARBONLEDGER_EVENTS", str(tmp_path / "e.log"))
    assert main(["--triples", str(triples_file), "--losses", "abc"]) == 2


def test_cli_main_custom_templates(tmp_path, triples_file, monkeypatch, capsys):
    templates = tmp_path / "templates.tsv"
    templates.write_text(
        "AtLocation\t{s} sits in {o}\nIsA\t{s} counts as {o}\n", encoding="utf-8"
    )
    corpus = tmp_path / "corpus.txt"
    monkeypatch.setenv("CARBONLEDGER_EVENTS", str(tmp_path / "e.log"))
    code = main(
        [
            "--triples",
            str(triples_file),
            "--templates",
            str(templates),
            "--max-epochs",
            "1",
            "--losses",
            "1.0",
            "--virtual-start-ms",
            "0",
            "--corpus-out",
            str(corpus),
        ]
    )
    assert code == 0
    text = corpus.read_text(encoding="utf-8")
    assert "refrigerator sits in kitchen" in text
    # relations without a template in the custom table are skipped
    assert "oven" not in text


@pytest.mark.parametrize(
    "triples, templates, line_no, reason",
    [
        (b"a\tIsA\tb\t1\na\tIsA\tb\n", None, 2, "expected 4 fields, got 3"),
        (b"# caf\xe9\na\tIsA\tb\t1\n", None, 1, "not UTF-8"),
        (b"a\tIsA\tb\t1\n", b"# ok\nIsA {s} is {o}\n", 2, "expected 2 fields, got 1"),
        (b"a\tIsA\tb\t1\n", b"IsA\t{s} is {o}\nPartOf\t{s} \xff {o}\n", 2, "not UTF-8"),
        (b"a\tIsA\tb\t1\n", b"# ok\nIsA\t{s} is a thing\n", 2, "template for 'IsA' must contain {s} and {o} exactly once"),
    ],
    ids=["malformed-triples", "triples-not-utf8", "malformed-templates", "templates-not-utf8", "template-placeholders"],
)
def test_cli_main_bad_input_file_exits_two_naming_file_and_line(
    tmp_path, monkeypatch, capsys, triples, templates, line_no, reason
):
    monkeypatch.setenv("CARBONLEDGER_EVENTS", str(tmp_path / "e.log"))
    paths = {"triples": tmp_path / "t.tsv", "templates": tmp_path / "templates.tsv"}
    paths["triples"].write_bytes(triples)
    args = ["--triples", str(paths["triples"]), "--max-epochs", "1", "--virtual-start-ms", "0"]
    if templates is not None:
        paths["templates"].write_bytes(templates)
        args += ["--templates", str(paths["templates"])]
    bad = paths["triples" if templates is None else "templates"]
    assert main(args) == 2
    assert capsys.readouterr().err == f"{bad}:{line_no}: {reason}\n"
