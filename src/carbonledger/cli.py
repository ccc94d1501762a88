"""Command-line surface: wrap-and-track a workload, report, predict.

The tracker is a wrapper, not a library embedded in the workload: ``run``
spawns the child command, points it at the event file via
``CARBONLEDGER_EVENTS``, samples the configured probes until the child
exits, appends one experiment record to the ledger, and propagates the
child's exit code. SIGINT and SIGTERM are forwarded to the child, so an
interrupted run still gets its record, noted ``interrupted``.

Exit codes: 0 success, 1 child/workload failure, 2 usage or config error.

Config precedence everywhere: flags > environment variables (only the
ledger and registry keys have one) > config file > built-in defaults.
``CARBONLEDGER_EVENTS`` is set for the child, never read. The config file
is flat ``key = value`` text (keys, any other a bad line: label, region,
pue, interval_ms, probe, ledger, events, registry, planned_epochs, car_factor).

A launch loads only what its command runs. The module level holds what
``main`` needs (``carbon`` and ``errors`` from the package); each command
imports the rest itself. ``report`` adds ``ledger``; ``regions`` nothing
more; ``predict`` adds ``forecast``. ``run`` adds ``probe`` (and so
``energy``), ``subprocess`` and ``tempfile`` before it spawns the child, so
a bad config, registry or probe still exits 2 with no child; ``sampler``,
``forecast``, ``ledger``, ``threading`` and ``uuid`` it imports right after
the spawn, where that work overlaps the child's own start-up and lands
before the first tick of the sampler.
"""

from __future__ import annotations

import argparse
import contextlib
import math
import os
import sys
from pathlib import Path
from typing import TYPE_CHECKING

from . import EVENTS_ENV, carbon
from .errors import BackendUnavailable, CarbonLedgerError, ConfigParseError, UsageError

if TYPE_CHECKING:
    from .probe import Probe, ProbeDescriptor
    from .sampler import SampleLog

LEDGER_ENV = "CARBONLEDGER_LEDGER"
REGISTRY_ENV = "CARBONLEDGER_REGISTRY"

# The only keys an environment variable can set; EVENTS_ENV is the child's, set by run.
_ENV_KEYS = {"ledger": LEDGER_ENV, "registry": REGISTRY_ENV}

_DEFAULTS = {
    "label": "run",
    "region": "DE",
    "pue": carbon.DEFAULT_PUE,
    "interval_ms": 1000,
    "ledger": "carbonledger.jsonl",
    "planned_epochs": 50,
    "car_factor": carbon.DEFAULT_CAR_KG_PER_KM,
}
_CONFIG_KEYS = {*_DEFAULTS, "probe", "events", "registry"}


def parse_probe_spec(spec: str, index: int) -> ProbeDescriptor:
    """Parse a --probe value.

    Forms: ``replay:PATH`` or ``replay:PATH*N`` (same trace fanned out to
    N sources), ``gpu`` or ``gpu:N``, ``cpu``. ``index`` keeps source ids
    unique when the flag repeats.
    """
    from .probe import ProbeDescriptor, ProbeKind

    kind, _, rest = spec.partition(":")
    base = kind if index == 0 else f"{kind}{chr(ord('a') + index - 1)}"
    if kind == "replay":
        if not rest:
            raise ValueError(f"replay probe needs a trace path: {spec!r}")
        path, star, count = rest.rpartition("*")
        if star and count.isdigit():
            return ProbeDescriptor(base, ProbeKind.REPLAY, int(count), path)
        return ProbeDescriptor(base, ProbeKind.REPLAY, 1, rest)
    if kind == "gpu":
        count = int(rest) if rest else 1
        return ProbeDescriptor(base, ProbeKind.GPU, count)
    if kind == "cpu":
        return ProbeDescriptor(base, ProbeKind.CPU, 1)
    raise ValueError(f"unknown probe kind in {spec!r}")


def load_config_file(path: str | Path) -> dict[str, str]:
    """Flat ``key = value`` config read through ``ConfigParseError.lines``; each
    line is stripped, so indented comments and whitespace-only lines skip too."""
    values: dict[str, str] = {}
    for line_no, raw in ConfigParseError.lines(path):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, eq, value = (part.strip() for part in line.partition("="))
        if not eq:
            raise ConfigParseError(str(path), line_no, "expected 'key = value'")
        if key not in _CONFIG_KEYS:
            raise ConfigParseError(str(path), line_no, f"unknown key {key!r}")
        values[key] = value
    return values


def _resolve(flag, config: dict[str, str], key: str):
    """The flag, else the key's environment variable, else config, else default."""
    if flag is not None:
        return flag
    env_name = _ENV_KEYS.get(key)
    if env_name and os.environ.get(env_name):
        return os.environ[env_name]
    return config.get(key, _DEFAULTS.get(key))


def _open_probes(specs: list[str], fallbacks: list[str]) -> list[Probe]:
    from .probe import open_probe

    probes: list[Probe] = []
    failed = 0
    for i, spec in enumerate(specs):
        descriptor = parse_probe_spec(spec, i)
        try:
            probes.append(open_probe(descriptor))
        except BackendUnavailable as exc:
            failed += 1
            print(f"probe {spec!r} unavailable: {exc}", file=sys.stderr)
    if failed and not fallbacks:
        raise BackendUnavailable("a probe backend is unavailable and no --fallback-probe was given")
    for i, spec in enumerate(fallbacks if failed else []):
        probes.append(open_probe(parse_probe_spec(spec, len(specs) + i)))
    return probes


def _number(cast, flag, config: dict[str, str], key: str):
    """A numeric setting; a config value that is not a number names its key."""
    value = _resolve(flag, config, key)
    try:
        return cast(value)
    except ValueError:
        raise UsageError(f"config key {key!r}: expected a number, got {value!r}") from None


def cmd_run(args: argparse.Namespace) -> int:
    with contextlib.ExitStack() as cleanup:
        return _run(args, cleanup)


def _run(args: argparse.Namespace, cleanup: contextlib.ExitStack) -> int:
    """``run``; a temporary event file is removed by ``cleanup`` once the run ends."""
    import datetime
    import signal
    import subprocess
    import tempfile

    config = load_config_file(args.config) if args.config else {}
    pue = _number(float, args.pue, config, "pue")
    interval_ms = _number(int, args.interval_ms, config, "interval_ms")
    planned_epochs = _number(int, args.planned_epochs, config, "planned_epochs")
    car_factor = _number(float, args.car_factor, config, "car_factor")
    label = _resolve(args.label, config, "label")
    region = _resolve(args.region, config, "region")
    ledger_path = _resolve(args.ledger, config, "ledger")
    registry_path = _resolve(args.registry, config, "registry")
    events_path = _resolve(args.events, config, "events")
    probe_specs = args.probe or ([config["probe"]] if "probe" in config else [])
    if not (1 <= pue < math.inf and interval_ms >= 1 and planned_epochs >= 1 and 0 < car_factor < math.inf):
        raise UsageError("pue must be >= 1, interval-ms >= 1, planned-epochs >= 1 and car-factor > 0, all finite")
    if not probe_specs:
        raise UsageError("at least one --probe is required")
    if not args.child:
        raise UsageError("no child command given (use: run [options] -- <command> ...)")

    registry = carbon.load_intensity_registry(registry_path)
    if region not in registry:
        raise UsageError(f"region {region!r} not in intensity registry")
    intensity = registry[region]

    try:
        probes = _open_probes(probe_specs, args.fallback_probe or [])
    except ValueError as exc:
        raise UsageError(str(exc)) from None

    if events_path is None:
        fd, events_path = tempfile.mkstemp(prefix="carbonledger-", suffix=".events")
        os.close(fd)
        cleanup.callback(os.unlink, events_path)
    # the event file is this run's private channel: start it empty so a
    # reused path cannot leak a previous run's events into the log
    events_file = Path(events_path)
    events_file.parent.mkdir(parents=True, exist_ok=True)
    events_file.write_text("", encoding="utf-8")

    env = dict(os.environ)
    env[EVENTS_ENV] = str(events_path)
    started_at = datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="seconds")
    try:
        child = subprocess.Popen(args.child, env=env)
    except OSError as exc:
        print(f"cannot spawn child: {exc}", file=sys.stderr)
        return 1

    # SIGINT and SIGTERM go to the child; the tracker outlives it to
    # write the record
    interrupted = False
    forwarded = (signal.SIGINT, signal.SIGTERM)
    previous_handlers = {signum: signal.getsignal(signum) for signum in forwarded}

    def forward_interrupt(signum, frame):
        nonlocal interrupted
        interrupted = True
        child.send_signal(signum)

    for signum in forwarded:
        signal.signal(signum, forward_interrupt)

    # imported only now, so this work overlaps the child's interpreter start
    import threading
    import uuid

    from . import forecast, ledger
    from .sampler import run_sampler

    early: forecast.Forecast | None = None

    def maybe_forecast(snapshot: SampleLog) -> None:
        nonlocal early
        if early is not None:
            return
        setup, epochs = forecast.phase_summaries(snapshot, pue, intensity)
        if not epochs:
            return
        early = forecast.predict(epochs[:1], setup, planned_epochs, intensity)
        print(
            f"forecast after epoch 1: {early.predicted_kwh:.3f} kWh, "
            f"{early.predicted_co2e_kg:.4f} kg CO2e, {early.predicted_duration_hours:.3f} h "
            f"for {early.planned_epochs} planned epochs"
        )

    # The waiter reaps the child and wakes the sampler's pause at once. It
    # holds the child's waitpid lock meanwhile, so send_signal's poll()
    # returns None and a forwarded signal is still sent.
    exited = threading.Event()

    def reap() -> None:
        child.wait()
        exited.set()

    threading.Thread(target=reap, name="carbonledger-reap", daemon=True).start()
    try:
        log = run_sampler(
            probes,
            interval_ms,
            events_path,
            stop_condition=exited.is_set,
            on_tick=maybe_forecast,
            wait=exited.wait,
        )
    finally:
        for signum, handler in previous_handlers.items():
            signal.signal(signum, handler)
    exit_code = child.wait()

    record = forecast.account(
        log, experiment_id=uuid.uuid4().hex[:12], label=label, started_at=started_at, intensity=intensity,
        pue=pue, car_factor=car_factor, exit_code=exit_code, interrupted=interrupted,
    )
    ledger.append_record(ledger_path, record)
    _write_stdout(ledger.render_report([record], "text").encode("utf-8"))
    if early is not None:
        print(
            f"forecast after epoch 1 was {early.predicted_kwh:.3f} kWh for "
            f"{early.planned_epochs} planned epochs; measured {record.energy_kwh:.3f} kWh "
            f"over {record.epochs_completed} epoch(s)"
        )
    return 128 - exit_code if exit_code < 0 else exit_code  # killed by signal N: 128 + N, as a shell says


def _write_stdout(data: bytes) -> None:
    """Write UTF-8 ``data`` to standard output whatever its encoding, so a
    label the locale cannot encode neither fails nor changes the bytes."""
    sys.stdout.flush()
    sys.stdout.buffer.write(data)


def cmd_report(args: argparse.Namespace) -> int:
    """Render every readable record; each bad line is named on stderr and exits 2."""
    from . import ledger

    ledger_path = _resolve(args.ledger, {}, "ledger")
    try:
        stored, errors = ledger.read_ledger(ledger_path, args.filter)
    except OSError as exc:
        print(f"cannot read ledger: {exc}", file=sys.stderr)
        return 2
    for error in errors:
        print(error, file=sys.stderr)
    document = ledger.render_stored(stored, args.format).encode("utf-8")
    if args.out:
        Path(args.out).write_bytes(document)
    else:
        _write_stdout(document)
    return 2 if errors else 0


def cmd_predict(args: argparse.Namespace) -> int:
    positive = 0 < args.kwh_per_epoch < math.inf and 0 < args.car_factor < math.inf
    if not (positive and args.epochs >= 1 and 0 <= args.setup_kwh < math.inf):
        raise UsageError("kwh-per-epoch must be > 0, epochs >= 1, setup-kwh >= 0 and car-factor > 0, all finite")
    if args.intensity is not None:
        grams = args.intensity
        if not 0 < grams < math.inf:
            raise UsageError("intensity must be finite and > 0")
    else:
        registry = carbon.load_intensity_registry(_resolve(args.registry, {}, "registry"))
        if args.region not in registry:
            raise UsageError(f"region {args.region!r} not in intensity registry")
        grams = registry[args.region].grams_per_kwh
    from .forecast import Forecast

    predicted = Forecast(
        basis_epochs=1,
        planned_epochs=args.epochs,
        includes_setup=True,
        intensity_g_per_kwh=grams,
        epoch_mean_hours=0.0,
        epoch_mean_kwh=args.kwh_per_epoch,
        setup_kwh=args.setup_kwh,
    )
    print(f"predicted energy: {predicted.predicted_kwh:.3f} kWh")
    print(f"predicted co2e: {predicted.predicted_co2e_kg:.3f} kg")
    print(f"car equivalent: {carbon.car_km_equivalent(predicted.predicted_co2e_kg, args.car_factor):.3f} km")
    return 0


def cmd_regions(args: argparse.Namespace) -> int:
    registry = carbon.load_intensity_registry(_resolve(args.registry, {}, "registry"))
    for region in sorted(registry):
        entry = registry[region]
        as_of = entry.as_of.isoformat() if entry.as_of else ""
        print(f"{region} {entry.grams_per_kwh:g} {entry.source} {as_of}".rstrip())
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="carbonledger",
        description="Track, extrapolate, ledger, and report experiment energy and CO2e",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="spawn a workload and track it")
    run.add_argument("--label", default=None)
    run.add_argument("--region", default=None)
    run.add_argument("--pue", type=float, default=None)
    run.add_argument("--interval-ms", type=int, default=None, dest="interval_ms")
    run.add_argument("--probe", action="append", default=None, help="replay:PATH[*N] | gpu[:N] | cpu")
    run.add_argument("--fallback-probe", action="append", default=None)
    run.add_argument("--ledger", default=None)
    run.add_argument("--events", default=None)
    run.add_argument("--registry", default=None)
    run.add_argument("--planned-epochs", type=int, default=None, dest="planned_epochs")
    run.add_argument("--car-factor", type=float, default=None, dest="car_factor")
    run.add_argument("--config", default=None)
    run.add_argument("child", nargs=argparse.REMAINDER, help="-- <command> [args...]")
    run.set_defaults(func=cmd_run)

    report = sub.add_parser("report", help="render ledger records")
    report.add_argument("--ledger", default=None)
    report.add_argument("--format", choices=("text", "csv", "json"), default="text")
    report.add_argument("--filter", default=None, help="label substring or exact experiment id")
    report.add_argument("--out", default=None)
    report.set_defaults(func=cmd_report)

    predict = sub.add_parser("predict", help="extrapolate a run from per-epoch energy")
    predict.add_argument("--kwh-per-epoch", type=float, required=True, dest="kwh_per_epoch")
    predict.add_argument("--epochs", type=int, required=True)
    predict.add_argument("--setup-kwh", type=float, default=0.0, dest="setup_kwh")
    predict.add_argument("--region", default="DE")
    predict.add_argument("--intensity", type=float, default=None, help="g/kWh, bypasses the registry")
    predict.add_argument("--registry", default=None)
    predict.add_argument("--car-factor", type=float, default=carbon.DEFAULT_CAR_KG_PER_KM)
    predict.set_defaults(func=cmd_predict)

    regions = sub.add_parser("regions", help="list known carbon intensities")
    regions.add_argument("--registry", default=None)
    regions.set_defaults(func=cmd_regions)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    child = getattr(args, "child", None)
    if child and child[0] == "--":
        args.child = child[1:]
    try:
        return args.func(args)
    except (CarbonLedgerError, OSError) as exc:
        print(str(exc), file=sys.stderr)
        return 2


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    sys.exit(main())
