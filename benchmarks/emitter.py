"""Benchmark-owned tracked job: writes a prepared event schedule.

It stands in for ``carbonledger-workload --virtual-start-ms``: same event
grammar, no training. Its first statement stamps the start, so the
benchmark can time the tracker's set-up up to the moment its child runs.

Modes:

* burst (``--batches-per-epoch 0``): the whole schedule in one write.
* paced: open loop. Each epoch's lines go out in equal batches on a fixed
  wall schedule (batch j is due at start + j * epoch_wall_s / batches);
  the emitter never waits for the tracker, and records how late it ran.
* ``--linger-s``: stay alive that long after the last line, as a job
  tearing down would, so the tracker has consumed the stream before the
  exit stamp and ``finalize_s`` times only the post-exit work.
The side file (JSON, replaced atomically) holds the monotonic stamps of
start, of the flush that carried ``EPOCH_END 1`` and of the exit, the
emitter's own rusage and its lateness. It is first written right after
the ``EPOCH_END 1`` flush, because a probe run is killed, job included,
once the tracker has printed its forecast; the exit rewrites it whole.
"""

import time

T_START = time.monotonic()

import argparse
import json
import os
import resource
import sys


def batches(lines: list[str], per_epoch: int) -> list[str]:
    """Split the schedule into per-epoch batches, EPOCH_END closing each."""
    if per_epoch == 0:
        return ["".join(lines)]
    epochs: list[list[str]] = [[]]
    for line in lines:
        epochs[-1].append(line)
        if line.startswith("EPOCH_END "):
            epochs.append([])
    out = []
    for chunk in epochs:
        if not chunk:
            continue
        size = -(-len(chunk) // per_epoch)
        out.extend("".join(chunk[i : i + size]) for i in range(0, len(chunk), size))
    return out


def save(side: dict, path: str) -> None:
    tmp = path + ".tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        json.dump(side, fh)
    os.replace(tmp, path)


def write_all(fd: int, data: bytes) -> None:
    view = memoryview(data)
    while view:
        view = view[os.write(fd, view) :]


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--schedule", required=True)
    parser.add_argument("--side", required=True)
    parser.add_argument("--batches-per-epoch", type=int, default=0)
    parser.add_argument("--epoch-wall-s", type=float, default=0.0)
    parser.add_argument("--linger-s", type=float, default=0.0)
    args = parser.parse_args()

    side = {"pid": os.getpid(), "t_start": T_START, "t_epoch1": None, "late_s": 0.0}
    with open(args.schedule, "r", encoding="utf-8") as fh:
        lines = fh.readlines()
    plan = batches(lines, args.batches_per_epoch)
    period = args.epoch_wall_s / args.batches_per_epoch if args.batches_per_epoch else 0.0
    fd = os.open(os.environ["CARBONLEDGER_EVENTS"], os.O_WRONLY | os.O_APPEND)
    try:
        t0 = time.monotonic()
        for j, batch in enumerate(plan):
            due = t0 + j * period
            now = time.monotonic()
            if now < due:
                time.sleep(due - now)
                now = time.monotonic()
            side["late_s"] = max(side["late_s"], now - due)
            write_all(fd, batch.encode("utf-8"))
            if side["t_epoch1"] is None and "EPOCH_END 1 " in batch:
                side["t_epoch1"] = time.monotonic()
                save(side, args.side)
    finally:
        os.close(fd)
    time.sleep(args.linger_s)
    side["t_exit"] = time.monotonic()
    usage = resource.getrusage(resource.RUSAGE_SELF)
    side["cpu_s"] = usage.ru_utime + usage.ru_stime
    save(side, args.side)
    return 0


if __name__ == "__main__":
    sys.exit(main())
