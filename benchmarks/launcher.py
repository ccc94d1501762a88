"""Spawn one tracker process from a small parent and report how it ran.

Usage: launcher.py SIDE_FILE [--kill-when PATH] -- COMMAND...

The benchmark holds large reference data, and a child's ``ru_maxrss``
includes the resident size of the process it was spawned from, so the
tracker is spawned from this small process instead. The launcher stamps
the launch and exit on the system-wide monotonic clock, waits with
``os.wait4`` and writes ``{t_launch, t_exit, code, cpu_s, maxrss_kb}`` to
SIDE_FILE. The command runs in a process group of its own. With
``--kill-when PATH`` the launcher kills that group, the tracker and its
tracked job, as soon as PATH exists (used to cut a probe run short). As
child subreaper it reaps whatever a killed command leaves behind, so no
process outlives it.
"""

import ctypes
import json
import os
import signal
import sys
import time

TIMEOUT_S = 150
_PR_SET_CHILD_SUBREAPER = 36


def main() -> int:
    argv = sys.argv[1:]
    split = argv.index("--")
    opts, command = argv[:split], argv[split + 1 :]
    side = opts[0]
    kill_when = opts[opts.index("--kill-when") + 1] if "--kill-when" in opts else None

    libc = ctypes.CDLL(None, use_errno=True)
    if libc.prctl(_PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0) != 0:
        raise OSError(ctypes.get_errno(), "prctl(PR_SET_CHILD_SUBREAPER) failed")

    t_launch = time.monotonic()
    pid = os.posix_spawn(command[0], command, os.environ, setpgroup=0)

    def kill_group(*_) -> None:
        try:
            os.killpg(pid, signal.SIGKILL)
        except ProcessLookupError:
            pass

    signal.signal(signal.SIGALRM, kill_group)
    signal.alarm(TIMEOUT_S)
    if kill_when:
        while not os.path.exists(kill_when) and os.waitid(os.P_PID, pid, os.WEXITED | os.WNOHANG | os.WNOWAIT) is None:
            time.sleep(0.002)
        kill_group()
    _, status, usage = os.wait4(pid, 0)
    t_exit = time.monotonic()
    signal.alarm(0)
    while True:  # orphans re-parented here after a kill
        try:
            os.waitpid(-1, 0)
        except ChildProcessError:
            break
    result = {
        "t_launch": t_launch,
        "t_exit": t_exit,
        "code": os.waitstatus_to_exitcode(status),
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "maxrss_kb": usage.ru_maxrss,
    }
    with open(side, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
