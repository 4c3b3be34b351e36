"""One benchmark process: runs ``plscycle.cli.main`` once and reports timestamps.

Usage: python3 perfbench/worker.py JOB.json

The job file gives the CLI argv, the name whose first return ends set-up,
whether to trace, whether to stop once set-up is done (a set-up probe), and
where to write the result. Timestamps are ``time.monotonic()``, which is
system-wide on Linux, so the harness can subtract its own spawn time from
them.

The worker also reports its peak resident memory, ``VmHWM`` from
/proc/self/status. The ``ru_maxrss`` that ``os.wait4`` gives the harness is
no use here: Linux carries the resident size of the forking process into the
child's figure, so every child would read at least the harness's own size.
"""

from __future__ import annotations

import json
import sys
import time


class SetupDone(BaseException):
    """Raised by a probe's set-up hook; not an Exception, so main() lets it through."""


def _mark_setup(module, name: str, out: dict, probe: bool) -> None:
    target = getattr(module, name)

    def marked(*args, **kwargs):
        result = target(*args, **kwargs)
        out.setdefault("setup_at", time.monotonic())
        if probe:
            raise SetupDone
        return result

    setattr(module, name, marked)


def _peak_rss_kib() -> int:
    with open("/proc/self/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM line in /proc/self/status")


def main() -> int:
    with open(sys.argv[1], encoding="utf-8") as handle:
        job = json.load(handle)
    out: dict = {}
    import plscycle.cli as cli

    out["import_done_at"] = time.monotonic()
    tracer = None
    if job["trace"]:
        from spans import Tracer

        tracer = Tracer()
        out["hooks"] = tracer.install()
    _mark_setup(cli, job["setup_hook"], out, job["probe"])
    rc = 0
    try:
        rc = cli.main(job["argv"])
    except SetupDone:
        pass
    out["peak_rss_kib"] = _peak_rss_kib()
    if tracer is not None:
        out["spans"] = tracer.spans
    with open(job["out"], "w", encoding="utf-8") as handle:
        json.dump(out, handle)
    return rc


if __name__ == "__main__":
    sys.exit(main())
