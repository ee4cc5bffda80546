"""Cold ``python -m repro`` processes, timed from outside.

Each run is a fresh interpreter, so interpreter start and imports are in
its wall time.  ``os.wait4`` gives the CPU seconds and peak RSS of the
process together with every child it waited for (the engine's pool
workers), which is what a user of ``repro check --jobs N`` pays.
"""

from __future__ import annotations

import os
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from typing import Dict, List


@dataclass
class ColdRun:
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    returncode: int
    stdout: bytes


def repro_env(root: str, workdir: str) -> Dict[str, str]:
    """Environment for a ``repro`` subprocess built from the checkout's
    sources, with temporary files kept inside the run's work directory."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(root, "src")
    env["TMPDIR"] = workdir
    env.pop("REPRO_FAULTS", None)
    env.pop("REPRO_TRACE", None)
    return env


def run_repro(args: List[str], env: Dict[str, str], workdir: str) -> ColdRun:
    """Run ``python -m repro ARGS`` to completion and measure it."""
    out_path = os.path.join(workdir, "cold.stdout")
    err_path = os.path.join(workdir, "cold.stderr")
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        started = time.perf_counter()
        process = subprocess.Popen(
            [sys.executable, "-m", "repro", *args],
            stdout=out, stderr=err, env=env, cwd=workdir,
        )
        _, status, usage = os.wait4(process.pid, 0)
        wall = time.perf_counter() - started
    # wait4 reaped the child; tell Popen so it does not wait again.
    process.returncode = os.waitstatus_to_exitcode(status)
    with open(out_path, "rb") as stream:
        stdout = stream.read()
    return ColdRun(
        wall_s=wall,
        cpu_s=usage.ru_utime + usage.ru_stime,
        peak_rss_mb=usage.ru_maxrss / 1024.0,
        returncode=process.returncode,
        stdout=stdout,
    )


def import_tax(env: Dict[str, str], workdir: str, repeats: int) -> float:
    """Median wall seconds of a cold ``repro tools``: the interpreter and
    import cost every check pays before it reads its trace.  One
    discarded run first, so bytecode caches are written."""
    run_repro(["tools"], env, workdir)
    return statistics.median(
        run_repro(["tools"], env, workdir).wall_s for _ in range(repeats)
    )
