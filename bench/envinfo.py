"""Where a run happened: machine, interpreter, libraries, commit and settings."""
from __future__ import annotations

import os
import platform
import subprocess
import sys
from pathlib import Path

#: thread and pool settings the run fixes or inherits
SETTINGS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "HOMLEAP_WORKERS",
)


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _cache_sizes():
    """{"L2": "2048K", ...} for cpu0, from sysfs; empty where sysfs has none."""
    sizes = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        if level in ("2", "3"):
            sizes[f"L{level}"] = size
    return sizes


def _commit(root):
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=root,
            capture_output=True,
            text=True,
            timeout=10,
            env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(root.parent)),
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def fingerprint(root) -> dict:
    import numpy
    import scipy

    return {
        "cpu_model": _cpu_model(),
        "nproc": nproc(),
        "caches": _cache_sizes(),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_commit": _commit(root),
        "settings": {name: os.environ.get(name) for name in SETTINGS},
    }
