"""Environment record written with every benchmark result."""

from __future__ import annotations

import os
import platform
import subprocess
import sys
from pathlib import Path

PEAK_RSS_METHOD = "resource.getrusage(RUSAGE_SELF).ru_maxrss of the run process, KiB / 1024"


def _git_sha(root: Path) -> str:
    if not (root / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                              text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown (git failed)"
    return done.stdout.strip() if done.returncode == 0 else "unknown (git failed)"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _blas() -> dict:
    # threadpoolctl is not available, so the build-time record is all numpy offers;
    # the run-time thread count is the OPENBLAS_NUM_THREADS the benchmark sets.
    import numpy as np

    info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    config = info.get("openblas configuration", "")
    max_threads = next((w.split("=", 1)[1] for w in config.split() if w.startswith("MAX_THREADS=")), None)
    return {
        "name": info.get("name"),
        "version": info.get("version"),
        "build_max_threads": max_threads,
        "threads": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


def collect(root: Path) -> dict:
    import numpy as np
    import scipy

    return {
        "git_sha": _git_sha(root),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": _blas(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "platform": platform.platform(),
        "peak_rss_method": PEAK_RSS_METHOD,
    }
