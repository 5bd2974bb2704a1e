"""Where the program under test lives and how to start it.

The benchmark runs from the root of a source checkout. It imports
freeset_lab from that checkout's src/ directory, never from an installed
copy, and starts the CLI as `python -m freeset_lab` with the same src/ on
PYTHONPATH. A checkout without src/freeset_lab is refused.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PACKAGE = SRC / "freeset_lab"
WORK = ROOT / ".bench_build" / "freeset-lab"

# One CLI call never takes this long on the inputs the benchmark writes;
# the limit only keeps a hung child from outliving the benchmark.
CHILD_TIMEOUT_S = 150


def load() -> None:
    """Put the checkout's src/ first on sys.path and check the import."""
    if not (PACKAGE / "__init__.py").is_file():
        raise SystemExit(f"bench: no freeset_lab sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import freeset_lab

    if Path(freeset_lab.__file__).resolve().parent != PACKAGE.resolve():
        raise SystemExit(
            f"bench: imported freeset_lab from {freeset_lab.__file__}, not {PACKAGE}"
        )


def child_env(threads: int | None = None) -> dict:
    """Environment for a CLI child: this checkout's sources, default pool
    size unless `threads` pins FREESET_LAB_THREADS."""
    env = dict(os.environ)
    env.pop("FREESET_LAB_THREADS", None)
    if threads is not None:
        env["FREESET_LAB_THREADS"] = str(threads)
    old = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + old if old else "")
    return env


def run_cli(argv: list[str], threads: int | None = None) -> tuple[int, str]:
    """One `python -m freeset_lab` child; returns (exit code, stdout)."""
    proc = subprocess.run(
        [sys.executable, "-m", "freeset_lab", *argv],
        cwd=ROOT,
        env=child_env(threads),
        capture_output=True,
        text=True,
        timeout=CHILD_TIMEOUT_S,
    )
    return proc.returncode, proc.stdout


def run_python(code: str) -> None:
    """A bare `python -c CODE` child with this checkout's sources on the path."""
    subprocess.run(
        [sys.executable, "-c", code],
        cwd=ROOT,
        env=child_env(),
        check=True,
        capture_output=True,
        timeout=CHILD_TIMEOUT_S,
    )


def run_isolated() -> None:
    """A `python -I -c pass` child: interpreter start alone, blind to this
    checkout's sources and to the environment."""
    subprocess.run(
        [sys.executable, "-I", "-c", "pass"],
        cwd=ROOT,
        check=True,
        capture_output=True,
        timeout=CHILD_TIMEOUT_S,
    )


def default_workers() -> int:
    """The batch pool size the CLI uses when FREESET_LAB_THREADS is unset."""
    return min(8, os.cpu_count() or 1)
