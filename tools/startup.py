"""What each kind of vclabels call loads at start-up, and its peak memory.

Usage: python tools/startup.py [--src DIR] [--runs N] [CALL ...]

Runs each CALL (default: all, in the order below) N times (default 3) as
a fresh interpreter on the package in DIR (default ``src`` beside this
script's parent) and prints, per call, the ``vclabels`` modules it loaded
(``-X importtime``) and the least and greatest peak RSS in MB.  The child
reads its own peak as it exits: ``VmHWM`` from ``/proc/self/status``, or
``ru_maxrss`` where there is no such file.  That peak leaves out the pages
a forked parent shares with its child, which ``RUSAGE_CHILDREN`` counts.
The children run a copy of the package without its ``__pycache__`` and
write no bytecode, so each compiles every package module it loads from
source, as where no bytecode cache is written.  The family file of ``classify``, ``labels`` and ``homogenize`` is
the output of ``avoid --label 1010 --ground 16`` (697 members, maximum).
"""

from __future__ import annotations

import argparse
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

CALLS = {
    "import": None,  # python -c "import vclabels"
    "help": ["--help"],
    "classify": ["classify", "--in", "{family}"],
    "labels": ["labels", "--in", "{family}"],
    "avoid": ["avoid", "--label", "1010", "--ground", "20"],
    "sauer": ["verify", "sauer", "--label", "1010", "--ground", "20"],
    "label": ["label", "--formula", "x>y1 & x<y2"],
    "compile": ["compile", "--label", "1010"],
    "translate": ["translate", "--label", "1010"],
    "homogenize": ["homogenize", "--in", "{family}"],
    "t2": ["verify", "t2"],
    "l2": ["verify", "l2", "--label", "1010", "--pairs", "6"],
}

# Run by the child before the call; the exit handler reports the peak.
_PEAK = """
import atexit, sys

def _peak():
    try:
        with open("/proc/self/status") as status:
            kb = next(int(line.split()[1]) for line in status if line.startswith("VmHWM:"))
    except (OSError, StopIteration):
        import resource
        kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        if sys.platform == "darwin":  # bytes there
            kb //= 1024
    sys.stderr.write(f"peak_kb {kb}\\n")

atexit.register(_peak)
"""
_RUN_CLI = 'import runpy; sys.argv[0] = "vclabels"; runpy.run_module("vclabels", run_name="__main__", alter_sys=True)'


def measure(argv: list[str] | None, env: dict[str, str]) -> tuple[list[str], int, bytes]:
    """The modules a fresh child loads, its peak RSS in kB and its stdout.

    ``argv`` is a CLI argument list, or None for ``import vclabels`` alone.
    """
    code = _PEAK + ("import vclabels" if argv is None else _RUN_CLI)
    done = subprocess.run(
        [sys.executable, "-X", "importtime", "-c", code, *(argv or [])],
        capture_output=True, env=env,
    )
    modules, peak = [], None
    for line in done.stderr.decode().splitlines():
        if line.startswith("import time:"):
            name = line.rsplit("|", 1)[1].strip()
            if name.split(".")[0] == "vclabels":
                modules.append(name)
        elif line.startswith("peak_kb "):
            peak = int(line.split()[1])
    if done.returncode or peak is None:
        raise RuntimeError(f"{argv} exited {done.returncode}: {done.stderr.decode()[-500:]}")
    return modules, peak, done.stdout


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(prog="startup.py")
    parser.add_argument("--src", type=Path, default=Path(__file__).resolve().parent.parent / "src")
    parser.add_argument("--runs", type=int, default=3)
    parser.add_argument("calls", nargs="*", choices=[[], *CALLS], metavar="CALL")
    args = parser.parse_args(argv[1:])
    src, runs, names = args.src, args.runs, args.calls or list(CALLS)
    with tempfile.TemporaryDirectory() as scratch:
        package = Path(scratch) / "vclabels"
        shutil.copytree(src / "vclabels", package, ignore=shutil.ignore_patterns("__pycache__"))
        env = dict(os.environ, PYTHONPATH=scratch, PYTHONDONTWRITEBYTECODE="1")
        family = Path(scratch) / "family.txt"
        family.write_bytes(measure(["avoid", "--label", "1010", "--ground", "16"], env)[2])
        print(f"{'call':<12}{'peak_mb':>15}  modules")
        for name in names:
            call = CALLS[name]
            call = call and [arg.format(family=family) for arg in call]
            peaks = []
            for _ in range(runs):
                modules, peak, _ = measure(call, env)
                peaks.append(peak)
            shown = " ".join(module.removeprefix("vclabels.") for module in modules)
            span = f"{min(peaks) / 1024:.2f}-{max(peaks) / 1024:.2f}"
            print(f"{name:<12}{span:>15}  {shown}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
