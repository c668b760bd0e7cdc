"""Running ``repro`` commands as child processes and checking their output.

Each command runs in a fresh interpreter with stdout and stderr sent to
files, and is reaped with ``os.wait4`` so its peak RSS comes from the
kernel's resource usage record.  Outputs are compared with the golden
stdout recorded for the same workload, program seed and command.
"""

from __future__ import annotations

import difflib
import hashlib
import itertools
import json
import os
import shutil
import signal
import subprocess
import sys
import threading
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

from workloads import CHECKPOINT, Workload

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
GOLDEN_DIR = BENCH_DIR / "golden"
TRACER = BENCH_DIR / "tracer.py"
# Scratch space for command output and checkpoint directories, one per
# benchmark process so concurrent runs in one checkout cannot collide;
# removed at the end of every run.
WORK_ROOT = ROOT / ".perfbench_work"
WORK_DIR = WORK_ROOT / str(os.getpid())
_RUNNER_IDS = itertools.count()

# The machine-speed reference: a fixed program that uses only the
# standard library, so no change to ``repro`` can alter its run time.
# It starts an interpreter and does the kind of work the CLI does
# (objects, tuples and frozensets as dict keys, sorting, JSON), and is
# timed as a child process exactly like a workload command.  How long it
# takes tracks how fast the host runs Python at that moment.
REFERENCE_PROGRAM = """\
import json
import random


class Entry:
    __slots__ = ("key", "hits")

    def __init__(self, key):
        self.key = key
        self.hits = []


def visit(table, key, i):
    entry = table.get(key)
    if entry is None:
        entry = table[key] = Entry(key)
    entry.hits.append(i)


rng = random.Random(1)
table = {}
for i in range(15000):
    visit(table, (rng.randrange(400), frozenset((i % 7, i % 11))), i)
rows = sorted(
    (e.key[0], sorted(e.key[1]), len(e.hits), sum(e.hits))
    for e in table.values()
)
print(len(rows), sum(r[3] for r in rows) % 1000003, len(json.dumps(rows)))
"""
# Times are reported at the speed where the reference program takes
# this long (its median on the 2-core VM the benchmark was written on).
REFERENCE_S = 0.2


class BenchError(RuntimeError):
    """The benchmark cannot run here (no program, unreadable golden data)."""


@dataclass
class Result:
    argv: list[str]
    wall_s: float
    code: int
    stdout: bytes
    stderr: bytes
    maxrss_kb: int


def check_program() -> None:
    """Fail unless the checkout holds the program's source."""
    if not (ROOT / "src" / "repro" / "cli.py").is_file():
        raise BenchError(f"no repro sources under {ROOT / 'src'}")


def child_env(hash_seed: str) -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = hash_seed
    return env


class Runner:
    """Runs commands until ``deadline`` (a ``perf_counter`` value); a
    command still running then is killed with its process group, which
    holds its pool workers too."""

    def __init__(self, deadline: float) -> None:
        self.deadline = deadline
        self.counter = 0
        self.tag = str(next(_RUNNER_IDS))
        WORK_DIR.mkdir(parents=True, exist_ok=True)

    def run(self, argv: list[str], hash_seed: str) -> Result:
        self.counter += 1
        out_path = WORK_DIR / f"out-{self.tag}-{self.counter}"
        err_path = WORK_DIR / f"err-{self.tag}-{self.counter}"
        timeout = max(self.deadline - perf_counter(), 1.0)
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            t0 = perf_counter()
            proc = subprocess.Popen(
                argv, stdout=out, stderr=err, cwd=ROOT,
                env=child_env(hash_seed), start_new_session=True,
            )
            timer = threading.Timer(timeout, _kill_group, (proc.pid,))
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                wall = perf_counter() - t0
                timer.cancel()
            proc.returncode = os.waitstatus_to_exitcode(status)
        stdout, stderr = out_path.read_bytes(), err_path.read_bytes()
        out_path.unlink()
        err_path.unlink()
        return Result(argv, wall, proc.returncode, stdout, stderr,
                      usage.ru_maxrss)

    def reference(self) -> float:
        """Wall time of one run of the reference program."""
        result = self.run([sys.executable, "-c", REFERENCE_PROGRAM], "0")
        if result.code != 0:
            raise BenchError(
                "the reference program failed: "
                + result.stderr.decode(errors="replace")[-2000:]
            )
        return result.wall_s

    def repro(self, seed: int, command: tuple[str, ...], hash_seed: str,
              prefix: list[str] | None = None,
              extra: tuple[str, ...] = ()) -> Result:
        """Run one workload command for program seed ``seed``; a fresh
        checkpoint directory replaces the placeholder and is removed
        afterwards."""
        checkpoint = WORK_DIR / f"ckpt-{self.tag}-{self.counter}"
        args = [str(checkpoint) if a == CHECKPOINT else a for a in command]
        if prefix is None:
            prefix = [sys.executable, "-m", "repro"]
        try:
            return self.run(
                prefix + ["--seed", str(seed), *args, *extra], hash_seed
            )
        finally:
            shutil.rmtree(checkpoint, ignore_errors=True)

    def traced(self, seed: int, command: tuple[str, ...],
               hash_seed: str) -> tuple[Result, dict | None]:
        """Run one command under the layer tracer; returns the result and
        the tracer's report (``None`` if the tracer wrote none)."""
        report_path = WORK_DIR / f"trace-{self.tag}-{self.counter}.json"
        prefix = [sys.executable, str(TRACER), str(report_path), "--"]
        result = self.repro(seed, command, hash_seed, prefix=prefix)
        try:
            report = json.loads(report_path.read_text())
        except (OSError, ValueError):
            report = None
        report_path.unlink(missing_ok=True)
        return result, report


def _kill_group(pid: int) -> None:
    try:
        os.killpg(pid, signal.SIGKILL)
    except (ProcessLookupError, PermissionError):
        pass


def remove_work_dir() -> None:
    shutil.rmtree(WORK_DIR, ignore_errors=True)
    try:
        WORK_ROOT.rmdir()
    except OSError:  # another run's directory is still there
        pass


# -- golden output ----------------------------------------------------------


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def golden_path(workload: Workload) -> Path:
    return GOLDEN_DIR / f"{workload.name}.json"


class Golden:
    """Recorded stdout per (program seed, command) and the number of
    campaign attempts each program seed scans.

    File layout: ``{"texts": {sha256: stdout}, "seeds": {seed: {"stdout":
    [[accepted sha256, ...] per command], "attempts": n}}}`` — equal
    outputs are stored once.  A command has more than one accepted
    stdout only where this commit's output depended on the hash seed.
    """

    def __init__(self, data: dict) -> None:
        self.texts: dict[str, str] = data["texts"]
        self.seeds: dict[str, dict] = data["seeds"]

    @classmethod
    def load(cls, path: Path) -> "Golden":
        try:
            return cls(json.loads(path.read_text()))
        except (OSError, ValueError, KeyError) as exc:
            raise BenchError(f"cannot read golden output {path}: {exc}")

    def attempts(self, seed: int) -> int:
        return self.seeds[str(seed)]["attempts"]

    def expected(self, seed: int, index: int) -> str:
        return self.texts[self.seeds[str(seed)]["stdout"][index][0]]

    def check(self, seed: int, index: int, result: Result,
              stdout: bytes | None = None) -> str | None:
        """``None`` if the command succeeded with the golden stdout, else
        a description of the difference.  ``stdout`` overrides the
        result's stdout (to check a prefix of it)."""
        if result.code != 0:
            tail = result.stderr.decode(errors="replace")[-2000:]
            return f"exit code {result.code}: {tail}"
        actual = result.stdout if stdout is None else stdout
        entry = self.seeds.get(str(seed))
        if entry is None:
            return f"no golden output for program seed {seed}"
        if digest(actual) in entry["stdout"][index]:
            return None
        diff = difflib.unified_diff(
            self.expected(seed, index).splitlines(),
            actual.decode(errors="replace").splitlines(),
            "golden", "actual", lineterm="",
        )
        return "stdout differs from golden:\n" + "\n".join(list(diff)[:40])
