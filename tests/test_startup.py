"""Start-up guard: each ``repro`` command loads only what it runs.

Every package namespace is lazy and every CLI handler imports its own
dependencies, so short commands skip the engines, the campaign layer
and ``multiprocessing`` they never call.  These tests run each command
in a fresh interpreter and check which modules it loaded.
"""

import json
import os
import pathlib
import subprocess
import sys

SRC = pathlib.Path(__file__).resolve().parents[1] / "src"

# Run the CLI with stdout swallowed, then print the loaded modules.
_CHILD = """
import contextlib, io, json, sys
argv = json.loads(sys.argv[1])
with contextlib.redirect_stdout(io.StringIO()):
    import repro.cli
    if argv is not None:
        try:
            code = repro.cli.main(argv)
        except SystemExit as exc:
            code = exc.code
        assert code == 0, code
print(json.dumps(sorted(sys.modules)))
"""

# Import every module on its own, dropping all of ``repro`` in between.
_EACH_ALONE = """
import importlib, json, pathlib, sys
root = pathlib.Path(sys.argv[1])
names = []
for path in sorted(root.rglob("*.py")):
    parts = path.relative_to(root.parent).with_suffix("").parts
    if parts[-1] == "__main__":
        continue
    if parts[-1] == "__init__":
        parts = parts[:-1]
    names.append(".".join(parts))
failures = []
for name in names:
    for loaded in [m for m in sys.modules if m.split(".")[0] == "repro"]:
        del sys.modules[loaded]
    try:
        importlib.import_module(name)
    except Exception as exc:
        failures.append(f"{name}: {exc!r}")
print(json.dumps({"modules": names, "failures": failures}))
"""


def _run(code, *args, cwd=None):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    result = subprocess.run(
        [sys.executable, "-c", code, *args],
        capture_output=True, text=True, env=env, cwd=cwd, timeout=300,
    )
    assert result.returncode == 0, result.stderr[-2000:]
    return json.loads(result.stdout.splitlines()[-1])


def loaded_by(argv, cwd=None):
    """Module names loaded by ``import repro.cli`` and then, unless
    ``argv`` is None, by ``repro.cli.main(argv)``."""
    return set(_run(_CHILD, json.dumps(argv), cwd=cwd))


def offenders(modules, *prefixes):
    return sorted(
        m for m in modules
        if any(m == p or m.startswith(p + ".") for p in prefixes)
    )


ENGINES = ("repro.core", "repro.analysis", "repro.protocols", "repro.runtime")


class TestCommandClosures:
    def test_import_and_help_load_no_engine(self):
        for argv in (None, ["--help"], ["campaign", "--help"]):
            modules = loaded_by(argv)
            assert offenders(modules, *ENGINES, "multiprocessing") == [], argv

    def test_engine_commands_skip_analysis_and_timed_runtime(self):
        for argv in (
            ["classify", "--graph", "complete:7", "--faults", "2"],
            ["refute", "byzantine"],
        ):
            modules = loaded_by(argv)
            assert "repro.graphs.adequacy" in modules
            assert offenders(
                modules, "repro.analysis", "repro.runtime.timed"
            ) == [], argv

    def test_serial_eig_campaign_skips_core_and_multiprocessing(
        self, tmp_path
    ):
        modules = loaded_by(
            [
                "campaign", "--protocol", "eig", "--graph", "complete:4",
                "--faults", "1", "--links", "0", "--attempts", "20",
                "--checkpoint", str(tmp_path / "store"),
            ],
            cwd=tmp_path,
        )
        assert "repro.analysis.campaign" in modules
        assert offenders(modules, "repro.core", "multiprocessing") == []


class TestModulesImportAlone:
    def test_every_module_imports_in_a_fresh_state(self):
        # Eager package imports used to fix one import order for all
        # modules; lazily, any module may be the first one loaded.
        outcome = _run(_EACH_ALONE, str(SRC / "repro"))
        assert len(outcome["modules"]) > 80
        assert outcome["failures"] == []
