"""The public surface: every exported name exists, the README's Python
examples run as written, its CLI examples parse, its config defaults are
the library's, and every function it calls still exists.
"""

import builtins
import importlib
import json
import os
import pkgutil
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

import warpmix
from warpmix.cli import build_parser

ROOT = Path(__file__).resolve().parents[1]
MODULES = sorted(info.name for info in pkgutil.iter_modules(warpmix.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_every_name_in_all_exists(name):
    # a stale __all__ entry makes `from warpmix.<module> import *` fail
    module = importlib.import_module(f"warpmix.{name}")
    missing = [attr for attr in getattr(module, "__all__", []) if not hasattr(module, attr)]
    assert missing == []


def test_import_leaves_the_process_pool_out():
    # only a parallel grid needs multiprocessing; importing it costs every other user,
    # and nothing in the package logs
    code = ("import sys, warpmix; print([m for m in ('multiprocessing', 'concurrent.futures.process', 'logging')"
            " if m in sys.modules])")
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_readme_python_blocks_run(tmp_path):
    blocks = re.findall(r"^```python\n(.*?)^```", (ROOT / "README.md").read_text(encoding="utf-8"),
                        re.MULTILINE | re.DOTALL)
    assert len(blocks) >= 2  # the mixing and the metrics quick starts
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    for block in blocks:
        proc = subprocess.run([sys.executable, "-c", block], cwd=tmp_path, env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, f"{block}\n{proc.stderr}"


def test_readme_cli_lines_parse():
    # parsed, not run: a flag that a verb no longer takes must not stay documented
    blocks = re.findall(r"^```sh\n(.*?)^```", (ROOT / "README.md").read_text(encoding="utf-8"),
                        re.MULTILINE | re.DOTALL)
    lines = [line for block in blocks for line in block.splitlines() if line.startswith("warpmix ")]
    assert len(lines) >= 6  # train, then the five verbs under one config
    for line in lines:
        try:
            build_parser().parse_args(shlex.split(line)[1:])
        except SystemExit:
            pytest.fail(f"README line does not parse: {line}")


def test_readme_config_defaults_equal_default_config():
    # the README's defaults block is written by hand: a key added, deleted or given
    # a new default in DEFAULT_CONFIG must change it too
    from warpmix import DEFAULT_CONFIG

    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Configuration defaults\n", 1)[1]
    block = re.match(r"\s*```json\n(.*?)^```", section, re.MULTILINE | re.DOTALL)
    assert block is not None, "no ```json block opens the Configuration defaults section"
    assert json.loads(block.group(1)) == DEFAULT_CONFIG


def _names_something(dotted):
    """Whether ``dotted`` (``name`` or ``name.attr``) is an attribute of warpmix,
    of one of its modules, or a Python builtin, under its own name: an alias
    such as ``warping.incomplete_beta_reg``, the private kernel, does not count."""
    for namespace in (warpmix, *(importlib.import_module(f"warpmix.{name}") for name in MODULES), builtins):
        target = namespace
        for part in dotted.split("."):
            target = getattr(target, part, None)
        if getattr(target, "__name__", None) == part:
            return True
    return False


def test_readme_calls_name_existing_functions():
    # a backticked call such as `warp_pairwise(...)` is written by hand: a function
    # deleted or renamed in the package must leave the README too
    calls = set(re.findall(r"`([A-Za-z_][\w.]*)\(", (ROOT / "README.md").read_text(encoding="utf-8")))
    assert len(calls) >= 15
    assert sorted(call for call in calls if not _names_something(call)) == []
