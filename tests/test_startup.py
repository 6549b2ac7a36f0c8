"""What a cpdshift process imports, read from sys.modules in a fresh interpreter.

The report commands import only what they run: no dataclasses, inspect,
logging, typing or wab.  The examples command and CPDSHIFT_LOG load the
rest on demand.  Every module the span tracer in bench/spans.py wraps is
loaded by `from cpdshift import cli`.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import cpdshift
import pytest

SRC = Path(cpdshift.__file__).resolve().parents[1]
BENCH = SRC.parent / "bench"
SPEC = '{"b": 0.3, "c": 0.2, "nu": {"atoms": [[0.5, 0.4], [2.0, 1.0], [3.5, 0.3]]}}'
ISO = '{"b": 0.0, "c": 0.0, "nu": {"atoms": []}}'
NOT_ON_THE_COMMAND_PATH = {"dataclasses", "inspect", "logging", "typing", "cpdshift.wab"}

# runs cli.main on argv and prints, as its last line, what that added to sys.modules
MAIN = """
import json, sys
before = set(sys.modules)
from cpdshift.cli import main
code = main(sys.argv[1:])
logging = sys.modules.get("logging")
print(json.dumps({
    "code": code,
    "added": sorted(set(sys.modules) - before),
    "root_level": logging.getLogger().level if logging else None,
}))
"""


def fresh(code: str, *argv: str, **env: str) -> str:
    """The last line that `python -c code argv` prints, with src on the path."""
    environ = {k: v for k, v in os.environ.items() if k != "CPDSHIFT_LOG"}
    path = os.pathsep.join(p for p in (str(SRC), environ.get("PYTHONPATH")) if p)
    environ.update(env, PYTHONPATH=path)
    proc = subprocess.run(
        [sys.executable, "-c", code, *argv], env=environ, capture_output=True, text=True, check=True
    )
    return proc.stdout.splitlines()[-1]


def run_main(*argv: str, **env: str) -> dict:
    return json.loads(fresh(MAIN, *argv, **env))


@pytest.fixture(scope="module")
def numpy_imports() -> set:
    """What `import numpy` adds to a fresh interpreter: the Hankel oracle's, not cpdshift's."""
    code = "import json, sys; b = set(sys.modules); import numpy; print(json.dumps(sorted(set(sys.modules) - b)))"
    return set(json.loads(fresh(code)))


@pytest.mark.parametrize(
    "argv",
    [
        ("classify", SPEC),
        ("subnormal", SPEC),
        ("similar", SPEC),
        ("model", SPEC),
        ("compare", SPEC, ISO),
    ],
    ids=lambda argv: argv[0],
)
def test_commands_import_only_what_they_run(argv, numpy_imports):
    doc = run_main(*argv)
    assert doc["code"] == 0
    added = set(doc["added"])
    if "numpy" in added:  # subnormal only
        added -= numpy_imports
    assert added & NOT_ON_THE_COMMAND_PATH == set()
    assert doc["root_level"] is None


def test_examples_wab_loads_wab():
    doc = run_main("examples", "wab", "--a", "0.5", "--b", "1.0")
    assert doc["code"] == 0 and "cpdshift.wab" in doc["added"]


def test_log_level_from_the_environment():
    doc = run_main("classify", SPEC, CPDSHIFT_LOG="info")
    assert doc["code"] == 0 and "logging" in doc["added"]
    assert doc["root_level"] == 20  # logging.INFO


def test_cli_loads_every_traced_layer():
    # Tracer.install looks each layer up in sys.modules
    code = (
        f"import sys; sys.path.insert(0, {str(BENCH)!r}); from cpdshift import cli; import spans; "
        "print([m for m in spans.LAYERS if 'cpdshift.' + m not in sys.modules])"
    )
    assert fresh(code) == "[]"


def test_every_public_name_resolves():
    code = (
        "import sys, cpdshift; loaded = 'cpdshift.wab' in sys.modules; "
        "missing = [n for n in cpdshift.__all__ if getattr(cpdshift, n, None) is None]; "
        "print(loaded, missing, 'cpdshift.wab' in sys.modules)"
    )
    assert fresh(code) == "False [] True"
    code = "import cpdshift; print(cpdshift.wab.wab_classify is cpdshift.wab_classify)"
    assert fresh(code) == "True"
    with pytest.raises(AttributeError, match="has no attribute 'nope'"):
        cpdshift.nope
