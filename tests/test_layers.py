"""The package's layers: which progemb modules each module may import.

Records and their formats sit in `dataio`, below every stage, so reading or
writing an artifact loads no stage. Every import of a progemb module is
checked, at module level or inside a function."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import progemb

PACKAGE = Path(progemb.__file__).parent
MODULES = sorted(path.stem for path in PACKAGE.glob("*.py"))

# the progemb modules each module may import; None allows any
ALLOWED = {
    "_files": set(),
    "config": set(),
    "loss": set(),
    "optim": set(),
    "similarity": set(),
    "dataio": {"_files"},
    "encoder": {"_files"},
    "mining": {"dataio", "similarity"},
    "evaluation": {"dataio", "similarity"},
    "synthetic": {"dataio"},
    "training": {"dataio", "encoder", "loss", "optim", "similarity"},
    "__init__": {"loss", "similarity"},
    "__main__": {"cli"},
    "cli": None,
}

STAGES = ("encoder", "optim", "training", "mining", "evaluation", "synthetic")


def package_imports(source: str):
    """The progemb modules a module's source imports, anywhere in it; a
    name imported from the package itself that is no module is its
    ``__init__``."""
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            for alias in node.names:
                top, _, rest = alias.name.partition(".")
                if top == "progemb":
                    yield rest.partition(".")[0] or "__init__"
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if node.level == 0:
                top, _, module = module.partition(".")
                if top != "progemb":
                    continue
            if module:
                yield module.partition(".")[0]
            else:
                for alias in node.names:
                    yield alias.name if alias.name in MODULES else "__init__"


def test_every_module_imports_only_its_lower_layers():
    assert sorted(ALLOWED) == MODULES
    breaches = {}
    for name in MODULES:
        allowed = ALLOWED[name]
        if allowed is None:
            continue
        found = set(package_imports((PACKAGE / f"{name}.py").read_text(encoding="utf-8")))
        if found - allowed:
            breaches[name] = sorted(found - allowed)
    assert breaches == {}


def loaded_after_import(module: str) -> set[str]:
    """The names in sys.modules of a fresh process that imports module."""
    probe = f"import sys, {module}; print(' '.join(sorted(sys.modules)))"
    out = subprocess.run(
        [sys.executable, "-c", probe],
        capture_output=True,
        text=True,
        check=True,
        env={**os.environ, "PYTHONPATH": str(PACKAGE.parent)},
    )
    return set(out.stdout.split())


def test_reading_artifacts_loads_no_stage():
    """A fresh process that imports `progemb.dataio` holds no stage module."""
    loaded = loaded_after_import("progemb.dataio")
    assert "progemb.dataio" in loaded
    assert [f"progemb.{stage}" for stage in STAGES if f"progemb.{stage}" in loaded] == []


def test_the_cli_loads_no_process_pool():
    """`bench` forks its child with os.fork, so importing the CLI, which
    every command and `--help` does, loads no process-pool package."""
    loaded = loaded_after_import("progemb.cli")
    assert "progemb.cli" in loaded
    pools = ("multiprocessing", "concurrent")
    assert sorted(name for name in loaded if name.partition(".")[0] in pools) == []
