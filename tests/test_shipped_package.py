"""The shipped ``repro`` package is the audio system alone: every module
imports without the test extras, and none reaches into the test
support (``testkit``) or the test suite."""

import ast
import os
import subprocess
import sys
from pathlib import Path

_SRC = Path(__file__).resolve().parent.parent / "src"

#: Import every module of the package with pytest and hypothesis absent
#: (a ``None`` entry in ``sys.modules`` makes their import fail).
_IMPORT_ALL = """\
import pkgutil
import sys

sys.modules["pytest"] = sys.modules["hypothesis"] = None
import repro

for info in pkgutil.walk_packages(repro.__path__, "repro."):
    __import__(info.name)
"""


def test_every_module_imports_without_the_test_extras():
    env = dict(os.environ, PYTHONPATH=str(_SRC))
    result = subprocess.run([sys.executable, "-c", _IMPORT_ALL], env=env,
                            cwd=_SRC, capture_output=True, text=True,
                            timeout=120)
    assert result.returncode == 0, result.stderr


def test_no_module_imports_the_test_support():
    offenders = []
    for path in sorted((_SRC / "repro").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                modules = [node.module]
            else:
                continue
            offenders += ["%s:%d %s" % (path.relative_to(_SRC), node.lineno,
                                        module) for module in modules
                          if module.split(".")[0] in ("testkit", "tests")]
    assert offenders == []
