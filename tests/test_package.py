import importlib
import os
import pkgutil
import subprocess
import sys

import mtfrac


def test_public_names_resolve():
    # Every exported name exists, so an export left behind by a deletion fails.
    modules = [mtfrac] + [importlib.import_module(f"mtfrac.{info.name}")
                          for info in pkgutil.iter_modules(mtfrac.__path__)]
    checked = 0
    for module in modules:
        names = getattr(module, "__all__", None)
        if names is None:
            continue
        assert len(set(names)) == len(names), module.__name__
        missing = [n for n in names if not hasattr(module, n)]
        assert not missing, (module.__name__, missing)
        checked += 1
    assert checked >= 7


def test_import_does_not_load_mpmath():
    # mpmath serves the high-precision oracle alone and is imported there.
    code = "import sys, mtfrac; sys.exit('mpmath' in sys.modules)"
    src = os.path.dirname(os.path.dirname(mtfrac.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0
