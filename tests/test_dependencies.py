"""numpy is the only runtime dependency: nothing imports scipy."""

import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent


def run_python(code):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=300)


def test_cli_import_loads_no_scipy_module():
    proc = run_python(
        "import sys, lieb2b.cli\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n")
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert proc.stdout.strip() == "[]"


def test_cli_runs_with_scipy_blocked():
    # a None entry makes every `import scipy...` raise ImportError
    proc = run_python(
        "import sys\n"
        "sys.modules['scipy'] = None\n"
        "from lieb2b.cli import main\n"
        "assert main(['solve', '--n', '2', '--g', '1.5']) == 0\n"
        "assert main(['sheet', '--n', '0', '--re-min', '-3', '--re-max', '1',\n"
        "             '--im-min', '-1', '--im-max', '1', '--points', '5']) == 0\n")
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert "sheet" in proc.stdout
