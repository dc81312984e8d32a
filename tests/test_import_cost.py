"""The daemon, fleet and CLI entry points stay cheap to launch."""

from __future__ import annotations

import os
import subprocess
import sys

SRC = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")


def test_entry_points_do_not_import_scipy():
    """scipy is only for benchmark statistics; it is imported on first
    use there, so launching a daemon or coordinator never pays for it."""
    code = (
        "import sys\n"
        "import repro.cli, repro.service.daemon, repro.fleet\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, env.get("PYTHONPATH")) if p
    )
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, check=True,
        capture_output=True, text=True, timeout=60,
    ).stdout
    assert out.strip() == "[]", out
