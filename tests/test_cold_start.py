"""Cold start: what a fresh ``repro`` process imports.

``scipy.stats`` costs 0.5–1 s and about 45 MB to import. The report path
calls the ``scipy.special`` kernels it wraps instead, so neither the
command modules nor a whole ``repro report`` may load it. The status
probes (``repro serve --status``, ``repro top``) read files only, so they
must not load numpy or any study code either. Each check runs in a fresh
interpreter: in this process some other test has imported everything.
"""

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import repro

SRC = str(Path(repro.__file__).resolve().parents[1])


def _run(script: str, cwd: Path) -> dict:
    env = dict(os.environ, PYTHONPATH=SRC)
    done = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(script)],
        cwd=cwd,
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


def test_no_command_module_or_report_run_imports_scipy_stats(tmp_path):
    out = tmp_path / "report.md"
    seen = _run(
        f"""
        import contextlib, io, json, runpy, sys
        import repro.audit, repro.cli, repro.dist.worker
        import repro.report.experiments, repro.report.extensions
        import repro.serve.service
        after_import = "scipy.stats" in sys.modules
        sys.argv = ["repro", "report", "--seed", "3", "--baseline", "40",
                    "--current", "60", "--months", "3", "--jobs-per-day", "60",
                    "--out", {str(out)!r}]
        with contextlib.redirect_stdout(io.StringIO()):
            try:
                runpy.run_module("repro", run_name="__main__", alter_sys=True)
            except SystemExit as exc:
                code = exc.code
        print(json.dumps({{"after_import": after_import, "code": code,
                          "after_report": "scipy.stats" in sys.modules}}))
        """,
        tmp_path,
    )
    assert seen == {"after_import": False, "code": 0, "after_report": False}
    assert out.read_text(encoding="utf-8").startswith("#")


def test_status_probes_import_no_numpy(tmp_path):
    root = tmp_path / "svc"
    root.mkdir()
    (root / "status.json").write_text(
        json.dumps({"mode": "serving", "ready": True}) + "\n", encoding="utf-8"
    )
    seen = _run(
        f"""
        import contextlib, io, json, sys
        from repro.cli import main
        with contextlib.redirect_stdout(io.StringIO()) as text:
            status = main(["serve", "--status", "--root", {str(root)!r}])
            top = main(["top", "--once", "--root", {str(root)!r}])
        print(json.dumps({{"codes": [status, top],
                          "serving": '"mode": "serving"' in text.getvalue(),
                          "numpy": "numpy" in sys.modules,
                          "study": sorted(m for m in ("repro.core", "repro.serve")
                                          if m in sys.modules)}}))
        """,
        tmp_path,
    )
    assert seen == {"codes": [0, 0], "serving": True, "numpy": False, "study": []}
