"""The verifier module stands on the standard library alone."""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

from tauwaring.modp_basis import build_context, represent_sum96
from tauwaring.verify import save_table
from tauwaring.waring_int import RepresentationParams, represent_integer

ROOT = Path(__file__).resolve().parents[1]
VERIFY = ROOT / "src" / "tauwaring" / "verify.py"

# Imports tauwaring.verify, then runs `tauwaring check` in process, then
# reports the exit code and whether numpy was ever imported.
FRESH_CHECK = """
import sys
import tauwaring.verify
from tauwaring import cli
code = cli.main(["check", *sys.argv[1:]])
print("numpy" in sys.modules, code)
"""


def test_check_runs_without_numpy(tmp_path, table_2k):
    table_path = tmp_path / "table.txt"
    save_table(table_path, table_2k)
    certs = [represent_integer(123456789, RepresentationParams(), table_2k),
             represent_sum96(5, build_context(101, table_2k), table_2k)]
    paths = []
    for cert in certs:
        paths.append(tmp_path / f"{cert.kind}.json")
        paths[-1].write_text(json.dumps(cert.to_json_dict()))
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-c", FRESH_CHECK, *map(str, paths),
                           "--table", str(table_path)],
                          capture_output=True, text=True, env=env, timeout=60)
    assert proc.stderr == ""
    assert proc.stdout.splitlines() == [
        "CHECK integer_sum target=123456789 recomputed=123456789 ok=True",
        "CHECK sum96 p=101 lambda=5 recomputed=5 ok=True",
        "CHECKED files=2 ok=2 failed=0 invalid=0",
        "False 0",
    ]


def test_verify_imports_only_the_standard_library_and_errors():
    imported = set()
    for node in ast.walk(ast.parse(VERIFY.read_text())):
        if isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            imported.add("." * node.level + (node.module or ""))
    outside = {name for name in imported
               if name.split(".")[0] not in sys.stdlib_module_names}
    assert outside == {".errors"}
