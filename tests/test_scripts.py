import os
import subprocess
import sys
from pathlib import Path

from tauwaring.modp_basis import build_abc_context, build_context

ROOT = Path(__file__).resolve().parents[1]


def run_script(name, *args):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run([sys.executable, str(ROOT / "scripts" / name), *args],
                          capture_output=True, text=True, env=env, timeout=60)


def test_modp_sweep_verifies_every_class(table_2k):
    proc = run_script("modp_sweep.py", "--primes", "29", "31", "--limit", "2000")
    assert proc.returncode == 0, proc.stderr
    lines = [l for l in proc.stdout.splitlines() if "all-verified" in l]
    assert len(lines) == 6  # two primes, three modes
    # the detail column comes from the contexts: the window of build_context's,
    # the index bound of build_abc_context's
    expected = []
    for p, sum16_branch in ((29, "BxC"), (31, "A-split")):
        ctx, abc = build_context(p, table_2k), build_abc_context(p, table_2k)
        assert (ctx.branch, abc.branch) == ("direct", sum16_branch)
        direct = f"branch=direct window={ctx.window}"
        expected += [(f"p={p}", "pm32", direct), (f"p={p}", "sum96", direct),
                     (f"p={p}", "sum16", f"branch={sum16_branch} index_bound={abc.index_bound}")]
    columns = [l.split(" terms=")[0].split(None, 2) for l in lines]
    assert [(p, mode, detail.strip()) for p, mode, detail in columns] == expected


def test_scan_dyadic_primes_certifies():
    proc = run_script("scan_dyadic_primes.py", "--limit", "2000")
    assert proc.returncode == 0, proc.stderr
    assert "# found 1 of 12 below 2000" in proc.stdout
    assert "certified=True" in proc.stdout
