import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def run_script(name, *args):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run([sys.executable, str(ROOT / "scripts" / name), *args],
                          capture_output=True, text=True, env=env, timeout=60)


def test_modp_sweep_verifies_every_class():
    proc = run_script("modp_sweep.py", "--primes", "29", "31", "--limit", "2000")
    assert proc.returncode == 0, proc.stderr
    lines = [l for l in proc.stdout.splitlines() if "all-verified" in l]
    assert len(lines) == 6  # two primes, three modes


def test_scan_dyadic_primes_certifies():
    proc = run_script("scan_dyadic_primes.py", "--limit", "2000")
    assert proc.returncode == 0, proc.stderr
    assert "# found 1 of 12 below 2000" in proc.stdout
    assert "certified=True" in proc.stdout
