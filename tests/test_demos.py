"""Every demo runs to completion and prints the stdout it printed when its
digest was captured, so the public names the demos use stay working."""

import hashlib
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

# md5 of each demo's stdout, run with an empty null cache; 06's was
# re-captured when each job came to draw its replicate datasets from one stream
DEMO_STDOUT_MD5 = {
    "01_quickstart.py": "fa56a37f458f5f88aa5df5be1292fb1d",
    "02_pair_sequence.py": "f7e8f9f3878e704ec7482fd54868cf3f",
    "03_classic_benchmarks.py": "45c3cbf83fec91731f9e7d12928d71c7",
    "04_arbitrary_nulls.py": "db013918f291824712f3be838fc4c806",
    "05_distribution_zoo.py": "7daa1ae26f3b251363abfc2611389168",
    "06_power_study.py": "025eb07817bc87c385a5d4453181b1cb",
}


def test_every_demo_is_listed():
    assert sorted(p.name for p in (ROOT / "demos").glob("*.py")) == sorted(DEMO_STDOUT_MD5)


@pytest.mark.parametrize("demo", list(DEMO_STDOUT_MD5))
def test_demo_stdout(demo, tmp_path):
    proc = subprocess.run(
        [sys.executable, str(ROOT / "demos" / demo)],
        capture_output=True, cwd=tmp_path,
        env={"PYTHONPATH": str(ROOT / "src"), "PATH": "/usr/bin:/bin",
             "PITOS_CACHE_DIR": str(tmp_path / "cache")},
    )
    assert proc.returncode == 0, proc.stderr.decode()
    assert hashlib.md5(proc.stdout).hexdigest() == DEMO_STDOUT_MD5[demo]
