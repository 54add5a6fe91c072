import os
import re
import subprocess
import sys
from pathlib import Path

import rdrisk

SRC = Path(rdrisk.__file__).resolve().parents[1]
ENV = dict(os.environ, PYTHONPATH=str(SRC))


def run_python(*args):
    return subprocess.run([sys.executable, *args], capture_output=True, env=ENV, check=True,
                          timeout=120)


def test_stand_in_imports_numpy_on_first_read():
    code = ("import sys\n"
            "from rdrisk._numpy import np\n"
            "assert 'numpy' not in sys.modules\n"
            "random = np.random\n"
            "import numpy\n"
            "assert random is numpy.random and np.random is numpy.random\n"
            "assert vars(np)['ndarray'] is numpy.ndarray\n"
            "try:\n"
            "    np.no_such_name\n"
            "except AttributeError:\n"
            "    print('ok')\n")
    assert run_python("-c", code).stdout == b"ok\n"


def test_concurrent_first_reads_see_numpy():
    # Eight threads, more than the cores, race to make the first read.
    code = ("import sys, threading\n"
            "from rdrisk._numpy import np\n"
            "sys.setswitchinterval(1e-6)\n"
            "names = ['random', 'ndarray', 'log', 'errstate', 'float64', 'sqrt', 'abs', 'inf']\n"
            "start = threading.Barrier(8)\n"
            "seen = {}\n"
            "def read(i):\n"
            "    start.wait()\n"
            "    seen[i] = [getattr(np, name) for name in names]\n"
            "workers = [threading.Thread(target=read, args=(i,)) for i in range(8)]\n"
            "for w in workers:\n"
            "    w.start()\n"
            "for w in workers:\n"
            "    w.join(timeout=30)\n"
            "    assert not w.is_alive()\n"
            "import numpy\n"
            "want = [getattr(numpy, name) for name in names]\n"
            "assert len(seen) == 8\n"
            "assert all(all(a is b for a, b in zip(got, want)) for got in seen.values())\n"
            "print('ok')\n")
    assert run_python("-c", code).stdout == b"ok\n"


def test_first_read_in_pool_threads_matches_one_thread():
    # A fresh zero-error simulate reads np first inside the mc_mean workers.
    argv = ["-W", "error", "-m", "rdrisk.cli", "simulate", "--family", "zero-error",
            "--n-grid", "1,10", "--trials", "1000", "--seed", "5"]
    one = run_python(*argv, "--threads", "1")
    two = run_python(*argv, "--threads", "2")
    assert one.stderr == two.stderr == b""
    assert one.stdout == two.stdout


def test_only_the_stand_in_imports_numpy():
    pattern = re.compile(r"^\s*(import numpy|from numpy\b)", re.M)
    offenders = [path.name for path in sorted((SRC / "rdrisk").glob("*.py"))
                 if path.name != "_numpy.py" and pattern.search(path.read_text())]
    assert offenders == []
