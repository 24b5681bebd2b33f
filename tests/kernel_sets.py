"""Kernel-set report: the test modules under each OpenBLAS core type.

The bitwise promises (a row's bits do not depend on batch width; seed plus
config gives a bitwise-identical checkpoint) rest on how the installed
OpenBLAS rounds, and OpenBLAS picks its kernels by CPU at load time.  This
script forces each kernel set in turn through ``OPENBLAS_CORETYPE``, runs
every test module but ``test_acceptance.py`` in a fresh interpreter, and
prints one block per set: the core asked for, the core numpy's bundled
OpenBLAS reports, the passed and failed counts and the failed test ids.  A
child that dies or ends without results is reported as crashed.  It changes
nothing and is not collected by pytest (the file name does not start with
``test_``).  It exits 1 if a set or a core probe crashed, and 0 otherwise:
failing tests are part of the report.

Run from the repository root::

    python tests/kernel_sets.py              # every set, about 30 s each
    python tests/kernel_sets.py Haswell -k per_step_readout_oracle

Positional arguments that name a core type pick the sets; the rest are
passed to pytest.
"""

from __future__ import annotations

import os
import subprocess
import sys
import tempfile
import xml.etree.ElementTree as ET
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CORE_TYPES = ("SkylakeX", "Haswell", "Zen", "SandyBridge", "Prescott")
# every test module but the acceptance one, whose fits take most of the
# suite's time
MODULES = sorted(p.name for p in (ROOT / "tests").glob("test_*.py")
                 if p.name != "test_acceptance.py")

# Prints the core name that numpy's bundled OpenBLAS chose.  The symbol
# returns a C string; ctypes' default int restype would truncate the
# pointer and crash.
PROBE = """
import ctypes, pathlib, numpy
libs = sorted((pathlib.Path(numpy.__file__).parent.parent / "numpy.libs")
              .glob("libscipy_openblas*"))
if not libs:
    print("unknown (no bundled OpenBLAS)")
else:
    corename = ctypes.CDLL(str(libs[0])).scipy_openblas_get_corename64_
    corename.restype = ctypes.c_char_p
    print(corename().decode())
"""


def _env(core: str) -> dict:
    env = dict(os.environ, OPENBLAS_CORETYPE=core, OPENBLAS_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    return env


def reported_core(core: str) -> tuple[str, bool]:
    """The core name OpenBLAS reports under ``core``, and whether the probe
    ran."""
    probe = subprocess.run([sys.executable, "-c", PROBE], env=_env(core),
                           capture_output=True, text=True)
    if probe.returncode != 0:
        return f"probe crashed (status {probe.returncode})", False
    return probe.stdout.strip(), True


def run_set(core: str, pytest_args) -> dict:
    """Pass/fail counts and failed ids of the modules under ``core``, or
    ``crashed`` with the child's exit status."""
    with tempfile.TemporaryDirectory() as tmp:
        report = Path(tmp) / "junit.xml"
        child = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
             f"--junitxml={report}", *(f"tests/{m}" for m in MODULES),
             *pytest_args],
            cwd=ROOT, env=_env(core), capture_output=True, text=True)
        if child.returncode not in (0, 1) or not report.exists():
            return {"crashed": child.returncode}
        failed, passed = [], 0
        for case in ET.parse(report).iter("testcase"):
            if case.find("failure") is not None or case.find("error") is not None:
                module, _, cls = case.get("classname").partition(".Test")
                failed.append(module.replace(".", "/") + ".py"
                              + (f"::Test{cls}" if cls else "")
                              + f"::{case.get('name')}")
            elif case.find("skipped") is None:
                passed += 1
    return {"passed": passed, "failed": failed}


def main(argv) -> int:
    cores = [a for a in argv if a in CORE_TYPES] or list(CORE_TYPES)
    pytest_args = [a for a in argv if a not in CORE_TYPES]
    print("requested\treported\tpassed\tfailed")
    status = 0
    for core in cores:
        result = run_set(core, pytest_args)
        name, probed = reported_core(core)
        head = f"{core}\t{name}"
        if not probed or "crashed" in result:
            status = 1
        if "crashed" in result:
            print(f"{head}\tcrashed (status {result['crashed']})", flush=True)
            continue
        print(f"{head}\t{result['passed']}\t{len(result['failed'])}", flush=True)
        for test_id in result["failed"]:
            print(f"    {test_id}", flush=True)
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
