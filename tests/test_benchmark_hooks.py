"""The benchmark's traced run wraps spikert names by attribute; a rename in
spikert must fail here rather than in the benchmark."""

import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.mark.parametrize("install", ["install_timing", "install_tracing"])
def test_span_hooks_find_every_wrapped_name(install):
    code = ("import sys; sys.path[:0] = [sys.argv[1], sys.argv[2]]; import spans; "
            f"spans.{install}(spans.Recorder())")
    proc = subprocess.run([sys.executable, "-c", code, os.path.join(ROOT, "src"),
                           os.path.join(ROOT, "perfbench")],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
