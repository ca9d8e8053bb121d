import os
import subprocess
import sys

import sumchoice


def test_all_names_resolve_once():
    assert len(sumchoice.__all__) == len(set(sumchoice.__all__))
    missing = [name for name in sumchoice.__all__ if not hasattr(sumchoice, name)]
    assert missing == []


def test_import_loads_no_process_pool():
    src = os.path.dirname(os.path.dirname(sumchoice.__file__))
    code = ("import sys, sumchoice; print(sorted(m for m in sys.modules "
            "if m.split('.')[0] in ('multiprocessing', 'concurrent')))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True, env={**os.environ, "PYTHONPATH": src})
    assert out.stdout.strip() == "[]"
