"""Set-up cost of one CLI call, measured in a fresh interpreter.

Usage: python3 setup_probe.py CONFIG [CONFIG ...]
(with drivenchain's ``src`` directory on PYTHONPATH)

Times ``import drivenchain.cli`` and then ``config.resolve`` of each config
file, and prints one JSON line {"import_s": ..., "resolve_s": ...}.
"""

import json
import sys
import time

t0 = time.perf_counter()
import drivenchain.cli  # noqa: E402,F401
t1 = time.perf_counter()
from drivenchain.config import load_config, resolve  # noqa: E402

for path in sys.argv[1:]:
    resolve(load_config(path))
t2 = time.perf_counter()
print(json.dumps({"import_s": t1 - t0, "resolve_s": t2 - t1}))
