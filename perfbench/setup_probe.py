"""Set-up cost of a fresh interpreter: import ehrelay, then one small call.

Run as ``python3 perfbench/setup_probe.py SRC_DIR``; prints one JSON line
with the import time and the first-call time, both in seconds.
"""

import json
import sys
import time

start = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import ehrelay  # noqa: E402

imported = time.perf_counter()
params = ehrelay.SystemParams()
ehrelay.outage_dynamic_ps(params, 0.5)
ehrelay.outage_improved(params)
ehrelay.mc_outage(params, "improved", {}, ehrelay.McConfig(trials=4096, seed=0))
done = time.perf_counter()
print(json.dumps({"import_s": imported - start, "first_call_s": done - imported,
                  "module": ehrelay.__file__}))
