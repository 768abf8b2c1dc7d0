"""Restore-probe process for the benchmark's ``recover_s``.

A recovery happens in a fresh process, so the benchmark times restores
here, in a process of their own that does nothing else: its heap never
carries a live index, a server or a previous workload phase, and
probes can run at any point of a run under the same conditions.

Usage (the benchmark starts it; the argument is the ``src`` directory
holding ``repro``)::

    python3 perfbench/restorer.py SRC

Once its imports are done it prints ``ready``.  Each request is one
JSON line on standard input::

    {"state": DIR, "sharded": BOOL, "out": FILE}

It restores the index from ``DIR`` (``ShardedKnnIndex.restore(...,
executor="serial")`` when ``sharded``, else ``DynamicKnnIndex.restore``),
pins the first snapshot, writes the restored graph and sequence number
to ``FILE`` (``.npz``) and replies ``{"seconds": S}``: the wall time
from the call to the pinned snapshot, garbage collected beforehand.
It exits when standard input closes.
"""

from __future__ import annotations

import gc
import json
import sys
import time


def main() -> int:
    sys.path.insert(0, sys.argv[1])
    import numpy as np

    from repro import DynamicKnnIndex
    from repro.graph.io import graph_to_arrays
    from repro.streaming import ShardedKnnIndex

    print("ready", flush=True)
    for line in sys.stdin:
        request = json.loads(line)
        gc.collect()
        start = time.perf_counter()
        if request["sharded"]:
            index = ShardedKnnIndex.restore(request["state"], executor="serial")
        else:
            index = DynamicKnnIndex.restore(request["state"])
        index.pin()
        seconds = time.perf_counter() - start
        np.savez(
            request["out"],
            last_seq=np.int64(index.last_seq),
            **graph_to_arrays(index.graph),
        )
        if index.wal is not None:
            index.wal.close()
        index.close()
        del index
        print(json.dumps({"seconds": seconds}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
