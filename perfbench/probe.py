"""Set-up probe: a fresh interpreter made ready for its first input.

``python3 perfbench/probe.py import`` imports ``repro.cli``;
``python3 perfbench/probe.py pool N`` also starts the persistent
analysis pool with N workers and round-trips one task to each.  Either
way the probe prints one ``ready <import_s> <pool_s>`` line once it is
ready, so the parent can time interpreter start + readiness, then
shuts down and exits.
"""

from __future__ import annotations

import sys
import time


def main(argv: list[str]) -> int:
    started = time.perf_counter()
    import repro.cli  # noqa: F401  (the import is what is measured)

    imported = time.perf_counter()
    pool_s = 0.0
    if argv and argv[0] == "pool":
        from repro.parallel import get_pool, shutdown_pool

        pool = get_pool(int(argv[1]))
        for worker in range(pool.workers):
            pool.ping(worker)
        pool_s = time.perf_counter() - imported
    print(f"ready {imported - started:.6f} {pool_s:.6f}", flush=True)
    if pool_s:
        shutdown_pool()
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
