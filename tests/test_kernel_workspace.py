"""The cycle kernel's product workspace: one per thread, one block at a time.

``cycle._outcome_probabilities`` writes each block of component products
into a workspace that the calling thread keeps for its life. Two threads
that scan at once must each get the reports a serial run gives, and a warm
scan must hold no more than one block of products at a time.
"""

import threading
import tracemalloc

from finecert import cycle
from finecert.cycle import scan_bases

#: (d, n_samples) of the two threads' scans: five components per block at
#: d = 31, four at d = 13, so the two need workspaces of different sizes.
SCANS = ((31, 3), (13, 20))
SEEDS = range(40)


def test_concurrent_scans_match_the_serial_reports():
    want = {(d, seed): scan_bases(d, n, seed).as_dict() for d, n in SCANS for seed in SEEDS}
    got, errors = {}, []
    barrier = threading.Barrier(len(SCANS))

    def run(d, n):
        try:
            barrier.wait(timeout=60)  # the two threads start together and then run freely
            for seed in SEEDS:
                got[d, seed] = scan_bases(d, n, seed).as_dict()
        except BaseException as exc:  # pytest would only warn about an exception left in a thread
            errors.append(exc)

    threads = [threading.Thread(target=run, args=scan) for scan in SCANS]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert errors == []
    assert got == want


def test_a_warm_scan_holds_one_block_of_products():
    d, n = 31, 3
    per_component = 16 * n * d * d
    block = cycle._PROBABILITY_BLOCK_BYTES // per_component * per_component  # five components, 225 KiB
    scan_bases(d, n, 0)  # the standard cycle of 31 and this thread's workspace, before tracing
    tracemalloc.start()
    try:
        scan_bases(d, n, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * block
