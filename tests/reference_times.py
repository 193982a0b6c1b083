"""Wall-time tables from the original four-core measurement campaign.

Five inputs per digit class, timed at one, two, and four workers.  The
summary step of the harness must reproduce the campaign's quad-vs-single
speedups (2.46, 2.21..., see the acceptance tests) from these raw values.
"""

from rhorace.bench import BenchRecord

REFERENCE_TIMES = {
    50: {
        1: [18.221, 24.605, 27.112, 21.499, 22.306],
        2: [11.162, 13.234, 15.334, 11.857, 13.706],
        4: [8.266, 9.800, 10.009, 8.459, 9.711],
    },
    100: {
        1: [53.521, 48.313, 50.149, 58.799, 59.235],
        2: [28.343, 25.901, 26.824, 31.306, 31.234],
        4: [23.525, 22.703, 22.189, 25.408, 25.630],
    },
    200: {
        1: [137.006, 136.315, 268.141, 146.039, 117.872],
        2: [71.104, 78.461, 139.403, 93.481, 74.880],
        4: [52.327, 64.412, 113.504, 77.475, 63.116],
    },
}


def reference_records() -> list[BenchRecord]:
    records = []
    for digits, by_workers in REFERENCE_TIMES.items():
        for workers, times in by_workers.items():
            for idx, t in enumerate(times):
                records.append(BenchRecord(digits, workers, idx, t, 2))
    return records
