"""Stand-in for an external model, speaking skyforge's subprocess protocol.

Reads one JSON request per line on stdin, counts the data lines of the
request's CSV, sleeps a fixed 10 ms in place of training, and answers with
measures derived only from the bitmap, the row count and the column count.
Each answer also carries ``fake_busy_s``, the time this process spent on the
request, which the engine ignores and the benchmark's trace reads.

A CSV whose data lines differ from the announced row count gets an answer
without measures, which the engine reports as a protocol error.

Run: ``python3 fake_estimator.py`` (exits when stdin closes).
"""

import csv
import hashlib
import json
import sys
import time

SLEEP_S = 0.010


def measures(bitmap: str, rows: int, cols: int) -> dict:
    spread = int(hashlib.sha256(bitmap.encode("ascii")).hexdigest()[:8], 16) / 0xFFFFFFFF
    return {
        "holdout_error": 5.0 + 40.0 * spread + 400.0 / (rows + 10),
        "train_cost": float(rows),
        "model_size": float(max(cols - 1, 0)),
    }


def main() -> int:
    for line in sys.stdin:
        started = time.perf_counter()
        request = json.loads(line)
        with open(request["csv_path"], newline="", encoding="utf-8") as fh:
            data_lines = sum(1 for _ in csv.reader(fh)) - 1
        time.sleep(SLEEP_S)
        reply = {"id": request["id"]}
        if data_lines == request["rows"]:
            reply["measures"] = measures(request["bitmap"], request["rows"], request["cols"])
            reply["measures"]["fake_busy_s"] = time.perf_counter() - started
        sys.stdout.write(json.dumps(reply) + "\n")
        sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
