"""One benchmark sample: a single sqfpairs.cli.main(argv) call in this process.

Usage: python3 child.py SPEC_JSON, where SPEC_JSON holds
    argv          CLI arguments, or null to only import the package (warm-up)
    src           the src directory sqfpairs must be imported from
    mem_limit_mb  address-space ceiling, set before anything is allocated
    trace         whether to record layer spans (tracer.py)
The parent puts src on PYTHONPATH.  The last stdout line is one JSON record.
"""

import json
import os
import resource
import sys
import time


def main() -> int:
    spec = json.loads(sys.argv[1])
    limit = spec["mem_limit_mb"] << 20
    resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

    import sqfpairs.cli as cli
    imported = time.monotonic()
    src = os.path.realpath(spec["src"]) + os.sep
    if not os.path.realpath(cli.__file__).startswith(src):
        print(f"sqfpairs imported from {cli.__file__}, not from {src}", file=sys.stderr)
        return 2
    record = {"imported": imported}
    if spec["argv"] is not None:
        tracer = None
        entry = cli.main
        if spec["trace"]:
            from tracer import Tracer
            tracer = Tracer()
            entry = tracer.install()
        start = time.perf_counter()
        try:
            record["rc"] = entry(spec["argv"])
        except MemoryError as exc:
            record["error"] = f"memory ceiling of {spec['mem_limit_mb']} MiB hit: {exc!r}"
        record["wall_s"] = time.perf_counter() - start
        record["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        record["layers"] = tracer.summary() if tracer else None
    import numpy
    record["numpy"] = numpy.__version__
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
