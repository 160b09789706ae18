"""One repetition of a workload in a fresh interpreter.

    python3 bench/rep.py INPUTS MODE WORKERS OUT LAUNCHED

MODE is ``plain`` (no instrumentation), ``pools`` (also count process-pool
starts) or ``traced`` (spans on, written beside OUT).  LAUNCHED is the
parent's ``time.monotonic()`` just before it started this process, so that
set-up time covers interpreter start, ``import l1conc`` and config parsing.
"""

import json
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main(argv) -> None:
    inputs_path, mode, workers, out_path, launched = argv
    workers = int(workers)
    workdir = Path(inputs_path).parent
    inputs = json.loads(Path(inputs_path).read_text())

    sys.path.insert(0, str(ROOT / "src"))
    import l1conc  # noqa: F401

    import workloads

    workloads.prepare(inputs, workdir)
    setup_s = time.monotonic() - float(launched)

    import spans
    from l1conc.montecarlo import CHUNK_SIZE

    tracer = pools = None
    if mode == "traced":
        tracer = spans.Tracer(run_id=f"{workdir.name}/{Path(out_path).stem}")
        spans.install(tracer)
    elif mode == "pools":
        pools = spans.PoolCounter()

    result = workloads.run(inputs, workers, workdir)
    result["setup_s"] = setup_s
    mb = 1024.0  # ru_maxrss is in KiB on Linux
    result["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                             + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss) / mb
    if pools is not None:
        result["pool_starts"] = pools.starts
    if tracer is not None:
        floors = spans.variate_floors(tracer.spans, CHUNK_SIZE)
        result["layers"] = spans.layer_metrics(tracer.spans, CHUNK_SIZE, floors)
        result["spans"] = len(tracer.spans)
        tracer.write(Path(out_path).with_suffix(".spans.jsonl"))
    Path(out_path).write_text(json.dumps(result))


if __name__ == "__main__":
    main(sys.argv[1:])
