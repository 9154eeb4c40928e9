"""Child process of the benchmark: one `dsgdlab` command, run through the
package's own entry point (`dsgdlab.cli.main`), as the console script does.

    python3 launch.py MODE OUT_JSON -- run CONFIG --output DIR

MODE is one of
  plain  the command as users run it, plus one timestamp: the first unit of
         work (the first `run_batch` of a campaign or the first
         `picard_solve` of a manifold battery), which ends set-up;
  setup  the same, but the process exits at the first unit of work;
  trace  plain, plus spans around every module's entry points;
  env    no command; writes the library and BLAS facts for the stamp.

OUT_JSON receives the timestamps (CLOCK_MONOTONIC seconds) and, in trace
mode, the spans. The exit code is the command's.
"""

from __future__ import annotations

import json
import os
import sys
import threading
import time


def _write(path, payload):
    with open(path, "w") as fh:
        json.dump(payload, fh)


def blas_facts():
    """OpenBLAS version and the thread count it uses in this process."""
    import ctypes
    from pathlib import Path

    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    facts = {"blas": blas.get("name"), "blas_version": blas.get("version"),
             "blas_threads": None}
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*")):
        handle = ctypes.CDLL(str(lib))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.argtypes = []
                fn.restype = ctypes.c_int
                facts["blas_threads"] = int(fn())
                return facts
    return facts


def env_facts():
    import platform

    import numpy
    import scipy

    import dsgdlab
    from dsgdlab.experiments import worker_count

    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "dsgdlab": dsgdlab.__version__,
            "dsgdlab_file": dsgdlab.__file__,
            "dsgdlab_workers_env": os.environ.get("DSGDLAB_WORKERS"),
            "dsgdlab_workers": worker_count(),
            "openblas_num_threads_env": os.environ.get("OPENBLAS_NUM_THREADS"),
            **blas_facts()}


def main(argv):
    mode, out_path = argv[0], argv[1]
    if mode == "env":
        _write(out_path, env_facts())
        return 0
    if mode not in ("plain", "setup", "trace") or argv[2] != "--":
        raise SystemExit("usage: launch.py plain|setup|trace|env OUT_JSON -- ARGS")
    command = argv[3:]

    import_start = time.monotonic()
    import dsgdlab.cli
    import_end = time.monotonic()
    from dsgdlab import experiments
    from dsgdlab.manifold import ManifoldModel

    record = {"import_start": import_start, "import_end": import_end,
              "first_work": None, "workers": experiments.worker_count()}
    tracer = None
    if mode == "trace":
        from tracer import Tracer, instrument
        tracer = Tracer()
        tracer.add("cli.import", import_start, import_end)
        instrument(tracer)

    lock = threading.Lock()

    def marked(fn):
        def first_work(*args, **kwargs):
            with lock:
                if record["first_work"] is None:
                    record["first_work"] = time.monotonic()
                    if mode == "setup":
                        _write(out_path, record)
                        os._exit(0)
            return fn(*args, **kwargs)
        return first_work

    # installed after the tracer so the timestamp is taken before any span
    experiments.run_batch = marked(experiments.run_batch)
    ManifoldModel.picard_solve = marked(ManifoldModel.picard_solve)

    span = tracer.open("cli.main") if tracer else None
    try:
        code = dsgdlab.cli.main(command)
    finally:
        if tracer:
            tracer.close(span)
    record["main_end"] = time.monotonic()
    record["exit_code"] = code
    if tracer:
        record["trace"] = tracer.dump()
    _write(out_path, record)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
