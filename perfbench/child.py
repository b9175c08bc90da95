"""One benchmark pass in a fresh process: set up, then run a plan of CLI commands.

Usage: python3 child.py PLAN REPORT [--trace] [--setup-only]

PLAN is a JSON object ``{"setup_config": path, "setup_command": name,
"commands": [argv, ...]}``. The child imports ``striplyap`` and parses the
set-up config the way the CLI does, records ``time.monotonic()`` (a clock
shared with the parent process) as ``ready``, then calls
``striplyap.cli.main`` on each argv and times it. With ``--trace`` it wraps
the package's public functions first (see spans.py). With ``--setup-only``
it records run metadata instead of running commands. The report is written
to REPORT as JSON.
"""

import json
import resource
import sys
import time


def _openblas() -> dict:
    """Runtime OpenBLAS config string and thread count of numpy's bundled BLAS."""
    import ctypes
    import glob
    import os

    import numpy

    libdir = os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libdir, "*openblas*")):
        lib = ctypes.CDLL(path)
        for prefix, suffix in (("scipy_openblas", "64_"), ("openblas", ""), ("scipy_openblas", "")):
            try:
                config = getattr(lib, f"{prefix}_get_config{suffix}")
                threads = getattr(lib, f"{prefix}_get_num_threads{suffix}")
            except AttributeError:
                continue
            config.restype = ctypes.c_char_p
            threads.restype = ctypes.c_int
            return {"openblas": config().decode(), "blas_threads": threads()}
    return {"openblas": None, "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS")}


def _meta() -> dict:
    import platform

    import numpy
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        **_openblas(),
    }


def main(plan_path: str, report_path: str, flags: set) -> None:
    # the set-up users pay on every CLI call: import, then parse a config
    import striplyap.cli as cli

    with open(plan_path) as fh:
        plan = json.load(fh)
    cli.load_config(plan["setup_config"], plan["setup_command"])
    report = {"ready": time.monotonic(), "commands": []}
    if "--setup-only" in flags:
        report["meta"] = _meta()
    else:
        tracer = None
        if "--trace" in flags:
            import spans

            tracer = spans.Tracer()
            spans.install(tracer)
        for i, argv in enumerate(plan["commands"]):
            if tracer is not None:
                tracer.command = i
            t0 = time.perf_counter()
            try:
                rc = cli.main(argv)
            except SystemExit as exc:  # argparse rejects a malformed argv
                rc = exc.code if isinstance(exc.code, int) else 2
            report["commands"].append({"argv": argv, "rc": rc, "seconds": time.perf_counter() - t0})
        if tracer is not None:
            report["spans"] = tracer.spans
    report["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    with open(report_path, "w") as fh:
        json.dump(report, fh)


if __name__ == "__main__":
    main(sys.argv[1], sys.argv[2], set(sys.argv[3:]))
