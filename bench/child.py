"""One fresh interpreter: import spinmoments, run CLI argv lists, report.

Usage: python3 child.py SPEC_JSON, where SPEC_JSON holds
  spawned_at  time.monotonic() of the parent just before it started us,
  argvs       list of CLI argument lists for spinmoments.cli.main,
  trace       whether to install the layer tracer.

The report is the last line of standard output, one JSON object.  The
CLI's own output is captured and returned inside it.
"""

import contextlib
import io
import json
import resource
import sys
import time
from pathlib import Path


def peak_rss_mb() -> float:
    """High-water resident set of this process image.

    ru_maxrss would do, except that Linux carries the parent's high-water
    mark across fork and exec, so a child never reads below its parent.
    """
    try:
        with open("/proc/self/status", encoding="ascii") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def main() -> int:
    spec = json.loads(sys.argv[1])
    root = Path(__file__).resolve().parent.parent
    src = root / "src"
    sys.path.insert(0, str(src))
    import spinmoments.cli as cli

    imported_at = time.monotonic()
    if not Path(cli.__file__).resolve().is_relative_to(src):
        print(f"spinmoments imported from {cli.__file__}, not {src}", file=sys.stderr)
        return 1

    tracer = None
    if spec["trace"]:
        from tracer import Tracer  # the script directory, bench/, is on sys.path

        tracer = Tracer()
        tracer.install()

    outputs = []
    start = time.perf_counter()
    for argv in spec["argvs"]:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(argv)
        outputs.append({"rc": rc, "stdout": out.getvalue(), "stderr": err.getvalue()})
    wall = time.perf_counter() - start

    report = {
        "setup_s": imported_at - spec["spawned_at"],
        "wall_s": wall,
        "peak_rss_mb": peak_rss_mb(),
        "outputs": outputs,
        "trace": tracer.dump() if tracer else None,
    }
    sys.stdout.write("\n" + json.dumps(report) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
