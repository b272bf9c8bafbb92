"""The stabpurity CLI with spans: ``python traced_cli.py <spans.json> <cli args...>``.

Runs the package's own ``cli.main`` with the tracer's wrappers installed, so
it writes the same report bytes and exits with the same code as
``python -m stabpurity.cli <cli args...>``.  The spans, the clock reading at
interpreter hand-over and the package import time go to <spans.json>.
"""

import time

MAIN_NS = time.perf_counter_ns()

import json  # noqa: E402
import sys  # noqa: E402


def main() -> int:
    spans_path, argv = sys.argv[1], sys.argv[2:]
    start = time.perf_counter_ns()
    from stabpurity import cli

    import_ns = time.perf_counter_ns() - start
    from spans import Tracer

    tracer = Tracer()
    tracer.install()
    try:
        return cli.main(argv)
    finally:
        tracer.uninstall()
        with open(spans_path, "w", encoding="utf-8") as fh:
            json.dump({"main_ns": MAIN_NS, "import_ns": import_ns, "spans": tracer.spans}, fh)


if __name__ == "__main__":
    sys.exit(main())
