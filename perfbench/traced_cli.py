"""`python -m permpack.cli` with spans around its library calls.

Traced passes of the cli-certify workload start this script in place of
the CLI.  It takes the CLI's arguments, writes the spans as JSON to the
file named by PERFBENCH_SPANS and exits with the CLI's exit code.
"""

import os
import sys

from tracing import Tracer


def main() -> int:
    import permpack.cli
    tracer = Tracer()
    tracer.install()
    try:
        return tracer.span("cli.run", permpack.cli.run, sys.argv[1:])
    finally:
        tracer.uninstall()
        tracer.dump(os.environ["PERFBENCH_SPANS"])


if __name__ == "__main__":
    sys.exit(main())
