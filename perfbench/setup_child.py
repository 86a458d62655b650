"""One set-up of a benchmark process, timed from outside by run.py.

    python3 perfbench/setup_child.py <workload> <directory>

Starts the interpreter, imports heffter.cli from the checkout's src/ and
writes the workload's input files into <directory>: the work a benchmark
process does before its first op.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import heffter.cli  # noqa: E402,F401
from workloads import write_inputs  # noqa: E402

write_inputs(sys.argv[1], Path(sys.argv[2]))
