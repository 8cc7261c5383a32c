"""Run the kdilate CLI, then report this process's peak resident set.

    python3 kbench/launch.py <kdilate arguments>

The peak is VmHWM from /proc/self/status, in kB, written to standard error
as a line `kbench-vmhwm-kb <n>` before any traceback.  getrusage's
ru_maxrss would not do: Linux carries it across exec, so a child's figure
includes the resident set of the process that started it.
"""

import sys

from kdilate.cli import main


def _vmhwm_kb() -> int:
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM line in /proc/self/status")


try:
    code = main()
finally:
    sys.stderr.write(f"\nkbench-vmhwm-kb {_vmhwm_kb()}\n")
    sys.stderr.flush()
sys.exit(code)
