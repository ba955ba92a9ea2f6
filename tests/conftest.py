"""Suite-wide pytest hooks."""

import resource
import sys


def pytest_terminal_summary(terminalreporter):
    """Report the suite's peak resident set, so a change that makes some
    test hold more memory shows in the run's summary."""
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    # ru_maxrss is in kB on Linux and in bytes on macOS
    mb = peak / 2 ** (20 if sys.platform == "darwin" else 10)
    terminalreporter.write_line(f"tier-1 peak RSS: {mb:.0f} MB")
