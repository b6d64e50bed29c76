"""Arms the span recorder in every process started for a traced run."""

import os

if os.environ.get("PERFBENCH_TRACE_DIR"):
    import perfbench_trace

    perfbench_trace.install(server=True)
