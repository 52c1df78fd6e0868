"""Host cost of one call, in the two units the performance docs use."""

import gc
import sys


def cost(fn, codes=None):
    """``(calls, executed bytecodes)`` of ``fn()``: Python and C calls as
    the ledger's ``host_calls_per_io`` counts them, bytecodes as
    ``benchmarks/opcount.py`` does (``fn``'s own frame included).  A set
    passed as ``codes`` collects the code object of every Python frame
    entered (``Simulator._push.__code__ in codes``: was it called?)."""
    counted = [0, 0]
    # A collector pass inside ``fn`` would run the finalizers of earlier
    # garbage (suspended sim processes' ``finally`` blocks) as calls of
    # its own: clear that garbage first.
    gc.collect()

    def profile(frame, event, _arg):
        if event == "call" or event == "c_call":
            counted[0] += 1
            if codes is not None and event == "call":
                codes.add(frame.f_code)

    def trace(frame, event, _arg):
        frame.f_trace_opcodes = True
        if event == "opcode":
            counted[1] += 1
        return trace

    sys.setprofile(profile)
    sys.settrace(trace)
    try:
        fn()
    finally:
        sys.settrace(None)
        sys.setprofile(None)
    return tuple(counted)
