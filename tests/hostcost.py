"""Host cost of one call, in the two units the performance docs use."""

import gc
import sys


def cost(fn, codes=None, c_calls=None):
    """``(calls, executed bytecodes)`` of ``fn()``: Python and C calls as
    the ledger's ``host_calls_per_io`` counts them, bytecodes as
    ``benchmarks/opcount.py`` does (``fn``'s own frame included).  A set
    passed as ``codes`` collects the code object of every Python frame
    entered (``Simulator._push.__code__ in codes``: was it called?); one
    passed as ``c_calls``, every C function called (:func:`c_called`)."""
    counted = [0, 0]
    # A collector pass inside ``fn`` would run the finalizers of earlier
    # garbage (suspended sim processes' ``finally`` blocks) as calls of
    # its own: clear that garbage first.
    gc.collect()

    def profile(frame, event, _arg):
        if event == "call" or event == "c_call":
            counted[0] += 1
            if event == "call":
                if codes is not None:
                    codes.add(frame.f_code)
            elif c_calls is not None:
                c_calls.add(_arg)

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


def c_called(c_calls, owner: type, name: str) -> bool:
    """Whether ``c_calls`` (from :func:`cost`) holds a call of the C
    method ``owner.name`` (``c_called(c_calls, dict, "get")``)."""
    return any(getattr(call, "__name__", None) == name
               and type(getattr(call, "__self__", None)) is owner
               for call in c_calls)


def calls(fn, inside=None):
    """Python and C calls of ``fn()``, counted as :func:`cost` counts
    them but with no opcode trace: fast enough for a whole rig's run.
    A dict passed as ``inside``, keyed by code objects, also counts the
    calls made directly in each of those functions' frames
    (``inside[QueuePair.resync.__code__]``)."""
    counted = 0
    gc.collect()        # as in cost(): no earlier garbage's finalizers

    def profile(frame, event, _arg):
        nonlocal counted
        if event == "call" or event == "c_call":
            counted += 1
            if inside is not None:
                caller = frame.f_back if event == "call" else frame
                if caller is not None and caller.f_code in inside:
                    inside[caller.f_code] += 1

    sys.setprofile(profile)
    try:
        fn()
    finally:
        sys.setprofile(None)
    return counted
