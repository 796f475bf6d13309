"""Small shared helpers."""


def parallel_map(fn, items):
    """Order-preserving map over independent study rows, run in this thread.

    The rows are GIL-bound, so a pool measured slower; bench/ traces this name.
    """
    return [fn(x) for x in items]
