"""Shared test helpers: gradients read out of a tape through ``backward``'s destinations."""

import numpy as np

from redlab import tensor as T


def grads(tape, loss, tensors):
    """d(loss)/d(t) for each of ``tensors``, in fresh arrays that ``backward``
    fills; ``tensors`` must cover every tensor the tape tracks.  The arrays
    start as NaN, so one that ``backward`` skipped shows."""
    out = [np.full_like(t.data, np.nan) for t in tensors]
    T.backward(tape, loss, list(zip(tensors, out)))
    return out


def step_grads(model, pair):
    """Every parameter gradient of the training loss on ``pair``, as one bytes string."""
    named = model.named_parameters()
    tape = T.Tape()
    with tape:
        loss = T.mean_all(T.absolute(T.sub(model.forward(pair.low), pair.clean)))
    return b"".join(g.tobytes() for g in grads(tape, loss, [t for _, t in named]))
