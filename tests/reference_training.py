"""The acceptance suite's four 2,000-step reference trainings, in worker processes.

Criteria 7, 9 and 10 use a plain and an ADR model trained for 2,000 steps,
and criterion 9 trains each recipe again to check that its loss history
replays bit for bit.  A :class:`ReferenceRuns` submits all four trainings
to a pool of worker processes when it is made, which ``conftest.py`` does
as soon as collection selects a test that needs them, so they run alongside
each other and the rest of the suite.  Each worker times its own training,
so the acceptance time bounds still apply to the training alone.
"""

import multiprocessing
import os
from concurrent.futures import ProcessPoolExecutor
from time import perf_counter

from redlab.datagen import make_corpus
from redlab.enhancer import ToyEnhancer, train
from redlab.rng import Rng

CORPUS_SEED = 42     # 64 training pairs at 32x32
MODEL_SEED = 7       # construction stream for both 2,000-step variants
TRAIN_SEED = 11      # shuffle schedule for both variants
TRAIN_STEPS = 2000

# run name -> whether both decoder blocks carry reallocation; the longer ADR
# runs come first so that the pool finishes as early as it can
RUNS = {"adr": True, "adr_replay": True, "plain": False, "plain_replay": False}

# a run that has not finished by then has hung: the slowest takes well under
# a minute alone on 2 vCPUs, and criterion 9 bounds each at 300 s
WAIT_S = 900


def train_reference(adr: bool) -> tuple:
    """(arena, loss history, seconds) of one reference training."""
    model = ToyEnhancer(Rng(MODEL_SEED), adr_blocks=(adr, adr))
    corpus = make_corpus(CORPUS_SEED, 64, 32, 32)
    t0 = perf_counter()
    state = train(model, corpus, steps=TRAIN_STEPS, seed=TRAIN_SEED)
    return model.arena, state.loss_history, perf_counter() - t0


class ReferenceRuns:
    """Every run of :data:`RUNS`, training in at most four worker processes."""

    def __init__(self):
        workers = min(len(RUNS), os.cpu_count() or 1)
        self._pool = ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("spawn"))
        self._futures = {name: self._pool.submit(train_reference, adr)
                         for name, adr in RUNS.items()}

    def result(self, name: str) -> tuple:
        """(trained model, loss history, seconds) of run ``name``, once it has finished."""
        arena, history, seconds = self._futures[name].result(timeout=WAIT_S)
        adr = RUNS[name]
        return ToyEnhancer(lambda plan: arena, adr_blocks=(adr, adr)), history, seconds

    def close(self) -> None:
        """Shut the pool down, dropping the runs that have not started."""
        self._pool.shutdown(wait=True, cancel_futures=True)
