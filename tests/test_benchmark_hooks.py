"""The benchmark's hooks still find the program's functions.

perfbench times and checks the program by wrapping its functions by name
(``perfbench.worker.install_tracer`` and ``CheckedRound.install``). A renamed
or moved function would otherwise only show when a benchmark run fails.
"""

from perfbench import corpus
from perfbench.probe import Patches, Tracer
from perfbench.worker import CheckedRound, install_tracer


class RecordingPatches(Patches):
    """Patches that note each attribute it cannot find instead of raising."""

    def __init__(self):
        super().__init__()
        self.missing = []

    def wrap(self, owner, attr, make_wrapper):
        try:
            super().wrap(owner, attr, make_wrapper)
        except (AttributeError, KeyError):
            where = f"{owner.__module__}.{owner.__qualname__}" if isinstance(owner, type) else owner.__name__
            self.missing.append(f"{where}.{attr}")


def test_benchmark_hook_points_resolve():
    tiny = corpus.generate(corpus.CorpusSpec("cycle", 2, 4, 8, 0), seed=0)
    with RecordingPatches() as patches:
        install_tracer(Tracer(), patches)
        CheckedRound(tiny, arch={}).install(patches)
    missing = list(dict.fromkeys(patches.missing))
    assert missing == [], "benchmark hook points no longer resolve: " + ", ".join(missing)
