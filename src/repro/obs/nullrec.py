"""The no-op recorder, in a dependency-free module.

``ArrayController`` (in :mod:`repro.sim`) carries :data:`NULL_RECORDER`
as its class-level default instrumentation sink, and
:mod:`repro.obs.recorder` needs :class:`repro.sim.stats.LatencyDigest`
— importing either package therefore reaches for the other.  Keeping
the null recorder here, with no imports at all, breaks that cycle: the
sim layer depends only on this leaf, and the real recorder re-exports
it for the public API.
"""

__all__ = ["NullRecorder", "NULL_RECORDER"]


class NullRecorder:
    """No-op recorder: the zero-overhead default instrumentation sink.

    ``enabled`` is False; engines gate their (vectorized) emission on
    it, so disabled runs never build sample arrays for the recorder.
    """

    enabled = False

    def feed(self, shard, kind, comps, lats):
        pass

    def record(self, shard, kind, t, lat):
        pass

    def arrivals(self, shard, times):
        pass

    def arrive(self, shard, t, n=1):
        pass

    def gauge(self, name, key, t, value):
        pass

    def count(self, name, n=1, volatile=False):
        pass

    def set_engine(self, shard, engine):
        pass

    def set_stat(self, shard, name, value):
        pass

    def shard_state(self, shard):
        return None

    def restore_shard(self, shard, state):
        pass


#: Shared singleton — the class default for ``ArrayController.obs``.
NULL_RECORDER = NullRecorder()
