"""Exact inverse-CDF draws from many finite discrete laws at once.

The laws sit end to end in one flat table, one segment each. A draw with
uniform ``u`` from segment ``s`` lands on the flat position
``start[s] + min(searchsorted(cdf_s, u, side="right"), len(cdf_s) - 1)``,
bit for bit what a per-segment ``np.searchsorted`` gives, for a whole
vector of (segment, u) pairs in a few numpy passes.

The search starts from a guide table ("indexed search", Chen & Asau 1974;
Devroye 1986, section III.2.4). Segment ``s`` has ``m_s`` buckets, a power
of two (by default no larger than its searchable length), and bucket ``k``
stores the answer for ``u = k / m_s``. Since ``m_s`` is a power of two,
``u * m_s`` and ``k / m_s`` are exact, so a draw never starts past its
answer and stepping forward ends on it. On average fewer than two steps
remain; one step is taken for every draw, and the draws still short share
one fixed-length halving search up to the next bucket's start.
"""

from dataclasses import dataclass

import numpy as np

# the largest double below 1: u = 1 (a breakpoint) stays in the last bucket
_BELOW_ONE = np.nextafter(1.0, 0.0)


class SegmentedCdf:
    """Discrete laws stored end to end for vectorised inverse-CDF draws.

    ``table`` holds the laws' cdfs end to end, ``lengths[s]`` entries for
    law ``s``, each nondecreasing and nonnegative; it is kept, not copied.
    A law's last entry never decides a draw: every draw beyond the other
    entries lands on it, so its probability is one minus the entry before.
    The table stores it as +inf, which keeps every forward step inside its
    law. ``refine`` makes every guide 2**refine times finer.
    """

    def __init__(self, table, lengths, refine=0):
        lengths = np.asarray(lengths, dtype=np.intp)
        if lengths.size == 0 or lengths.min() < 1 or lengths.sum() != len(table):
            raise ValueError("every law needs at least one outcome in the table")
        self.start = np.concatenate([[0], np.cumsum(lengths)[:-1]])
        self.end = self.start + lengths - 1
        table[self.end] = np.inf
        self.table = table

        # m_s buckets: 2**refine times the largest power of two <=
        # max(searchable entries, 1); bucket k starts at the law's answer for
        # u = k / m_s, and one more guide entry per law, its last position,
        # closes the last bucket
        exponent = np.frexp(np.maximum(lengths - 1, 1))[1] - 1 + refine
        self.buckets = np.ldexp(1.0, exponent)
        counts = self.buckets.astype(np.intp) + 1
        self.guide_start = np.concatenate([[0], np.cumsum(counts)[:-1]])
        # guide entry k < m_s of law s is start_s plus the number of the
        # law's entries v <= k / m_s, that is with ceil(v * m_s) <= k (exact,
        # as m_s is a power of two). So each entry is counted at its law's
        # slot ceil(min(v, 1) * m_s), the +inf last one at the closing slot
        # m_s, and a running count over all slots is the guide; at a closing
        # slot it reads end_s + 1. The slots are filled in place, so the
        # constructor holds two table-sized temporaries at most
        slot = np.minimum(table, 1.0)
        np.ldexp(slot, np.repeat(exponent, lengths), out=slot)
        np.ceil(slot, out=slot)
        slot += np.repeat(self.guide_start, lengths)
        counted = np.bincount(slot.astype(np.intp), minlength=counts.sum())
        self.guide = np.cumsum(counted, dtype=np.int32)
        self.guide[self.guide_start + counts - 1] = self.end

    def draw(self, guide_start, buckets, u):
        """Flat positions of the draws ``u`` (each >= 0) from the laws whose
        guides start at ``guide_start`` with ``buckets`` buckets (arrays of
        ``u``'s length, or scalars shared by every draw)."""
        bucket = guide_start + (np.minimum(u, _BELOW_ONE) * buckets).astype(np.intp)
        pos = self.guide.take(bucket).astype(np.intp)
        table = self.table
        pos += table.take(pos) <= u
        short = (table.take(pos) <= u).nonzero()[0]
        if short.size:
            # the answer is in (last, hi] and table[hi] > u: halve steps, clamped at hi
            last, hi, u = pos[short], self.guide.take(bucket[short] + 1), u[short]
            step = 1 << int((hi - last).max() - 1).bit_length()
            while step > 1:
                step //= 2
                ahead = np.minimum(last + step, hi)
                last = np.where(table.take(ahead) <= u, ahead, last)
            pos[short] = last + 1
        return pos


@dataclass(frozen=True)
class EpochLaw:
    """Joint law of one decision epoch's sojourn and next level,
    P(tau | c, a) C_a_tau[c, c'], for every (level, action) with a sojourn
    law.

    Segment ``j`` of ``cdf`` is law ``j`` of the model's sojourn laws. Each
    law lists its positive-probability outcomes in tau-major order;
    ``cogs[pos]`` is the next level at flat position ``pos``, and
    ``arrival_row[pos]`` is the sojourn's index in the model's sorted taus
    (the sojourn is ``model._taus[arrival_row[pos]]``), its row of the
    capped arrival table, and its law in ``model.arrival_law``.
    """

    cogs: np.ndarray
    arrival_row: np.ndarray
    cdf: SegmentedCdf
