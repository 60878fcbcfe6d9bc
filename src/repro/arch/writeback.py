"""Write-back economics: QNRO vs destructive sensing.

Quantifies the paper's §II claim that QNRO "allows multiple reads before
P_FE changes due to accumulative switching disturb, minimizing
write-backs and enhancing endurance":

* a destructive-read memory (1T-1C FeRAM / DRAM) must restore the row
  after *every* read;
* a QNRO memory schedules a scrub (write-back) only once the
  accumulated disturb approaches the sense margin — every
  ``reads_until_disturb(...) / safety_factor`` reads.

The model combines the device-level disturb analysis from
:mod:`repro.ferro.reliability` with the row-command energies of the
architecture spec, yielding energy-per-read and cell write-cycles-per-
read (the endurance currency) for both policies.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from repro.arch.commands import Command, CommandType, Stats
from repro.arch.spec import FERAM_2TNC_8GB, MemorySpec
from repro.errors import ArchitectureError
from repro.ferro.materials import NVDRAM_CAL, FerroMaterial
from repro.ferro.reliability import reads_until_disturb

__all__ = ["WritebackPolicy", "ScrubAccountant",
           "compare_writeback_policies", "policy_for_spec"]


@dataclass(frozen=True)
class WritebackPolicy:
    """Cost of a read stream under one write-back discipline."""

    name: str
    reads_per_writeback: int
    energy_per_read_j: float
    write_cycles_per_read: float

    def endurance_reads(self, cell_endurance_cycles: float) -> float:
        """Reads sustainable before the cell's write endurance is spent."""
        if self.write_cycles_per_read <= 0:
            return float("inf")
        return cell_endurance_cycles / self.write_cycles_per_read


def compare_writeback_policies(
        *, material: FerroMaterial = NVDRAM_CAL,
        spec: MemorySpec = FERAM_2TNC_8GB,
        v_read: float = 0.5, t_read: float = 50e-9,
        margin: float = 0.5, safety_factor: float = 2.0,
        ) -> tuple[WritebackPolicy, WritebackPolicy]:
    """(destructive, qnro) policies for the given read condition.

    ``v_read`` is the *effective* voltage across the capacitor during a
    read activation — the cell's capacitive divider leaves ~0.45-0.55 V
    of the 0.75 V WBL rail on the MFM (see the behavioural cell's charge
    balance).  ``margin`` is the tolerable fraction of lost polarization
    before a scrub; ``safety_factor`` divides the device-model read
    budget to set the actual scrub period (guard band against
    variation).  Note the spec's ``control_rewrite_period`` of 32 is a
    further ~8x more conservative than this budget.
    """
    if safety_factor < 1.0:
        raise ArchitectureError("safety_factor must be >= 1")
    read_energy = spec.e_activate + spec.e_precharge
    writeback_energy = spec.e_row_write

    destructive = WritebackPolicy(
        name="destructive (restore every read)",
        reads_per_writeback=1,
        energy_per_read_j=read_energy + writeback_energy,
        write_cycles_per_read=1.0,
    )

    budget = reads_until_disturb(material, v_read=v_read, t_read=t_read,
                                 margin=margin)
    period = max(1, int(budget / safety_factor))
    qnro = WritebackPolicy(
        name=f"QNRO (scrub every {period} reads)",
        reads_per_writeback=period,
        energy_per_read_j=read_energy + writeback_energy / period,
        write_cycles_per_read=1.0 / period,
    )
    return destructive, qnro


def policy_for_spec(spec: MemorySpec, **condition) -> WritebackPolicy:
    """The write-back discipline a technology actually runs under.

    DRAM (and 1T-1C FeRAM) sensing is destructive — every read
    restores the row; a 2T-nC QNRO memory scrubs only as accumulated
    disturb approaches the sense margin.  ``condition`` forwards the
    read-condition keywords of :func:`compare_writeback_policies`.
    """
    destructive, qnro = compare_writeback_policies(spec=spec,
                                                   **condition)
    return destructive if spec.technology == "dram" else qnro


class ScrubAccountant:
    """Mutation-path energy ledger for a served, *mutable* column table.

    The query executors charge compute reads (ACPs/AAPs); this class
    charges the **data-maintenance** side the paper's QNRO claim is
    about, per column and per shard:

    * **writes** — an in-place column mutation dirties only the rows
      its bit span touches on each shard; every dirty row costs one
      ``ROW_WRITE`` (a TBA write burst on FeRAM, a restore write on
      DRAM) and freshly rewrites the cells' polarization, so the
      shard's read-disturb counter resets;
    * **read disturb** — each query execution that references a column
      activates its rows once; after
      :attr:`WritebackPolicy.reads_per_writeback` accumulated reads a
      shard must be scrubbed (``ROW_WRITE`` per row).  Under the
      destructive policy the period is 1 — the DRAM restore-every-read
      baseline — while QNRO amortizes one scrub over hundreds of
      reads.

    All charges land in :attr:`stats`, a ledger the service reports
    *separately* from the compute ledger (maintenance energy is not
    attributed to individual queries).
    """

    def __init__(self, spec: MemorySpec, shard_rows: list[int], *,
                 policy: WritebackPolicy | None = None) -> None:
        self.spec = spec
        self.shard_rows = list(shard_rows)
        self.policy = policy or policy_for_spec(spec)
        self.stats = Stats()
        self._counts: dict[str, list[int]] = {}
        # Reads noted by note_reads but not yet added to _counts: every
        # one is known not to reach the scrub period, so adding them
        # later (per column on its next access) changes nothing.
        self._pending: Counter = Counter()
        # Upper bound on every counter plus its pending reads.
        self._peak = 0
        self.reads_noted = 0
        self.rows_written = 0
        self.scrubs = 0           #: (column, shard) scrub events
        self.scrub_rows = 0
        self.write_energy_j = 0.0
        self.scrub_energy_j = 0.0

    @property
    def _reads(self) -> dict[str, list[int]]:
        """column -> per-shard reads since that shard's last
        scrub/write."""
        for column in list(self._pending):
            self._counters(column)
        return self._counts

    @_reads.setter
    def _reads(self, counts: dict[str, list[int]]) -> None:
        self._pending.clear()
        self._counts = counts
        self._peak = max(map(max, counts.values()), default=0)

    def _counters(self, column: str) -> list[int]:
        counters = self._counts.get(column)
        if counters is None:
            counters = self._counts[column] = [0] * len(self.shard_rows)
        n = self._pending.pop(column, 0)
        if n:
            counters[:] = [count + n for count in counters]
        return counters

    def forget(self, column: str) -> None:
        """Drop a column's disturb counters (the column was dropped)."""
        self._counts.pop(column, None)
        self._pending.pop(column, None)

    def note_write(self, column: str, rows_by_shard: list[int],
                   ) -> Stats:
        """Charge a mutation that dirtied ``rows_by_shard[i]`` rows on
        shard ``i``; returns the Stats delta of this write alone."""
        delta = Stats()
        counters = self._counters(column)
        for index, n_rows in enumerate(rows_by_shard):
            if n_rows:
                counters[index] = 0  # fresh polarization on this shard
        total = sum(rows_by_shard)
        if total:
            delta.record(self.spec,
                         Command(CommandType.ROW_WRITE, repeat=total))
            self.rows_written += total
            self.write_energy_j += delta.total_energy_j
            self.stats.iadd(delta)
        return delta

    def note_read(self, column: str, n: int = 1) -> int:
        """Accrue ``n`` row activations of every shard of ``column``;
        charges (and returns the count of) any scrubs now due."""
        period = self.policy.reads_per_writeback
        counters = self._counters(column)
        self.reads_noted += n
        scrubbed = 0
        for index, rows in enumerate(self.shard_rows):
            counters[index] += n
            due, counters[index] = divmod(counters[index], period)
            if due:
                scrubbed += due
                self.scrubs += due
                self.scrub_rows += due * rows
                delta = Stats()
                delta.record(self.spec,
                             Command(CommandType.ROW_WRITE,
                                     repeat=due * rows))
                self.scrub_energy_j += delta.total_energy_j
                self.stats.iadd(delta)
        self._peak = max(self._peak, max(counters))
        return scrubbed

    def note_reads(self, columns) -> int:
        """:meth:`note_read` once per occurrence in ``columns``.

        When no (column, shard) counter can reach the scrub period,
        each column's occurrences are added in one step (deferred to
        the column's next access).  Otherwise the whole call falls
        back to per-occurrence :meth:`note_read`, so scrub charges and
        their float sums stay bit-identical.
        """
        columns = tuple(columns)
        if not columns:
            return 0
        limit = self.policy.reads_per_writeback - 1
        counts = None
        most = 1
        if len(set(columns)) < len(columns):
            counts = Counter(columns)
            most = max(counts.values())
        if self._peak + most <= limit:
            # No counter can cross: defer the adds (one C-level update).
            self._pending.update(columns)
            self._peak += most
        else:
            counts = counts or Counter(columns)
            tops = [max(self._counters(column)) + n
                    for column, n in counts.items()]
            if max(tops) > limit:
                scrubbed = sum(map(self.note_read, columns))
                self._peak = max(map(max, self._reads.values()),
                                 default=0)
                return scrubbed
            self._pending.update(columns)
            self._peak = max(self._peak, *tops)
        self.reads_noted += len(columns)
        return 0

    def reads_since_scrub(self, column: str) -> list[int]:
        """Per-shard accumulated disturb reads (introspection)."""
        return list(self._counters(column))

    def summary(self) -> dict:
        """JSON-safe ledger snapshot for service counters."""
        return {
            "policy": self.policy.name,
            "reads_per_writeback": self.policy.reads_per_writeback,
            "reads_noted": self.reads_noted,
            "rows_written": self.rows_written,
            "scrubs": self.scrubs,
            "scrub_rows": self.scrub_rows,
            "write_energy_nj": self.write_energy_j * 1e9,
            "scrub_energy_nj": self.scrub_energy_j * 1e9,
            "energy_nj": self.stats.total_energy_j * 1e9,
            "cycles": self.stats.total_cycles,
        }
