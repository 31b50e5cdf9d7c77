"""Reference data: the numbers reported in the paper's Tables I-V.

These values are transcribed verbatim from the paper (Mang, Gholami, Biros;
SC16) so that every benchmark can print the paper's row next to the
reproduced row.

Times are in seconds.  ``None`` marks entries the paper does not report
(e.g. FFT communication of a single-task run).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple


@dataclass(frozen=True)
class PaperRun:
    """One row of a scaling table in the paper."""

    run_id: int
    grid: Tuple[int, int, int]
    nodes: int
    tasks: int
    time_to_solution: float
    fft_communication: Optional[float]
    fft_execution: Optional[float]
    interp_communication: Optional[float]
    interp_execution: Optional[float]
    machine: str = "maverick"
    incompressible: bool = False

    @property
    def kernel_sum(self) -> float:
        parts = [
            self.fft_communication,
            self.fft_execution,
            self.interp_communication,
            self.interp_execution,
        ]
        return sum(p for p in parts if p is not None)


#: Table I — synthetic problem, Maverick, 16 tasks/node, compressible.
TABLE_I: List[PaperRun] = [
    PaperRun(1, (64, 64, 64), 1, 16, 1.54, 1.20e-1, 9.69e-2, 1.82e-1, 8.20e-1),
    PaperRun(2, (64, 64, 64), 2, 32, 9.50e-1, 1.42e-1, 4.88e-2, 1.15e-1, 4.27e-1),
    PaperRun(3, (128, 128, 128), 1, 16, 1.52e1, 1.73, 1.35, 1.84, 6.66),
    PaperRun(4, (128, 128, 128), 2, 32, 7.88, 1.30, 5.47e-1, 1.17, 3.49),
    PaperRun(5, (128, 128, 128), 4, 64, 4.70, 1.19, 2.83e-1, 5.43e-1, 1.87),
    PaperRun(6, (128, 128, 128), 16, 256, 2.01, 6.68e-1, 6.60e-2, 1.86e-1, 4.91e-1),
    PaperRun(7, (256, 256, 256), 2, 32, 7.99e1, 1.44e1, 1.01e1, 1.08e1, 2.83e1),
    PaperRun(8, (256, 256, 256), 8, 128, 2.30e1, 7.27, 1.56, 2.60, 8.04),
    PaperRun(9, (256, 256, 256), 32, 512, 7.23, 2.67, 3.38e-1, 5.93e-1, 2.00),
    PaperRun(10, (256, 256, 256), 64, 1024, 4.72, 1.70, 1.72e-1, 4.80e-1, 1.04),
    PaperRun(11, (512, 512, 512), 8, 128, 1.91e2, 4.50e1, 2.38e1, 2.18e1, 6.89e1),
    PaperRun(12, (512, 512, 512), 32, 512, 6.07e1, 1.90e1, 4.18, 4.22, 1.74e1),
    PaperRun(13, (512, 512, 512), 64, 1024, 3.29e1, 1.28e1, 1.77, 2.33, 8.57),
]

#: Table II — synthetic problem, Stampede, 2 tasks/node, compressible.
TABLE_II: List[PaperRun] = [
    PaperRun(14, (512, 512, 512), 256, 512, 3.84e1, 4.61, 2.62, 4.12, 1.98e1, machine="stampede"),
    PaperRun(15, (512, 512, 512), 512, 1024, 2.02e1, 2.23, 1.30, 2.38, 9.42, machine="stampede"),
    PaperRun(16, (512, 512, 512), 1024, 2048, 1.31e1, 1.69, 6.29e-1, 1.25, 4.83, machine="stampede"),
    PaperRun(17, (1024, 1024, 1024), 256, 512, 3.54e2, 3.29e1, 3.10e1, 3.72e1, 1.93e2, machine="stampede"),
    PaperRun(18, (1024, 1024, 1024), 512, 1024, 1.69e2, 2.23e1, 1.39e1, 1.79e1, 8.85e1, machine="stampede"),
    PaperRun(19, (1024, 1024, 1024), 1024, 2048, 8.57e1, 1.15e1, 6.75, 8.78, 4.42e1, machine="stampede"),
]

#: Table III — incompressible (volume preserving) runs, 128^3, Maverick, 2 tasks/node.
TABLE_III: List[PaperRun] = [
    PaperRun(20, (128, 128, 128), 1, 1, 1.48e2, 0.0, 1.98e1, 2.82, 9.26e1, machine="maverick-2tpn", incompressible=True),
    PaperRun(21, (128, 128, 128), 2, 4, 4.27e1, 3.18, 5.73, 8.39e-1, 2.31e1, machine="maverick-2tpn", incompressible=True),
    PaperRun(22, (128, 128, 128), 4, 8, 2.25e1, 2.17, 2.72, 5.83e-1, 1.15e1, machine="maverick-2tpn", incompressible=True),
    PaperRun(23, (128, 128, 128), 8, 16, 1.09e1, 1.10, 1.25, 4.03e-1, 5.80, machine="maverick-2tpn", incompressible=True),
    PaperRun(24, (128, 128, 128), 16, 32, 5.69, 6.69e-1, 6.20e-1, 2.68e-1, 2.93, machine="maverick-2tpn", incompressible=True),
]

#: Table IV — brain images (256 x 300 x 256), Maverick, strong scaling, beta = 1e-2.
TABLE_IV: List[PaperRun] = [
    PaperRun(25, (256, 300, 256), 1, 1, 1.34e3, 0.0, 2.59e2, 2.70e1, 7.72e2),
    PaperRun(26, (256, 300, 256), 2, 4, 3.92e2, 2.76e1, 6.91e1, 5.73, 1.90e2),
    PaperRun(27, (256, 300, 256), 8, 16, 9.54e1, 8.59, 1.38e1, 1.20, 4.78e1),
    PaperRun(28, (256, 300, 256), 16, 32, 4.85e1, 4.94, 6.50, 5.35e-1, 2.36e1),
    PaperRun(29, (256, 300, 256), 32, 256, 1.20e1, 4.03, 1.10, 8.77e-2, 3.31),
]

#: Table V — sensitivity to the regularization weight beta (brain images,
#: 4 Newton iterations).  Keys: beta -> (hessian matvecs, time to solution,
#: relative increase).  Note the paper's table header lists
#: {1e-2, 1e-3, 1e-4} in the caption but the rows read 1e-1/1e-3/1e-5.
TABLE_V: Dict[float, Tuple[int, float, float]] = {
    1e-1: (43, 2.42e1, 1.0),
    1e-3: (217, 1.11e2, 4.6),
    1e-5: (1689, 8.58e2, 35.0),
}

_TABLES = {
    "I": TABLE_I,
    "II": TABLE_II,
    "III": TABLE_III,
    "IV": TABLE_IV,
}


def paper_table(name: str) -> List[PaperRun]:
    """Return the reference rows of scaling table ``"I"``..``"IV"``."""
    try:
        return list(_TABLES[name.upper()])
    except KeyError as exc:
        raise ValueError(f"unknown table {name!r}; expected one of {sorted(_TABLES)}") from exc


def strong_scaling_groups(rows: List[PaperRun]) -> Dict[Tuple[int, int, int], List[PaperRun]]:
    """Group a table's rows by grid size (each group is a strong-scaling sweep)."""
    groups: Dict[Tuple[int, int, int], List[PaperRun]] = {}
    for row in rows:
        groups.setdefault(row.grid, []).append(row)
    for rows_for_grid in groups.values():
        rows_for_grid.sort(key=lambda r: r.tasks)
    return groups
