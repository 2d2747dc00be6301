"""User-facing DAG Data Driven Model API — the Python mirror of Table I.

The paper's C API asks the programmer for a ``dag_pattern`` struct: the
pattern type, ``dag_size``, the two ``partition_size`` values, and a
``data_mapping_function``; the runtime derives everything else
(``rect_size``, ``dag_pos``, per-vertex degrees). :class:`DagPatternSpec`
is that struct; :meth:`DagPatternSpec.build` performs the "other data
members are set automatically" initialization and returns the
:class:`~repro.dag.model.DAGDataDrivenModel`. The data mapping is not a
field here: a problem executes it (``DPProblem.input_regions`` /
``output_regions``).

:func:`table1_rows` introspects the live data structures to regenerate
Table I — the benchmark ``bench_table1_api.py`` prints it and the test
suite pins it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.dag.library import PATTERN_LIBRARY, get_pattern
from repro.dag.model import DAGDataDrivenModel
from repro.dag.partition import BlockShape
from repro.dag.pattern import DAGPattern, DAGVertex
from repro.utils.errors import ConfigError


@dataclass
class DagPatternSpec:
    """The ``dag_pattern`` struct a user fills in (Table I, lower half).

    Either ``pattern_type`` (a library name plus ``dag_size``) or an
    explicit ``pattern`` object (the user-defined path) must be given.
    """

    #: Library pattern name ("wavefront", "triangular", ...) or None.
    pattern_type: Optional[str] = None
    #: Cell-level DAG size (rows, cols); triangular/chain use rows only.
    dag_size: Optional[Tuple[int, int]] = None
    #: Process-level sub-task size after task partition.
    process_partition_size: BlockShape = 1
    #: Thread-level sub-task size.
    thread_partition_size: BlockShape = 1
    #: Explicit user-defined pattern (overrides pattern_type/dag_size).
    pattern: Optional[DAGPattern] = None

    def build(self) -> DAGDataDrivenModel:
        """Initialize the DAG Data Driven Model (Section IV-D)."""
        pattern = self.pattern
        if pattern is None:
            if self.pattern_type is None or self.dag_size is None:
                raise ConfigError(
                    "give either an explicit pattern or a pattern_type with dag_size"
                )
            if self.pattern_type not in PATTERN_LIBRARY:
                raise ConfigError(
                    f"unknown pattern type {self.pattern_type!r}; "
                    f"library has {sorted(PATTERN_LIBRARY)}"
                )
            rows, cols = self.dag_size
            if self.pattern_type in ("triangular", "chain"):
                pattern = get_pattern(self.pattern_type, rows)
            else:
                pattern = get_pattern(self.pattern_type, rows, cols)
        return DAGDataDrivenModel(
            pattern, self.process_partition_size, self.thread_partition_size
        )


#: (name, type, description) rows of Table I, upper half: DAGElement.
DAG_ELEMENT_FIELDS: Tuple[Tuple[str, str, str], ...] = (
    ("pre_cnt", "int", "prefix degree"),
    ("pos_cnt", "int", "postfix degree"),
    ("data_pre_cnt", "int", "prefix degree of data dependency"),
    ("posfix_id", "pointer to int", "linked list of postfix vertices"),
    ("data_prefix_id", "pointer to int", "linked list of data dependency vertices"),
    ("process", "pointer to function", "task function for DAG vertex"),
)

#: (name, type, description) rows of Table I, lower half: dag_pattern.
DAG_PATTERN_FIELDS: Tuple[Tuple[str, str, str], ...] = (
    ("dag_pattern_element", "pointer to DAGElement", "linked list of DAG vertices"),
    ("dag_size", "SizeT(row,col)", "the size of DAG"),
    ("partition_size", "SizeT(row,col)", "sub-task size after task partition"),
    ("rect_size", "SizeT(row,col)", "size of abstract DAG after task partition"),
    ("dag_pos", "PosT(x,y)", "position of upper left DAG"),
    ("dag_pattern_type", "enum DAG_pattern_type", "enum DAG type"),
    ("data_mapping_function", "pointer to function", "mapping computed data to DAG Pattern Model"),
)


def table1_rows() -> List[Tuple[str, str, str, bool]]:
    """Regenerate Table I, marking each field implemented-or-not by
    introspecting the live Python structures."""
    vertex_fields = set(DAGVertex.__dataclass_fields__)
    rows: List[Tuple[str, str, str, bool]] = []
    for name, ctype, desc in DAG_ELEMENT_FIELDS:
        rows.append((name, ctype, desc, name in vertex_fields))
    spec_fields = set(DagPatternSpec.__dataclass_fields__)
    model_attrs = {"dag_size", "rect_size", "dag_pos"}
    for name, ctype, desc in DAG_PATTERN_FIELDS:
        implemented = (
            name in spec_fields
            or name in model_attrs
            or name == "partition_size"  # split into process/thread sizes
            or name == "dag_pattern_element"  # DAGPattern.element materializes these
            or name == "dag_pattern_type"  # DagPatternSpec.pattern_type / PatternType
            # executed by the problem: DPProblem.input_regions / output_regions
            or name == "data_mapping_function"
        )
        rows.append((name, ctype, desc, implemented))
    return rows
