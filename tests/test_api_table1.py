"""Table I reproduction: the user-API data structures of the DAG DDM.

The paper's only table is an API specification; reproducing it means the
live Python structures expose every field (or a documented equivalent).
These tests pin that, and ``benchmarks/bench_table1_api.py`` prints the
regenerated table.
"""

import pytest

from repro.dag.library import TriangularPattern, WavefrontPattern
from repro.dag.pattern import DAGVertex
from repro.runtime.api import (
    DAG_ELEMENT_FIELDS,
    DAG_PATTERN_FIELDS,
    DagPatternSpec,
    table1_rows,
)
from repro.utils.errors import ConfigError


class TestTable1Coverage:
    def test_every_field_implemented(self):
        rows = table1_rows()
        missing = [name for name, _, _, ok in rows if not ok]
        assert missing == [], f"Table I fields without an implementation: {missing}"

    def test_row_count_matches_paper(self):
        assert len(table1_rows()) == len(DAG_ELEMENT_FIELDS) + len(DAG_PATTERN_FIELDS) == 13

    def test_dag_element_fields_exist_on_vertex(self):
        fields = DAGVertex.__dataclass_fields__
        for name, _, _ in DAG_ELEMENT_FIELDS:
            assert name in fields, name

    def test_vertex_degrees_consistent(self):
        v = WavefrontPattern(3, 3).element((1, 1))
        assert v.pre_cnt == len(v.data_prefix_id) - 1  # data adds the NW cell
        assert v.pos_cnt == len(v.posfix_id)


class TestDagPatternSpec:
    def test_build_from_library_type(self):
        spec = DagPatternSpec(
            pattern_type="wavefront",
            dag_size=(40, 40),
            process_partition_size=10,
            thread_partition_size=5,
        )
        model = spec.build()
        assert model.dag_size == (40, 40)
        assert model.rect_size == (4, 4)

    def test_build_triangular_uses_single_dimension(self):
        spec = DagPatternSpec(pattern_type="triangular", dag_size=(30, 30),
                              process_partition_size=10, thread_partition_size=5)
        model = spec.build()
        assert isinstance(model.pattern, TriangularPattern)
        assert model.pattern.n == 30

    def test_build_from_explicit_pattern(self):
        spec = DagPatternSpec(
            pattern=WavefrontPattern(20, 30),
            process_partition_size=(10, 15),
            thread_partition_size=(5, 5),
        )
        assert spec.build().rect_size == (2, 2)

    def test_missing_pattern_info_rejected(self):
        with pytest.raises(ConfigError):
            DagPatternSpec(pattern_type="wavefront").build()
        with pytest.raises(ConfigError):
            DagPatternSpec(dag_size=(10, 10)).build()

    def test_unknown_type_rejected(self):
        with pytest.raises(ConfigError, match="unknown pattern type"):
            DagPatternSpec(pattern_type="hexagonal", dag_size=(10, 10)).build()
