"""Parsers for dependency exports, manifests, and trace logs."""

import logging

import pytest
from hypothesis import given
from hypothesis import strategies as st

from monopart.ingest import (
    DependencyRecord,
    FlowRuleConfig,
    InfraManifest,
    Relation,
    TraceRecord,
    dependencies_from_doc,
    dependencies_to_doc,
    group_flows,
    load_flow_rules,
    manifest_to_yaml,
    parse_dependency_xml,
    parse_infra_yaml,
    parse_traces,
)
from monopart.model import InputError, ResourceKind


class TestDependencyXml:
    def test_direct_transcription(self):
        records = parse_dependency_xml(
            """<dependencies>
                 <class name="A">
                   <dependsOn name="B" relation="call"/>
                   <dependsOn name="C" relation="inheritance"/>
                 </class>
               </dependencies>"""
        )
        assert records == [
            DependencyRecord("A", "B", Relation.CALL),
            DependencyRecord("A", "C", Relation.INHERITANCE),
        ]

    def test_relation_defaults_to_call(self):
        records = parse_dependency_xml(
            '<dependencies><class name="A"><dependsOn name="B"/></class></dependencies>'
        )
        assert records[0].relation is Relation.CALL

    def test_self_dependency_dropped_with_warning(self, caplog):
        with caplog.at_level(logging.WARNING):
            records = parse_dependency_xml(
                '<dependencies><class name="A"><dependsOn name="A"/></class></dependencies>'
            )
        assert records == []
        assert any("self-dependency" in r.message for r in caplog.records)

    def test_names_are_trimmed(self):
        records = parse_dependency_xml(
            '<dependencies><class name=" A "><dependsOn name=" B "/></class></dependencies>'
        )
        assert records == [DependencyRecord("A", "B", Relation.CALL)]

    def test_malformed_xml_reports_line(self):
        with pytest.raises(InputError, match=r"line \d+"):
            parse_dependency_xml("<dependencies>\n  <class name='A'\n</dependencies>")

    def test_wrong_root_element(self):
        with pytest.raises(InputError, match="dependencies"):
            parse_dependency_xml("<classes/>")

    def test_unknown_relation_named(self):
        with pytest.raises(InputError, match="'uses'"):
            parse_dependency_xml(
                '<dependencies><class name="A"><dependsOn name="B" relation="uses"/></class></dependencies>'
            )

    def test_json_isomorph(self):
        records = parse_dependency_xml(
            '{"classes": [{"name": "A", "dependsOn": [{"name": "B", "relation": "reference"}, "C"]}]}'
        )
        assert records == [
            DependencyRecord("A", "B", Relation.REFERENCE),
            DependencyRecord("A", "C", Relation.CALL),
        ]

    def test_malformed_json_reports_line(self):
        with pytest.raises(InputError, match="line"):
            parse_dependency_xml('{"classes": [,]}')

    def test_daytrader_fixture_has_111_distinct_classes(self, fixtures_dir):
        data = (fixtures_dir / "daytrader" / "deps.xml").read_bytes()
        records = parse_dependency_xml(data)
        distinct = {r.from_class for r in records} | {r.to_class for r in records}
        assert len(distinct) == 111

    def test_doc_round_trip(self):
        records = [
            DependencyRecord("A", "B", Relation.CALL),
            DependencyRecord("B", "C", Relation.INHERITANCE),
        ]
        assert dependencies_from_doc(dependencies_to_doc(records)) == records


class TestInfraYaml:
    def test_direct_transcription(self):
        manifest = parse_infra_yaml(
            """
            resources:
              - name: db1
                kind: database
              - name: cacheA
                kind: cache
            bindings:
              - class: OrderDao
                resource: db1
            """
        )
        assert manifest.resources == (
            ("db1", ResourceKind.DATABASE),
            ("cacheA", ResourceKind.CACHE),
        )
        assert manifest.bindings == (("OrderDao", "db1"),)

    def test_kind_aliases_case_insensitive(self):
        manifest = parse_infra_yaml(
            """
            resources:
              - {name: a, kind: S3}
              - {name: b, kind: File_Storage}
              - {name: c, kind: VM}
              - {name: d, kind: EC2}
              - {name: e, kind: Compute}
              - {name: f, kind: DATABASE}
            """
        )
        kinds = dict(manifest.resources)
        assert kinds["a"] is ResourceKind.FILE_STORAGE
        assert kinds["b"] is ResourceKind.FILE_STORAGE
        assert kinds["c"] is ResourceKind.COMPUTE
        assert kinds["d"] is ResourceKind.COMPUTE
        assert kinds["e"] is ResourceKind.COMPUTE
        assert kinds["f"] is ResourceKind.DATABASE

    def test_unknown_kind_message(self):
        with pytest.raises(InputError, match="unknown resource kind 'blockchain'"):
            parse_infra_yaml("resources:\n  - {name: x, kind: blockchain}\n")

    def test_binding_to_undeclared_resource_names_both(self):
        with pytest.raises(InputError) as exc:
            parse_infra_yaml(
                """
                resources:
                  - {name: db1, kind: database}
                bindings:
                  - {class: OrderDao, resource: db9}
                """
            )
        assert "OrderDao" in str(exc.value) and "db9" in str(exc.value)

    def test_duplicate_resource_name(self):
        with pytest.raises(InputError, match="duplicate"):
            parse_infra_yaml(
                "resources:\n  - {name: db1, kind: database}\n  - {name: db1, kind: cache}\n"
            )

    def test_all_three_springblog_kinds(self):
        manifest = parse_infra_yaml(
            """
            resources:
              - {name: web, kind: compute}
              - {name: blogdb, kind: database}
              - {name: sessions, kind: cache}
            """
        )
        assert {kind for _n, kind in manifest.resources} == {
            ResourceKind.COMPUTE,
            ResourceKind.DATABASE,
            ResourceKind.CACHE,
        }

    def test_empty_document(self):
        assert parse_infra_yaml("") == InfraManifest()

    def test_round_trip_through_emitter(self):
        manifest = InfraManifest(
            resources=(("db1", ResourceKind.DATABASE), ("s3a", ResourceKind.FILE_STORAGE)),
            bindings=(("A", "db1"), ("B", "s3a"), ("A", "s3a")),
        )
        assert parse_infra_yaml(manifest_to_yaml(manifest)) == manifest


RULES = FlowRuleConfig(line_regex=r"^(?:\[(?P<flow>\w+)\] )?(?P<class>[\w.]+)$")


class TestParseTraces:
    def test_tagged_lines_get_increasing_seq(self):
        result = parse_traces("[F1] A\n[F1] B\n[F1] C\n", RULES)
        assert [r.seq for r in result.records] == [0, 1, 2]
        assert [r.class_name for r in result.records] == ["A", "B", "C"]

    def test_unparseable_lines_counted_not_fatal(self):
        log_text = "\n".join(["[F1] A"] * 8 + ["?? bad", "!! worse"])
        result = parse_traces(log_text, RULES)
        assert len(result.records) == 8
        assert result.skipped == 2

    def test_records_plus_skipped_equals_lines(self):
        log_text = "[F1] A\ngarbage !\n[F2] B\n"
        result = parse_traces(log_text, RULES)
        assert len(result.records) + result.skipped == 3

    def test_entry_point_segmentation(self):
        rules = FlowRuleConfig(line_regex=r"^(?P<class>\w+)$", entry_points=("A",))
        result = parse_traces("A\nB\nC\nA\nD\n", rules)
        flows = group_flows(result.records)
        assert [(f.id, f.members) for f in flows] == [
            ("F0", ("A", "B", "C")),
            ("F1", ("A", "D")),
        ]

    def test_no_entry_points_single_flow(self):
        rules = FlowRuleConfig(line_regex=r"^(?P<class>\w+)$")
        flows = group_flows(parse_traces("A\nB\nC\n", rules).records)
        assert [(f.id, f.members) for f in flows] == [("F0", ("A", "B", "C"))]

    def test_leading_non_entry_lines_form_first_segment(self):
        rules = FlowRuleConfig(line_regex=r"^(?P<class>\w+)$", entry_points=("A",))
        flows = group_flows(parse_traces("X\nY\nA\nB\n", rules).records)
        assert [(f.id, f.members) for f in flows] == [
            ("F0", ("X", "Y")),
            ("F1", ("A", "B")),
        ]

    def test_invalid_regex_is_config_error(self):
        with pytest.raises(InputError, match="regex"):
            parse_traces("A\n", FlowRuleConfig(line_regex=r"(?P<class>[unclosed"))

    def test_missing_class_group_rejected(self):
        with pytest.raises(InputError, match="'class'"):
            parse_traces("A\n", FlowRuleConfig(line_regex=r"(?P<flow>\w+)"))


class TestGroupFlows:
    def test_members_deduplicated_preserving_first(self):
        records = [
            TraceRecord("F1", 0, "A"),
            TraceRecord("F1", 1, "B"),
            TraceRecord("F1", 2, "A"),
            TraceRecord("F1", 3, "C"),
        ]
        flows = group_flows(records)
        assert flows[0].members == ("A", "B", "C")

    def test_empty_records(self):
        assert group_flows([]) == []

    def test_flows_may_overlap(self):
        records = [
            TraceRecord("F1", 0, "A"),
            TraceRecord("F1", 1, "B"),
            TraceRecord("F2", 0, "C"),
            TraceRecord("F2", 1, "B"),
        ]
        flows = group_flows(records)
        assert [f.members for f in flows] == [("A", "B"), ("C", "B")]

    def test_sorts_by_seq_within_hint(self):
        records = [
            TraceRecord("F1", 2, "C"),
            TraceRecord("F1", 0, "A"),
            TraceRecord("F1", 1, "B"),
        ]
        assert group_flows(records)[0].members == ("A", "B", "C")

    @given(
        st.lists(
            st.tuples(
                st.sampled_from(["F0", "F1", "F2"]),
                st.sampled_from(["A", "B", "C", "D"]),
            ),
            max_size=30,
        )
    )
    def test_members_unique_and_sourced(self, pairs):
        records = []
        seq: dict[str, int] = {}
        for hint, cls in pairs:
            records.append(TraceRecord(hint, seq.get(hint, 0), cls))
            seq[hint] = seq.get(hint, 0) + 1
        flows = group_flows(records)
        seen_classes = {r.class_name for r in records}
        for flow in flows:
            assert len(set(flow.members)) == len(flow.members)
            assert set(flow.members) <= seen_classes


class TestLoadFlowRules:
    def test_happy_path(self):
        rules = load_flow_rules("line_regex: '(?P<class>\\w+)'\nentry_points: [A, B]\n")
        assert rules.entry_points == ("A", "B")

    @pytest.mark.parametrize("value", ["web.Shop", "{web.Shop: 1}", "3", "false"])
    def test_entry_points_must_be_a_list(self, value):
        with pytest.raises(InputError, match="entry_points must be a list"):
            load_flow_rules(f"line_regex: '(?P<class>\\w+)'\nentry_points: {value}\n")

    def test_missing_line_regex(self):
        with pytest.raises(InputError, match="line_regex"):
            load_flow_rules("entry_points: [A]\n")
