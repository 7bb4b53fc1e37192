"""Parsers for dependency exports, manifests, and trace logs."""

import logging
from pathlib import Path

import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from monopart import ingest
from monopart.infra import load_price_table
from monopart.ingest import (
    DependencyRecord,
    FlowRuleConfig,
    InfraManifest,
    Relation,
    dependencies_from_doc,
    dependencies_to_doc,
    group_flows,
    load_flow_rules,
    manifest_to_yaml,
    parse_dependency_xml,
    parse_infra_yaml,
    parse_traces,
)
from monopart.metrics import load_ground_truth
from monopart.model import InputError, ResourceKind

from oracles import group_flows_reference

ROOT = Path(__file__).resolve().parent.parent


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

    @pytest.mark.parametrize(
        "doc",
        [
            '{"classes": [{"name": ["x"], "dependsOn": ["B"]}]}',
            '{"classes": [{"name": 5}]}',
            '{"classes": [{"name": "A", "dependsOn": [{"name": ["B"]}]}]}',
            '{"classes": [{"name": "A", "dependsOn": [{"name": null}]}]}',
        ],
        ids=["class list", "class number", "dependency list", "dependency null"],
    )
    def test_json_names_must_be_strings(self, doc):
        with pytest.raises(InputError, match="name.* must be a string"):
            parse_dependency_xml(doc)

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

    @pytest.mark.parametrize("section", ["resources", "bindings"])
    @pytest.mark.parametrize("value", ["5", "web.Shop", "{a: 1}", "false"])
    def test_sections_must_be_lists(self, section, value):
        with pytest.raises(InputError, match=f"manifest {section} must be a list"):
            parse_infra_yaml(f"{section}: {value}\n")

    def test_null_sections_are_empty(self):
        assert parse_infra_yaml("resources:\nbindings: null\n") == InfraManifest()

    @pytest.mark.parametrize(
        "text, key",
        [
            ("resources:\n  - {name: [1], kind: database}\n", "name"),
            ("resources:\n  - {name: 7, kind: database}\n", "name"),
            ("resources:\n  - {name: db, kind: [database]}\n", "kind"),
            ("resources:\n  - {name: db, kind: database}\nbindings:\n  - {class: [1], resource: db}\n",
             "class"),
            ("resources:\n  - {name: db, kind: database}\nbindings:\n  - {class: A, resource: {db: 1}}\n",
             "resource"),
        ],
        ids=["name list", "name number", "kind list", "class list", "resource mapping"],
    )
    def test_names_must_be_strings(self, text, key):
        with pytest.raises(InputError, match=f"manifest {key} must be a string"):
            parse_infra_yaml(text)

    def test_bad_date_is_malformed_yaml(self):
        with pytest.raises(InputError, match="malformed YAML"):
            parse_infra_yaml("resources:\n  - {name: 2001-02-30, kind: database}\n")

    def test_round_trip_through_emitter(self):
        manifest = InfraManifest(
            resources=(("db1", ResourceKind.DATABASE), ("s3a", ResourceKind.FILE_STORAGE)),
            bindings=(("A", "db1"), ("B", "s3a"), ("A", "s3a")),
        )
        assert parse_infra_yaml(manifest_to_yaml(manifest)) == manifest


RULES = FlowRuleConfig(line_regex=r"^(?:\[(?P<flow>\w+)\] )?(?P<class>[\w.]+)$")


class TestParseTraces:
    def test_tagged_lines_keep_log_order(self):
        result = parse_traces("[F1] A\n[F1] B\n[F1] C\n", RULES)
        assert result.records == [("F1", "A"), ("F1", "B"), ("F1", "C")]

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
        assert result.records == [("F0", "A"), ("F0", "B"), ("F0", "C"), ("F1", "A"), ("F1", "D")]
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

    @settings(max_examples=300, deadline=None)
    @given(
        lines=st.lists(
            st.tuples(
                st.sampled_from(["", "[t1] ", "[ t2 ] ", "[F0] ", "[F1]  ", "[   ] ", "?? "]),
                st.sampled_from(["A", "B", "E", "  E  ", " ", "", "x!"]),
                st.sampled_from(["\n", "\r\n", "\r"]),
            ),
            max_size=40,
        ),
        entry_points=st.sampled_from([(), ("E",), ("E", "B")]),
        line_regex=st.sampled_from(
            [
                r"^(?:\[(?P<flow>[^\]]*)\] ?)?(?P<class>[\w ]*)$",
                r"^(?:\[(?P<flow>[^\]]*)\])?(?P<class>.*)$",
                r"(?P<class>[A-Z])",
            ]
        ),
    )
    def test_grouping_equals_reference(self, lines, entry_points, line_regex):
        log_text = "".join(tag + cls + end for tag, cls, end in lines)
        rules = FlowRuleConfig(line_regex=line_regex, entry_points=entry_points)
        result = parse_traces(log_text, rules)
        flows = [(f.id, f.members) for f in group_flows(result.records)]
        assert (flows, result.skipped) == group_flows_reference(log_text, line_regex, entry_points)


class TestGroupFlows:
    def test_members_deduplicated_preserving_first(self):
        records = [("F1", "A"), ("F1", "B"), ("F1", "A"), ("F1", "C")]
        flows = group_flows(records)
        assert flows[0].members == ("A", "B", "C")

    def test_empty_records(self):
        assert group_flows([]) == []

    def test_flows_may_overlap(self):
        records = [("F1", "A"), ("F1", "B"), ("F2", "C"), ("F2", "B")]
        flows = group_flows(records)
        assert [f.members for f in flows] == [("A", "B"), ("C", "B")]

    @given(
        st.lists(
            st.tuples(
                st.sampled_from(["F0", "F1", "F2"]),
                st.sampled_from(["A", "B", "C", "D"]),
            ),
            max_size=30,
        )
    )
    def test_members_unique_and_sourced(self, records):
        flows = group_flows(records)
        seen_classes = {cls for _flow, cls in records}
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

    @pytest.mark.parametrize(
        "text, message",
        [
            ("line_regex: '('\n", "invalid flow rule regex"),
            ("line_regex: 5\n", "line_regex must be a string"),
            ("line_regex: [a]\n", "line_regex must be a string"),
            ("line_regex: '(?P<flow>\\w+)'\n", "named group 'class'"),
            ("line_regex: '(?P<class>\\w+)'\nentry_points: [[1]]\n", "entry point must be a string"),
            ("line_regex: '(?P<class>\\w+)'\nentry_points: [A, 3]\n", "entry point must be a string"),
        ],
        ids=["unbalanced", "number", "list", "no class group", "nested list", "number entry"],
    )
    def test_rules_checked_when_loaded(self, text, message):
        with pytest.raises(InputError, match=message):
            load_flow_rules(text)


class TestLoadYaml:
    """The four YAML readers load through ``load_yaml``, which uses libyaml's
    ``CSafeLoader`` when PyYAML has it."""

    READERS = {
        "manifest.yaml": parse_infra_yaml,
        "truth.yaml": load_ground_truth,
        "flow-rules.example.yaml": load_flow_rules,
        "prices.example.yaml": load_price_table,
    }
    FILES = sorted(
        str(path.relative_to(ROOT))
        for path in [*ROOT.glob("fixtures/*/*.yaml"), *ROOT.glob("config/*.yaml")]
    )

    @pytest.mark.skipif(not yaml.__with_libyaml__, reason="PyYAML built without libyaml")
    def test_libyaml_loader_is_used(self):
        assert ingest.YAML_LOADER is yaml.CSafeLoader

    @pytest.mark.skipif(not yaml.__with_libyaml__, reason="PyYAML built without libyaml")
    @pytest.mark.parametrize("name", FILES)
    def test_loaders_read_equal_documents(self, monkeypatch, name):
        read = self.READERS[Path(name).name]
        data = (ROOT / name).read_bytes()
        monkeypatch.setattr(ingest, "YAML_LOADER", yaml.SafeLoader)
        pure = read(data)
        monkeypatch.setattr(ingest, "YAML_LOADER", yaml.CSafeLoader)
        assert read(data) == pure

    def test_every_reader_has_a_file(self):
        assert {Path(name).name for name in self.FILES} == set(self.READERS)

    @pytest.mark.skipif(not yaml.__with_libyaml__, reason="PyYAML built without libyaml")
    def test_tab_inside_plain_scalar(self, monkeypatch):
        text = "resources:\n  - name: db\tx\n    kind: database\n"
        assert parse_infra_yaml(text).resources == (("db\tx", ResourceKind.DATABASE),)
        monkeypatch.setattr(ingest, "YAML_LOADER", yaml.SafeLoader)
        with pytest.raises(InputError, match="malformed YAML"):
            parse_infra_yaml(text)
