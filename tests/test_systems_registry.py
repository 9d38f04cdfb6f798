"""The name -> system-configuration registry (`repro.systems`)."""

import pytest

from repro import systems
from repro.core.runtime_model import SystemModel
from repro.errors import ModelError
from repro.interconnect.pcie import PCIeLink
from repro.units import USEC


class TestLookup:
    def test_available_lists_paper_systems_sorted(self):
        names = systems.available()
        assert names == sorted(names)
        assert {"emogi", "bam", "xlfdd", "cxl", "flash-cxl", "uvm"} <= set(names)

    def test_get_builds_system_models(self):
        for name in systems.available():
            model = systems.get(name)
            assert isinstance(model, SystemModel)

    def test_get_is_case_insensitive(self):
        assert systems.get("XLFDD").name == systems.get("xlfdd").name

    def test_unknown_name_lists_choices(self):
        with pytest.raises(ModelError) as excinfo:
            systems.get("nvlink")
        message = str(excinfo.value)
        assert "nvlink" in message
        for name in systems.available():
            assert name in message

    def test_kwargs_forward_to_factory(self):
        narrow = systems.get("xlfdd", alignment_bytes=512)
        default = systems.get("xlfdd")
        assert narrow.method.alignment_bytes == 512
        assert default.method.alignment_bytes != 512

    def test_link_forwards_to_factory(self):
        gen3 = systems.get("emogi", PCIeLink.from_name("gen3"))
        gen4 = systems.get("emogi", PCIeLink.from_name("gen4"))
        assert gen3.link.effective_bandwidth < gen4.link.effective_bandwidth

    def test_cxl_added_latency_keyword(self):
        slow = systems.get("cxl", added_latency=2 * USEC)
        fast = systems.get("cxl")
        assert slow.pool.latency == pytest.approx(fast.pool.latency + 2 * USEC)

    def test_uvm_works_without_edge_list_bytes(self):
        # The raw factory's pool_fraction default needs the graph size;
        # the registry adapter must not.
        assert isinstance(systems.get("uvm"), SystemModel)

    def test_unknown_kwarg_is_a_typeerror(self):
        # A typed ModelError naming the accepted options, checked
        # against the function that finally receives the keywords.
        with pytest.raises(ModelError, match="warp_speed.*remote_socket"):
            systems.get("emogi", warp_speed=9)
        with pytest.raises(ModelError, match="accepted: added_latency, devices"):
            systems.get("cxl", alignment_bytes=32)


class TestRegister:
    def test_duplicate_requires_replace(self):
        factory = lambda link=None, **kw: systems.get("emogi", link)
        systems.register("test-dup", factory)
        try:
            with pytest.raises(ModelError):
                systems.register("test-dup", factory)
            systems.register("test-dup", factory, replace=True)
        finally:
            systems._REGISTRY.pop("test-dup", None)

    def test_register_lowercases_and_rejects_empty(self):
        factory = lambda link=None, **kw: systems.get("emogi", link)
        systems.register("TEST-CASE", factory)
        try:
            assert "test-case" in systems.available()
            assert isinstance(systems.get("Test-Case"), SystemModel)
        finally:
            systems._REGISTRY.pop("test-case", None)
        with pytest.raises(ModelError):
            systems.register("", factory)

    def test_describe_covers_every_system(self):
        text = systems.describe()
        for name in systems.available():
            assert name in text


class TestConsumers:
    def test_cli_choices_come_from_registry(self):
        from repro import cli

        parser = cli.build_parser()
        # argparse stores choices on the action; find the run subcommand.
        text = parser.format_help()
        assert "run" in text  # smoke: parser builds against the registry

    def test_top_level_package_exports_registry(self):
        import repro

        assert repro.systems is systems
        assert "systems" in repro.__all__
