"""The loading controller (paper §5.1): recompute ratio and storage device."""

import pytest

from repro.core.controller import LoadingController
from repro.kvstore.device import StorageDevice, get_device
from repro.model.config import get_config
from repro.serving.costmodel import GPUSpec, ServingCostModel

N_CONTEXT = 2048


@pytest.fixture(scope="module")
def cost_model() -> ServingCostModel:
    return ServingCostModel(get_config("mistral-7b"), GPUSpec())


def _device_at_break_even(cost_model: ServingCostModel, ratio: float) -> StorageDevice:
    """A latency-free device whose per-layer load of N_CONTEXT tokens takes
    exactly *ratio* of the per-layer prefill."""
    layer_bytes = N_CONTEXT * cost_model.kv_bytes_per_token_per_layer()
    bandwidth = layer_bytes / (ratio * cost_model.prefill_layer_time(N_CONTEXT))
    return StorageDevice(
        name=f"break_even_{ratio}",
        read_bandwidth=bandwidth,
        access_latency=0.0,
        capacity_bytes=1 << 40,
        cost_per_gb_month=0.1,
    )


class TestPickRecomputeRatio:
    @pytest.mark.parametrize("ratio", [0.2, 0.4, 0.75])
    def test_is_the_load_prefill_break_even_between_the_clamps(self, cost_model, ratio):
        controller = LoadingController(cost_model, min_quality_ratio=0.15, max_ratio=0.8)
        device = _device_at_break_even(cost_model, ratio)
        picked = controller.pick_recompute_ratio(N_CONTEXT, device)
        assert picked == pytest.approx(ratio)
        assert cost_model.recompute_layer_time(N_CONTEXT, picked) == pytest.approx(
            cost_model.kv_load_time_per_layer(N_CONTEXT, device)
        )

    @pytest.mark.parametrize(
        "break_even, expected", [(0.05, 0.15), (0.15, 0.15), (0.8, 0.8), (3.0, 0.8)]
    )
    def test_clamps_to_the_quality_floor_and_the_cap(self, cost_model, break_even, expected):
        controller = LoadingController(cost_model, min_quality_ratio=0.15, max_ratio=0.8)
        device = _device_at_break_even(cost_model, break_even)
        assert controller.pick_recompute_ratio(N_CONTEXT, device) == pytest.approx(expected)

    @pytest.mark.parametrize("n_context_tokens", [0, -5])
    def test_no_context_keeps_the_quality_floor(self, cost_model, n_context_tokens):
        controller = LoadingController(cost_model, min_quality_ratio=0.2)
        for name in ("cpu_ram", "slow_disk"):
            assert controller.pick_recompute_ratio(n_context_tokens, get_device(name)) == 0.2


class TestChooseDevice:
    PRESETS = ("gpu_hbm", "cpu_ram", "nvme_ssd", "sata_ssd", "slow_disk")

    def _loads(self, cost_model, names):
        return {
            name: cost_model.kv_load_time_per_layer(N_CONTEXT, get_device(name))
            for name in names
        }

    def test_cheapest_device_whose_load_hides_the_recompute(self, cost_model):
        controller = LoadingController(cost_model)
        recompute = cost_model.recompute_layer_time(N_CONTEXT, controller.min_quality_ratio)
        loads = self._loads(cost_model, self.PRESETS)
        # The premise: only the two fastest (and dearest) tiers hide the
        # recompute, and cpu_ram is the cheaper of them.
        assert [name for name in self.PRESETS if loads[name] <= recompute] == [
            "gpu_hbm",
            "cpu_ram",
        ]
        devices = [get_device(name) for name in self.PRESETS]
        assert controller.choose_device(N_CONTEXT, devices).name == "cpu_ram"

    def test_a_larger_ratio_admits_slower_cheaper_devices(self, cost_model):
        controller = LoadingController(cost_model)
        devices = [get_device(name) for name in self.PRESETS]
        recompute = cost_model.recompute_layer_time(N_CONTEXT, 1.0)
        loads = self._loads(cost_model, self.PRESETS)
        assert loads["sata_ssd"] <= recompute < loads["slow_disk"]
        assert controller.choose_device(N_CONTEXT, devices, ratio=1.0).name == "sata_ssd"

    def test_cheapest_overall_when_no_device_hides_the_recompute(self, cost_model):
        controller = LoadingController(cost_model)
        recompute = cost_model.recompute_layer_time(N_CONTEXT, controller.min_quality_ratio)
        names = ("nvme_ssd", "slow_disk", "sata_ssd")
        assert all(load > recompute for load in self._loads(cost_model, names).values())
        devices = [get_device(name) for name in names]
        assert controller.choose_device(N_CONTEXT, devices).name == "slow_disk"

    def test_rejects_an_empty_device_list(self, cost_model):
        with pytest.raises(ValueError, match="at least one"):
            LoadingController(cost_model).choose_device(N_CONTEXT, [])


class TestDecide:
    @pytest.mark.parametrize("devices", [None, []])
    def test_needs_a_device_or_a_device_list(self, cost_model, devices):
        with pytest.raises(ValueError, match="device"):
            LoadingController(cost_model).decide(N_CONTEXT, devices=devices)

    def test_a_device_list_picks_the_device_then_its_ratio(self, cost_model):
        controller = LoadingController(cost_model)
        devices = [get_device(name) for name in TestChooseDevice.PRESETS]
        decision = controller.decide(N_CONTEXT, devices=devices)
        assert decision.device.name == "cpu_ram"
        assert decision.recompute_ratio == controller.pick_recompute_ratio(
            N_CONTEXT, decision.device
        )

    @pytest.mark.parametrize("ratio", [0.2, 0.4, 0.75])
    def test_recompute_is_hidden_at_an_unclamped_ratio(self, cost_model, ratio):
        controller = LoadingController(cost_model)
        decision = controller.decide(
            N_CONTEXT, device=_device_at_break_even(cost_model, ratio)
        )
        assert decision.recompute_ratio == pytest.approx(ratio)
        assert decision.recompute_hidden

    def test_recompute_is_exposed_when_the_quality_floor_binds(self, cost_model):
        """Loading faster than the r* recompute cannot hide it."""
        decision = LoadingController(cost_model).decide(
            N_CONTEXT, device=get_device("cpu_ram")
        )
        assert decision.recompute_ratio == 0.15
        assert not decision.recompute_hidden
