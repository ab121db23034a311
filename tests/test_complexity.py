"""Parameter and multiplication counting against the published model sizes."""

import dataclasses
import json

import pytest

from stnet import arch, complexity, model


class TestParamCounts:
    def test_txb_head_exact_total(self):
        rep = complexity.analyze(arch.load_preset("txb-head-irv2"))
        assert rep.total_params == 4_620_688
        by_name = {r.name: r.params for r in rep.rows}
        assert by_name == {
            "txb/bn": 3072,
            "txb/long/cw1": 6144,
            "txb/long/tw1": 1_573_888,
            "txb/long/cw2": 4096,
            "txb/long/tw2": 1_049_600,
            "txb/short/tw": 1_573_888,
            "head/fc": 410_000,
        }

    def test_fc_row_param_formula(self):
        rep = complexity.analyze(arch.load_preset("txb-head-irv2"))
        fc = next(r for r in rep.rows if r.name == "head/fc")
        assert fc.params == 1024 * 400 + 400 == 410_000

    def test_resnet50_within_one_percent(self):
        rep = complexity.analyze(arch.load_preset("stnet-resnet50"))
        assert abs(rep.total_params - 33.16e6) / 33.16e6 < 0.01

    def test_resnet101_within_one_percent(self):
        rep = complexity.analyze(arch.load_preset("stnet-resnet101"))
        assert abs(rep.total_params - 52.15e6) / 52.15e6 < 0.01

    def test_ordinary_head_count_construction(self):
        # Two full kernel-3 temporal convs (width 1024) plus the classifier.
        spec = dataclasses.replace(arch.load_preset("txb-head-irv2"),
                                   head="ordinary_tconv")
        rep = complexity.analyze(arch.validate(spec))
        assert rep.total_params == (1024 * 1536 * 3 + 1024) \
            + (1024 * 1024 * 3 + 1024) + 410_000 == 8_276_368


class TestFlopCounts:
    def test_single_conv_formula(self):
        plan, _ = model._conv_bn("stage0", "", 1, 1, 3, 1, 1, 4, 4)
        assert plan.macs == 144  # 16 positions x 9 taps

    def test_resnet50_flops_within_five_percent(self):
        rep = complexity.analyze(arch.load_preset("stnet-resnet50"))
        assert abs(rep.total_mults - 189.29e9) / 189.29e9 < 0.05

    def test_tm_block_closed_form(self):
        rep = complexity.analyze(arch.load_preset("stnet-resnet50"))
        tm = {r.name: r.mults for r in rep.rows}
        assert tm["tm2/conv"] == 3 * 512 * 512 * 32 * 32 * 25  # 20.13G
        assert tm["tm3/conv"] == 3 * 1024 * 1024 * 16 * 16 * 25

    def test_counts_scale_linearly_in_t(self):
        spec = arch.load_preset("stnet-toy")
        base = complexity.analyze(spec)
        doubled = complexity.analyze(arch.with_overrides(spec, t=2 * spec.t))
        for r1, r2 in zip(base.rows, doubled.rows):
            if r1.name == "head/fc":  # applied once, after temporal pooling
                assert r2.mults == r1.mults
            else:
                assert r2.mults == 2 * r1.mults

    def test_resolution_doubling_quadruples_conv_mults(self):
        spec = arch.load_preset("stnet-toy")
        base = complexity.analyze(spec)
        big = complexity.analyze(arch.with_overrides(spec, res=2 * spec.height))
        for r1, r2 in zip(base.rows, big.rows):
            if "conv" in r1.name and not r1.name.startswith(("txb", "head")):
                assert r2.mults == 4 * r1.mults, r1.name


class TestCrossModuleConsistency:
    @pytest.mark.parametrize("preset", ["stnet-toy", "tsn-toy", "txb-head-irv2"])
    def test_params_match_built_model(self, preset):
        spec = arch.load_preset(preset)
        m = model.build_model(spec, seed=0)
        rep = complexity.analyze(spec)
        built = sum(t.size for name, t in m.params.items()
                    if not name.endswith(("/mean", "/var")))
        assert rep.total_params == built
        assert {r.name for r in rep.rows} \
            == {n.rsplit("/", 1)[0] for n in m.params}

    def test_every_tensor_maps_to_exactly_one_row(self):
        spec = arch.load_preset("stnet-toy")
        rep = complexity.analyze(spec)
        names = [r.name for r in rep.rows]
        assert len(names) == len(set(names))
        for pname in model.parameter_shapes(spec):
            owners = [n for n in names if pname.rsplit("/", 1)[0] == n]
            assert len(owners) == 1, pname


class TestEmit:
    def test_totals_match_rows(self):
        rep = complexity.analyze(arch.load_preset("stnet-toy"))
        assert rep.total_params == sum(r.params for r in rep.rows)
        assert rep.total_mults == sum(r.mults for r in rep.rows)

    def test_json_round_trip(self):
        rep = complexity.analyze(arch.load_preset("stnet-toy"))
        doc = json.loads(complexity.report_json(rep))
        assert doc["total_params"] == rep.total_params
        assert doc["total_mults"] == rep.total_mults
        assert sum(l["params"] for l in doc["layers"]) == rep.total_params
        assert doc["convention"] == complexity.CONVENTION

    def test_table_has_convention_and_total(self):
        rep = complexity.analyze(arch.load_preset("txb-head-irv2"))
        table = complexity.report_table(rep)
        assert "convention" in table
        assert "4,620,688" in table
