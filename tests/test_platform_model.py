import pytest

from topomap.platform_model import PlatformModel


class TestDefaults:
    def test_locked_default_values(self):
        p = PlatformModel()
        assert p.memif_bandwidth_bytes_per_s == 1.2e9
        assert p.hmt_bandwidth_bytes_per_s == 1.2e9
        assert p.osif_roundtrip_us == 30.0
        assert p.delegate_publish_us == 8.0
        assert p.sw_dds_intercept_us == 10.0
        assert p.sw_dds_us_per_byte == 0.009
        assert p.sw_copy_bandwidth_bytes_per_s == 1.2e9
        assert p.jitter_pct == 0.05

    def test_packaged_platform_matches_defaults(self, data_dir):
        packaged = PlatformModel.load(data_dir / "default_platform.json")
        assert packaged == PlatformModel()


class TestValidation:
    @pytest.mark.parametrize(
        "field",
        [
            "memif_bandwidth_bytes_per_s",
            "hmt_bandwidth_bytes_per_s",
            "osif_roundtrip_us",
            "delegate_publish_us",
            "sw_dds_intercept_us",
            "sw_dds_us_per_byte",
            "sw_copy_bandwidth_bytes_per_s",
        ],
    )
    def test_positive_fields(self, field):
        with pytest.raises(ValueError, match=field):
            PlatformModel(**{field: 0.0})
        with pytest.raises(ValueError, match=field):
            PlatformModel(**{field: -1.0})

    def test_jitter_range(self):
        PlatformModel(jitter_pct=0.0)
        PlatformModel(jitter_pct=0.999)
        with pytest.raises(ValueError, match="jitter_pct"):
            PlatformModel(jitter_pct=1.0)
        with pytest.raises(ValueError, match="jitter_pct"):
            PlatformModel(jitter_pct=-0.01)

    def test_hmt_at_least_memif(self):
        PlatformModel(hmt_bandwidth_bytes_per_s=4.8e9)
        with pytest.raises(ValueError, match="hmt"):
            PlatformModel(hmt_bandwidth_bytes_per_s=1.0e9)


class TestDerived:
    def test_sw_dds_latency_is_affine(self):
        p = PlatformModel()
        assert p.sw_dds_latency_us(0) == 10.0
        assert p.sw_dds_latency_us(1000) == pytest.approx(19.0)
        assert p.sw_dds_latency_us(921600) == pytest.approx(10.0 + 0.009 * 921600)


class TestSerialization:
    def test_round_trip(self):
        p = PlatformModel(jitter_pct=0.1, osif_roundtrip_us=25.0)
        assert PlatformModel.from_json(p.to_json()) == p

    def test_partial_document_uses_defaults(self):
        p = PlatformModel.from_json('{"osif_roundtrip_us": 12.5}')
        assert p.osif_roundtrip_us == 12.5
        assert p.delegate_publish_us == 8.0

    def test_unknown_field_rejected(self):
        with pytest.raises(ValueError, match="osif_latency_us"):
            PlatformModel.from_json('{"osif_latency_us": 30}')

    def test_non_object_rejected(self):
        with pytest.raises(ValueError, match="object"):
            PlatformModel.from_json("[1, 2]")

    def test_load_from_file(self, tmp_path):
        target = tmp_path / "platform.json"
        target.write_text(PlatformModel(jitter_pct=0.2).to_json(), encoding="utf-8")
        assert PlatformModel.load(target).jitter_pct == 0.2
