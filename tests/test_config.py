"""Service configuration loading and validation."""

import json
import re

import pytest

from rolegate.config import ConfigError, ServiceConfig, load_config, parse_listen


class TestServiceConfig:
    def test_defaults_derive_from_data_dir(self, tmp_path):
        config = ServiceConfig(data_dir=tmp_path / "d")
        assert config.snapshot_dir == tmp_path / "d" / "snapshots"
        assert config.anomaly_log == tmp_path / "d" / "anomalies.log"
        assert config.live_path == tmp_path / "d" / "live.rbak"

    @pytest.mark.parametrize("port", [0, -1, 65536])
    def test_port_range_enforced(self, tmp_path, port):
        with pytest.raises(ConfigError):
            ServiceConfig(data_dir=tmp_path, port=port)

    def test_paths_must_be_distinct(self, tmp_path):
        with pytest.raises(ConfigError):
            ServiceConfig(data_dir=tmp_path / "x", snapshot_dir=tmp_path / "x")

    def test_negative_interval_rejected(self, tmp_path):
        with pytest.raises(ConfigError):
            ServiceConfig(data_dir=tmp_path, snapshot_interval_seconds=-1)


class TestLoadConfig:
    def test_file_values_and_overrides(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text(
            json.dumps(
                {
                    "listen": "0.0.0.0:9001",
                    "data-dir": str(tmp_path / "data"),
                    "snapshot-interval-seconds": 30,
                    "api-token": "tok",
                    "plain-rbac": False,
                }
            )
        )
        config = load_config(path)
        assert (config.host, config.port) == ("0.0.0.0", 9001)
        assert config.snapshot_interval_seconds == 30
        assert config.api_token == "tok"
        override = load_config(path, data_dir=tmp_path / "elsewhere")
        assert override.data_dir == tmp_path / "elsewhere"

    def test_unknown_keys_rejected(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"listen": "x:1", "typo-key": 1}))
        with pytest.raises(ConfigError):
            load_config(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError):
            load_config(tmp_path / "nope.json")

    def test_obligations_parsed(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text(
            json.dumps(
                {
                    "data-dir": str(tmp_path / "d"),
                    "obligations": [
                        {
                            "id": "log-external",
                            "modality": "must",
                            "action": "write-log",
                            "applies-to": ["employee"],
                            "condition": {"channel": "external"},
                        }
                    ],
                }
            )
        )
        config = load_config(path)
        assert len(config.obligations) == 1
        assert config.obligations[0].id == "log-external"
        assert config.obligations[0].condition == {"channel": "external"}

    def test_bad_obligation_rejected(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text(
            json.dumps({"obligations": [{"id": "x", "modality": "sometimes", "action": "y"}]})
        )
        with pytest.raises(ConfigError):
            load_config(path)


class TestObligationTypes:
    def write(self, tmp_path, **fields):
        obligation = {"id": "log", "modality": "must", "action": "write-log", **fields}
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"obligations": [obligation]}))
        return path

    @pytest.mark.parametrize(
        "fields, message",
        [
            ({"applies-to": "employee"}, "'applies-to' must be a JSON array, got string"),
            ({"applies-to": ["employee", 7]}, "each member of 'applies-to' must be a JSON string"),
            ({"applies-to": [None]}, "each member of 'applies-to' must be a JSON string"),
            ({"condition": ["channel", "external"]}, "'condition' must be a JSON object, got array"),
            ({"condition": {"channel": 1}}, "each member of 'condition' must be a JSON string"),
            ({"condition": {"internal": False}}, "each member of 'condition' must be a JSON string"),
            ({"id": 5}, "'id' must be a JSON string, got integer"),
            ({"action": ["x"]}, "'action' must be a JSON string, got array"),
        ],
    )
    def test_wrong_json_type_is_config_error(self, tmp_path, fields, message):
        with pytest.raises(ConfigError, match=re.escape(f"bad obligation at index 0: {message}")):
            load_config(self.write(tmp_path, **fields))

    def test_obligation_must_be_an_object(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"obligations": ["log"]}))
        with pytest.raises(ConfigError, match="an obligation must be a JSON object, got string"):
            load_config(path)

    def test_applies_to_and_condition_are_optional(self, tmp_path):
        (policy,) = load_config(self.write(tmp_path)).obligations
        assert policy.applies_to == frozenset() and policy.condition == {}


class TestValueTypes:
    def write(self, tmp_path, **raw):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({k.replace("_", "-"): v for k, v in raw.items()}))
        return path

    @pytest.mark.parametrize(
        "key, value",
        [
            ("plain_rbac", "false"),
            ("plain_rbac", 0),
            ("snapshot_keep_last", None),
            ("snapshot_interval_seconds", 1.5),
            ("snapshot_interval_seconds", True),
            ("snapshot_interval_seconds", "30"),
            ("listen", 8640),
            ("data_dir", None),
            ("api_token", 123),
            ("obligations", {}),
        ],
    )
    def test_wrong_json_type_is_config_error(self, tmp_path, key, value):
        with pytest.raises(ConfigError, match="must be a JSON"):
            load_config(self.write(tmp_path, **{key: value}))

    def test_plain_rbac_false_keeps_policy_mode(self, tmp_path):
        config = load_config(self.write(tmp_path, plain_rbac=False, data_dir=str(tmp_path)))
        assert config.plain_rbac is False


class TestServeFlags:
    """serve's --listen, --api-token and --snapshot-interval pass ServiceConfig's checks."""

    def load(self, tmp_path, *serve_args):
        from rolegate.cli import _load, build_parser

        args = build_parser().parse_args(["--data-dir", str(tmp_path), "serve", *serve_args])
        return _load(args)

    def test_flags_override_the_config(self, tmp_path):
        config = self.load(
            tmp_path, "--listen", "0.0.0.0:9001", "--api-token", "t", "--snapshot-interval", "5"
        )
        assert (config.host, config.port) == ("0.0.0.0", 9001)
        assert config.api_token == "t"
        assert config.snapshot_interval_seconds == 5

    @pytest.mark.parametrize(
        "flags", [("--snapshot-interval", "-1"), ("--listen", "127.0.0.1:0"), ("--listen", "")]
    )
    def test_invalid_flag_is_config_error(self, tmp_path, flags):
        with pytest.raises(ConfigError):
            self.load(tmp_path, *flags)

    def test_negative_interval_exits_2(self, tmp_path):
        import subprocess
        import sys

        proc = subprocess.run(
            [sys.executable, "-m", "rolegate.cli", "--data-dir", str(tmp_path),
             "serve", "--snapshot-interval", "-1"],
            capture_output=True, text=True, timeout=20,
        )
        assert proc.returncode == 2
        assert "snapshot-interval-seconds must be >= 0" in proc.stderr


class TestParseListen:
    def test_host_and_port(self):
        assert parse_listen("0.0.0.0:80") == ("0.0.0.0", 80)

    def test_port_only_defaults_host(self):
        assert parse_listen(":8080") == ("127.0.0.1", 8080)

    @pytest.mark.parametrize(
        "bad",
        ["nohost", "host:", "host:abc", "host:\u00b2", "host:+80",
         pytest.param("host:" + "9" * 5000, id="host:5000-digits")],
    )
    def test_rejects_bad_values(self, bad):
        with pytest.raises(ConfigError):
            parse_listen(bad)
