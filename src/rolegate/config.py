"""Service configuration: defaults, JSON config file, CLI overrides."""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

from .decision import ObligationPolicy
from .directory import RbacError, parse_digits

DEFAULT_PORT = 8640


class ConfigError(RbacError):
    code = "config-error"


@dataclass
class ServiceConfig:
    host: str = "127.0.0.1"
    port: int = DEFAULT_PORT
    data_dir: Path = Path("./rolegate-data")
    snapshot_dir: Optional[Path] = None  # defaults to <data_dir>/snapshots
    snapshot_interval_seconds: int = 0  # 0 = scheduled snapshots disabled
    snapshot_keep_last: int = 10
    anomaly_log: Optional[Path] = None  # defaults to <data_dir>/anomalies.log
    api_token: Optional[str] = None
    plain_rbac: bool = False
    obligations: list[ObligationPolicy] = field(default_factory=list)

    def __post_init__(self) -> None:
        self.data_dir = Path(self.data_dir)
        if self.snapshot_dir is None:
            self.snapshot_dir = self.data_dir / "snapshots"
        self.snapshot_dir = Path(self.snapshot_dir)
        if self.anomaly_log is None:
            self.anomaly_log = self.data_dir / "anomalies.log"
        self.anomaly_log = Path(self.anomaly_log)
        if not 1 <= self.port <= 65535:
            raise ConfigError(f"port must be in 1..65535, got {self.port}")
        if self.snapshot_interval_seconds < 0:
            raise ConfigError("snapshot-interval-seconds must be >= 0")
        if self.snapshot_keep_last < 1:
            raise ConfigError("snapshot-keep-last must be >= 1")
        paths = {
            self.data_dir.resolve(),
            self.snapshot_dir.resolve(),
            self.anomaly_log.resolve(),
        }
        if len(paths) != 3:
            raise ConfigError("data dir, snapshot dir and anomaly log must be distinct paths")

    @property
    def live_path(self) -> Path:
        return self.data_dir / "live.rbak"


# Obligation JSON key -> (JSON type, JSON type of each member or None).
_OBLIGATION_KEYS = {
    "id": (str, None),
    "modality": (str, None),
    "action": (str, None),
    "applies-to": (list, str),  # role names
    "condition": (dict, str),  # context key -> required value
}


def _parse_obligation(raw: dict, index: int) -> ObligationPolicy:
    try:
        _check_type(raw, dict, "an obligation")
        for key, (json_type, member_type) in _OBLIGATION_KEYS.items():
            if key not in raw:
                continue
            value = raw[key]
            _check_type(value, json_type, repr(key))
            if member_type is not None:
                for member in value.values() if json_type is dict else value:
                    _check_type(member, member_type, f"each member of {key!r}")
        return ObligationPolicy(
            id=raw["id"],
            modality=raw["modality"],
            action_token=raw["action"],
            applies_to=frozenset(raw.get("applies-to", [])),
            condition=dict(raw.get("condition", {})),
        )
    except (KeyError, TypeError, ValueError, RbacError) as exc:
        raise ConfigError(f"bad obligation at index {index}: {exc}") from exc


def _obligations(raw: list) -> list[ObligationPolicy]:
    return [_parse_obligation(o, i) for i, o in enumerate(raw)]


# JSON key -> (ServiceConfig field, JSON type the value must have, conversion).
# "listen" ("host:port") is split into host and port after overrides apply.
_KEYS = {
    "listen": ("listen", str, str),
    "data-dir": ("data_dir", str, Path),
    "snapshot-dir": ("snapshot_dir", str, Path),
    "snapshot-interval-seconds": ("snapshot_interval_seconds", int, int),
    "snapshot-keep-last": ("snapshot_keep_last", int, int),
    "anomaly-log": ("anomaly_log", str, Path),
    "api-token": ("api_token", str, str),
    "plain-rbac": ("plain_rbac", bool, bool),
    "obligations": ("obligations", list, _obligations),
}
_JSON_TYPES = {
    str: "string", int: "integer", bool: "boolean", list: "array",
    dict: "object", float: "number", type(None): "null",
}


def _check_type(value, json_type: type, what: str) -> None:
    """``true`` is not an integer and ``"false"`` is not a boolean."""
    if type(value) is not json_type:
        raise ConfigError(
            f"{what} must be a JSON {_JSON_TYPES[json_type]}, got {_JSON_TYPES[type(value)]}"
        )


def load_config(path: Optional[Path] = None, **overrides) -> ServiceConfig:
    """Build a ServiceConfig from an optional JSON file plus keyword overrides.

    The file's keys are those of ``_KEYS``, and each value must have the JSON
    type listed there (``true`` is not an integer, ``"false"`` is not a
    boolean).  Overrides are ServiceConfig field names or ``listen``; a None
    override is ignored.  The result passes ServiceConfig's checks, whatever
    the source of each value.
    """
    values: dict = {}
    if path is not None:
        try:
            raw = json.loads(Path(path).read_text(encoding="utf-8"))
        except FileNotFoundError:
            raise ConfigError(f"config file not found: {path}")
        except (OSError, ValueError) as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from exc
        if not isinstance(raw, dict):
            raise ConfigError("config root must be a JSON object")
        unknown = set(raw) - set(_KEYS)
        if unknown:
            raise ConfigError(f"unknown config keys: {', '.join(sorted(unknown))}")
        for key, value in raw.items():
            name, json_type, convert = _KEYS[key]
            _check_type(value, json_type, f"config key {key!r}")
            values[name] = convert(value)
    values.update({k: v for k, v in overrides.items() if v is not None})
    if "listen" in values:
        values["host"], values["port"] = parse_listen(values.pop("listen"))
    try:
        return ServiceConfig(**values)
    except TypeError as exc:
        raise ConfigError(str(exc)) from exc


def parse_listen(value: str) -> tuple[str, int]:
    host, sep, port = str(value).rpartition(":")
    number = parse_digits(port)
    if not sep or number is None:
        raise ConfigError(f"listen must be host:port, got {value!r}")
    return host or "127.0.0.1", number
