"""rolegate: an embeddable RBAC engine and authorization service.

Core pieces:

- :mod:`rolegate.directory` -- the RBAC directory (users, roles, hierarchy,
  permissions, assignments, separation-of-duty, restriction policies).
- :mod:`rolegate.decision` -- two-phase access decisions with obligations.
- :mod:`rolegate.restriction` -- windowed transaction quotas, member caps,
  anomaly events and the audit log.
- :mod:`rolegate.migration` -- canonical XML bundles (export/validate/import).
- :mod:`rolegate.snapshots` -- checksummed snapshots with crash-safe writes.
- :mod:`rolegate.engine` -- the facade tying it all together.
- :mod:`rolegate.service` / :mod:`rolegate.cli` -- HTTP API and admin CLI.
"""

from .decision import (
    AccessRequest,
    Decision,
    Effect,
    ObligationPolicy,
    ObligationRef,
    Reason,
    TraceStep,
    evaluate_obligations,
)
from .directory import (
    Action,
    Assignment,
    ColumnDef,
    DirectoryMetrics,
    DirectoryState,
    Permission,
    RbacError,
    RestrictionPolicy,
    Role,
    TableSchema,
)
from .engine import CapabilitiesReport, Engine, FeatureDisabled
from .migration import (
    MalformedXml,
    UnsupportedVersion,
    ValidationFailed,
    ValidationReport,
    export_bundle,
    import_bundle,
    validate_bundle,
)
from .restriction import (
    AnomalyEvent,
    AuditRecord,
    RestrictionMonitor,
    check_user_cap,
)
from .snapshots import (
    ChecksumMismatch,
    EngineCut,
    SnapshotEntry,
    SnapshotStore,
    UnknownSnapshot,
)

__version__ = "0.1.0"

__all__ = [
    "AccessRequest",
    "Action",
    "AnomalyEvent",
    "Assignment",
    "AuditRecord",
    "CapabilitiesReport",
    "ChecksumMismatch",
    "ColumnDef",
    "Decision",
    "DirectoryMetrics",
    "DirectoryState",
    "Effect",
    "Engine",
    "EngineCut",
    "FeatureDisabled",
    "MalformedXml",
    "ObligationPolicy",
    "ObligationRef",
    "Permission",
    "RbacError",
    "Reason",
    "RestrictionMonitor",
    "RestrictionPolicy",
    "Role",
    "SnapshotEntry",
    "SnapshotStore",
    "TableSchema",
    "TraceStep",
    "UnknownSnapshot",
    "UnsupportedVersion",
    "ValidationFailed",
    "ValidationReport",
    "check_user_cap",
    "evaluate_obligations",
    "export_bundle",
    "import_bundle",
    "validate_bundle",
    "__version__",
]
