"""CLI subcommands, output shapes, exit codes."""

import pytest

from rolegate.cli import main

@pytest.fixture
def data_dir(tmp_path):
    return str(tmp_path / "data")


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def seed(capsys, data_dir):
    for argv in (
        ("user", "add", "alice"),
        ("role", "add", "employee"),
        ("grant", "--role", "employee", "--action", "read", "--resource", "docs"),
        ("assign", "--user", "alice", "--role", "employee"),
    ):
        code, _, err = run(capsys, "--data-dir", data_dir, *argv)
        assert code == 0, err


class TestAdminCommands:
    def test_seed_and_check_permit(self, capsys, data_dir):
        seed(capsys, data_dir)
        code, out, _ = run(
            capsys, "--data-dir", data_dir,
            "check", "--user", "alice", "--resource", "docs", "--action", "read",
        )
        assert code == 0
        assert out.strip() == "PERMIT role=employee"

    def test_check_deny_exits_1(self, capsys, data_dir):
        seed(capsys, data_dir)
        code, out, _ = run(
            capsys, "--data-dir", data_dir,
            "check", "--user", "alice", "--resource", "docs", "--action", "write",
        )
        assert code == 1
        assert out.strip() == "DENY reason=no-matching-permission"

    def test_duplicate_user_is_domain_error(self, capsys, data_dir):
        seed(capsys, data_dir)
        code, _, err = run(capsys, "--data-dir", data_dir, "user", "add", "alice")
        assert code == 1
        assert "error:" in err

    def test_usage_error_exits_2(self, capsys, data_dir):
        with pytest.raises(SystemExit) as exc:
            main(["--data-dir", data_dir, "check", "--user", "alice"])  # missing args
        assert exc.value.code == 2

    def test_revoke_and_sod(self, capsys, data_dir):
        seed(capsys, data_dir)
        code, _, _ = run(capsys, "--data-dir", data_dir, "revoke", "--user", "alice", "--role", "employee")
        assert code == 0
        code, _, _ = run(capsys, "--data-dir", data_dir, "role", "add", "payer")
        assert code == 0
        code, _, _ = run(capsys, "--data-dir", data_dir, "sod", "add", "employee", "payer")
        assert code == 0
        code, _, err = run(capsys, "--data-dir", data_dir, "sod", "add", "payer", "payer")
        assert code == 1 and "error" in err


class TestNumberOptions:
    @pytest.mark.parametrize("value", ["1_000", "+5", " 7 ", "\u0663"])
    @pytest.mark.parametrize("option", ["--max-transactions", "--window-seconds", "--max-users"])
    def test_restriction_numbers_are_digits(self, capsys, data_dir, option, value):
        numbers = {"--max-transactions": "5", "--window-seconds": "60", "--max-users": "2"}
        numbers[option] = value
        argv = ["--data-dir", data_dir, "restrict", "add", "--id", "lim", "--scope", "per-role"]
        with pytest.raises(SystemExit) as exc:
            main(argv + [arg for pair in numbers.items() for arg in pair])
        assert exc.value.code == 2
        assert "1 to 19 ASCII digits" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["-5", "+5", "1_000", " 7 ", "\u0663"])
    @pytest.mark.parametrize("option", ["--since", "--until", "--limit"])
    def test_audit_numbers_are_digits(self, capsys, data_dir, option, value):
        with pytest.raises(SystemExit) as exc:
            main(["--data-dir", data_dir, "audit", option, value])
        assert exc.value.code == 2


class TestExplain:
    def test_trace_lines_then_verdict(self, capsys, data_dir):
        seed(capsys, data_dir)
        code, out, _ = run(
            capsys, "--data-dir", data_dir,
            "explain", "--user", "alice", "--resource", "docs", "--action", "read",
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0].startswith("subject\talice\tfound")
        assert lines[-1] == "PERMIT role=employee"
        assert any(line.startswith("role\temployee\tgrants") for line in lines)


class TestMigrationCommands:
    def test_export_import_validate(self, capsys, data_dir, tmp_path):
        seed(capsys, data_dir)
        bundle = tmp_path / "out.rbac.xml"
        code, _, _ = run(capsys, "--data-dir", data_dir, "export", str(bundle))
        assert code == 0 and bundle.exists()

        code, out, _ = run(capsys, "--data-dir", data_dir, "validate", str(bundle))
        assert code == 0
        assert out.startswith("ok=true")

        other = str(tmp_path / "fresh")
        code, _, _ = run(capsys, "--data-dir", other, "import", str(bundle))
        assert code == 0
        code, out, _ = run(
            capsys, "--data-dir", other,
            "check", "--user", "alice", "--resource", "docs", "--action", "read",
        )
        assert code == 0 and "PERMIT" in out

    def test_import_cycle_reports_and_exits_1(self, capsys, data_dir, tmp_path):
        bad = tmp_path / "bad.rbac.xml"
        bad.write_bytes(
            b'<migration format-version="1.0"><roles>'
            b'<role name="a"><inherits role="b"/></role>'
            b'<role name="b"><inherits role="a"/></role>'
            b"</roles></migration>"
        )
        code, _, err = run(capsys, "--data-dir", data_dir, "import", str(bad))
        assert code == 1
        assert "hierarchy cycle" in err
        assert "ok=false" in err

    def test_validate_bad_bundle_exits_1(self, capsys, data_dir, tmp_path):
        bad = tmp_path / "bad.rbac.xml"
        bad.write_bytes(b"<junk/>")
        code, out, _ = run(capsys, "--data-dir", data_dir, "validate", str(bad))
        assert code == 1
        assert out.startswith("ok=false")

    def test_export_to_stdout(self, capsys, data_dir):
        seed(capsys, data_dir)
        code, out, _ = run(capsys, "--data-dir", data_dir, "export")
        assert code == 0
        assert out.startswith('<?xml version="1.0" encoding="UTF-8"?>')


class TestSnapshotCommands:
    def test_create_list_restore_latest(self, capsys, data_dir):
        seed(capsys, data_dir)
        code, out, _ = run(capsys, "--data-dir", data_dir, "snapshot", "create", "--reason", "cli")
        assert code == 0 and "snapshot 1 created" in out

        code, _, _ = run(capsys, "--data-dir", data_dir, "user", "add", "zed")
        assert code == 0

        code, out, _ = run(capsys, "--data-dir", data_dir, "snapshot", "list", "--verify")
        assert code == 0
        assert out.strip().splitlines()[0].split("\t")[0] == "1"
        assert out.strip().endswith("ok")

        code, _, _ = run(capsys, "--data-dir", data_dir, "snapshot", "restore", "latest")
        assert code == 0
        code, out, _ = run(capsys, "--data-dir", data_dir, "metrics")
        assert "num-users=1" in out  # zed gone after restore

    @pytest.mark.parametrize("value", ["+1", " 1", "\u0661"])
    def test_restore_id_is_digits(self, capsys, data_dir, value):
        seed(capsys, data_dir)
        assert run(capsys, "--data-dir", data_dir, "snapshot", "create")[0] == 0
        code, _, err = run(capsys, "--data-dir", data_dir, "snapshot", "restore", value)
        assert code == 1 and "1 to 19 ASCII digits" in err

    def test_restore_without_snapshots_errors(self, capsys, data_dir):
        seed(capsys, data_dir)
        code, _, err = run(capsys, "--data-dir", data_dir, "snapshot", "restore", "latest")
        assert code == 1 and "no snapshots" in err


class TestReporting:
    def test_metrics_output(self, capsys, data_dir):
        seed(capsys, data_dir)
        code, out, _ = run(capsys, "--data-dir", data_dir, "metrics")
        assert code == 0
        assert "num-users=1" in out
        assert "role-user-ratio=1.0" in out

    def test_capabilities_table_default(self, capsys, data_dir):
        code, out, _ = run(capsys, "--data-dir", data_dir, "capabilities")
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 5
        features = dict(line.split(None, 1) for line in lines)
        assert features == {
            "xml-based-migration": "yes",
            "restricting-user-role": "yes",
            "backup-restoration": "yes",
            "transaction-limit": "yes",
            "security-level": "MORE",
        }

    def test_capabilities_table_plain(self, capsys, data_dir):
        code, out, _ = run(capsys, "--data-dir", data_dir, "--plain-rbac", "capabilities")
        assert code == 0
        features = dict(line.split(None, 1) for line in out.strip().splitlines())
        assert features == {
            "xml-based-migration": "no",
            "restricting-user-role": "no",
            "backup-restoration": "no",
            "transaction-limit": "no",
            "security-level": "LESS",
        }

    def test_audit_and_anomalies(self, capsys, data_dir):
        seed(capsys, data_dir)
        run(
            capsys, "--data-dir", data_dir,
            "restrict", "add", "--id", "lim", "--scope", "per-user",
            "--max-transactions", "1", "--window-seconds", "3600",
        )
        run(capsys, "--data-dir", data_dir, "check", "--user", "alice", "--resource", "docs", "--action", "read")
        code, out, _ = run(
            capsys, "--data-dir", data_dir,
            "check", "--user", "alice", "--resource", "docs", "--action", "read",
        )
        assert code == 1 and "quota-exceeded" in out

        code, out, _ = run(capsys, "--data-dir", data_dir, "audit", "--effect", "deny")
        assert code == 0
        assert len(out.strip().splitlines()) == 1 and "quota-exceeded" in out

        code, out, _ = run(capsys, "--data-dir", data_dir, "anomalies")
        assert code == 0
        assert len(out.strip().splitlines()) == 1 and "lim" in out
        # drained: second call is empty
        code, out, _ = run(capsys, "--data-dir", data_dir, "anomalies")
        assert out.strip() == ""

    def test_audit_line_escapes_separators(self, capsys, data_dir):
        seed(capsys, data_dir)
        run(capsys, "--data-dir", data_dir, "check", "--user", "a\tb", "--resource", "x\ny", "--action", "read")
        code, out, _ = run(capsys, "--data-dir", data_dir, "audit")
        assert code == 0
        (line,) = out.splitlines()
        assert line.split("\t")[2:] == ["a\\tb", "x\\ny", "read", "deny", "unknown-subject", "-"]

    def test_resource_with_trailing_newline_refused(self, capsys, data_dir):
        seed(capsys, data_dir)
        code, _, err = run(
            capsys, "--data-dir", data_dir,
            "grant", "--role", "employee", "--action", "write", "--resource", "docs\n",
        )
        assert code == 1 and "invalid resource" in err
        # the next command reopens the live state file
        code, out, _ = run(
            capsys, "--data-dir", data_dir,
            "check", "--user", "alice", "--resource", "docs", "--action", "read",
        )
        assert code == 0 and out.strip() == "PERMIT role=employee"

    def test_plain_mode_blocks_export(self, capsys, data_dir):
        seed(capsys, data_dir)
        code, _, err = run(capsys, "--data-dir", data_dir, "--plain-rbac", "export")
        assert code == 1
        assert "disabled" in err
