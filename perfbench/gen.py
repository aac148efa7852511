"""Seeded, linear-time inputs for the benchmark, and the model of their verdicts.

Everything the program under test receives is built here before timing
starts: canonical bundle bytes, live-file (``.rbak``) bytes, decision
requests and wire bodies.  The expected verdict of every request is computed
from the generator's own knowledge of the directory it wrote, never by asking
the engine.

Directory shape (the ROADMAP baseline): 50 roles in 10 chains of depth 5,
10 permissions per role, 3 roles per user from 3 distinct chains, three
separation-of-duty pairs, two obligation policies and three quotas.
"""

from __future__ import annotations

import bisect
import hashlib
import itertools
import json
import random
from dataclasses import dataclass

CHAINS = 10
DEPTH = 5
PERMS_PER_ROLE = 10
ROLES_PER_USER = 3
ACTIONS = ("read", "write", "delete")

# Frozen benchmark clock: quota windows never roll over during a run.
CLOCK = 1_700_000_000.0

# Users holding any chain-1 role get the `must` obligation on every permit;
# users holding any chain-2 role are blocked when the request comes from the
# external channel.
MUST_ROLE = "ch01.l0"
MUST_NOT_ROLE = "ch02.l0"
OB_MUST = ("ob.log", "must", "log-access")
OB_MUST_NOT = ("ob.noext", "must-not", "deny-external")

# Senior roles that no user may hold together.
SOD_PAIRS = (("ch00.l4", "ch01.l4"), ("ch02.l4", "ch03.l4"), ("ch04.l4", "ch05.l4"))

# Quotas: per-user and per-role caps no normal subject reaches, and a low
# per-user cap on one hot user.
QUOTA_HUGE = 1_000_000_000
QUOTA_WINDOW = 3600
HOT_QUOTA = 40

# Request mix (shares of all requests).
MIX = (
    ("permit", 0.70),
    ("no-match", 0.15),
    ("unknown", 0.05),
    ("blocked", 0.05),
    ("hot", 0.05),
)


def role_name(chain: int, level: int) -> str:
    return f"ch{chain:02d}.l{level}"


def role_perms(chain: int, level: int) -> list[tuple[str, str]]:
    """The role's own permissions as (action, resource)."""
    return [
        (ACTIONS[p % 3], f"doc.{chain:02d}.{level}.{p}") for p in range(PERMS_PER_ROLE)
    ]


ROLE_NAMES = [[role_name(c, lv) for lv in range(DEPTH)] for c in range(CHAINS)]
PERMS = [[role_perms(c, lv) for lv in range(DEPTH)] for c in range(CHAINS)]


# The 3 chains a user's roles come from, and for each choice the positions
# that would give the user both roles of an exclusive pair at level 4.
_COMBOS = list(itertools.combinations(range(CHAINS), ROLES_PER_USER))
_SOD_AT = [
    [(c.index(int(a[2:4])), c.index(int(b[2:4])))
     for a, b in SOD_PAIRS if int(a[2:4]) in c and int(b[2:4]) in c]
    for c in _COMBOS
]


def user_name(i: int) -> str:
    return f"u{i:06d}"


@dataclass(frozen=True)
class Expected:
    """The verdict the model predicts for one request."""

    effect: str
    reason: str
    matched_role: str | None = None
    obligations: tuple[str, ...] = ()


@dataclass(frozen=True)
class Req:
    """One decision request as plain data, plus its expected verdict.

    ``hot`` requests are permits for the hot user: the model knows only that
    exactly ``HOT_QUOTA`` of them are admitted, in arrival order.
    """

    subject: str
    resource: str
    action: str
    context: tuple[tuple[str, str], ...]
    expected: Expected
    hot: bool = False

    def wire_body(self, request_id: str) -> bytes:
        lines = [f"subject={self.subject}", f"resource={self.resource}", f"action={self.action}"]
        lines += [f"context.{k}={v}" for k, v in self.context]
        lines.append(f"request-id={request_id}")
        return ("\n".join(lines) + "\n").encode("utf-8")


class Directory:
    """A generated directory: who holds which role, and what that implies."""

    def __init__(self, seed: int, n_users: int) -> None:
        self.n_users = n_users
        rng = random.Random(f"directory:{seed}:{n_users}")
        self.held: list[tuple[tuple[int, int], ...]] = []
        self.mask: list[int] = []  # bit c set when the user holds a chain-c role
        top = DEPTH - 1
        while len(self.held) < n_users:
            k = rng.randrange(len(_COMBOS))
            code = rng.randrange(DEPTH**ROLES_PER_USER)
            levels = (code // (DEPTH * DEPTH), code // DEPTH % DEPTH, code % DEPTH)
            if any(levels[i] == levels[j] == top for i, j in _SOD_AT[k]):
                continue  # would hold both roles of an exclusive pair
            chains = _COMBOS[k]
            self.held.append(tuple(zip(chains, levels)))
            self.mask.append(sum(1 << c for c in chains))
        # The hot user is an ordinary user that also has a low quota; only
        # "hot" requests name it, so the model can count its admissions.
        self.hot = rng.randrange(n_users)

    def users(self) -> range:
        return range(self.n_users)

    def roles_of(self, i: int) -> list[str]:
        return [ROLE_NAMES[c][lv] for c, lv in self.held[i]]

    def has_chain(self, i: int, chain: int) -> bool:
        return bool(self.mask[i] >> chain & 1)

    # -- bytes -----------------------------------------------------------

    def bundle(self) -> bytes:
        """Canonical bundle XML, byte-identical to what ``export_bundle`` writes."""
        out = ['<?xml version="1.0" encoding="UTF-8"?>', '<migration format-version="1.0">']
        out.append("  <schema/>")
        out.append("  <roles>")
        for c in range(CHAINS):
            for lv in range(DEPTH):
                out.append(f'    <role name="{role_name(c, lv)}">')
                if lv:
                    out.append(f'      <inherits role="{role_name(c, lv - 1)}"/>')
                for action, resource in sorted(role_perms(c, lv)):
                    out.append(f'      <permission action="{action}" resource="{resource}"/>')
                out.append("    </role>")
        out.append("  </roles>")
        out.append("  <users>")
        for i in self.users():
            out.append(f'    <user name="{user_name(i)}">')
            for role in sorted(self.roles_of(i)):
                out.append(f'      <member-of role="{role}"/>')
            out.append("    </user>")
        out.append("  </users>")
        out.append("  <restrictions>")
        for attrs in self.restrictions():
            rendered = "".join(f' {k}="{attrs[k]}"' for k in sorted(attrs))
            out.append(f"    <restriction{rendered}/>")
        out.append("  </restrictions>")
        out.append("  <sod>")
        for a, b in sorted(SOD_PAIRS):
            out.append(f'    <exclusive role-a="{a}" role-b="{b}"/>')
        out.append("  </sod>")
        out.append("</migration>")
        return ("\n".join(out) + "\n").encode("utf-8")

    def restrictions(self) -> list[dict[str, str]]:
        return sorted(
            [
                {"id": "q.hot", "scope": "per-user", "target": user_name(self.hot),
                 "max-transactions": str(HOT_QUOTA), "window-seconds": str(QUOTA_WINDOW)},
                {"id": "q.role", "scope": "per-role",
                 "max-transactions": str(QUOTA_HUGE), "window-seconds": str(QUOTA_WINDOW)},
                {"id": "q.user", "scope": "per-user",
                 "max-transactions": str(QUOTA_HUGE), "window-seconds": str(QUOTA_WINDOW)},
            ],
            key=lambda a: a["id"],
        )

    def live_file(self, audit_records: int = 0, seed: int = 0) -> bytes:
        """A v1 ``.rbak`` state file (docs/protocol.md section 3) for this directory.

        Written here rather than by the engine because the engine's own writer
        exports the bundle in time quadratic in the user count.
        """
        at = int(CLOCK)
        runtime = {
            "captured-at": at,
            "reason": "live",
            "assignment-times": sorted(
                [user_name(i), role, at] for i in self.users() for role in self.roles_of(i)
            ),
            "counters": [],
        }
        rng = random.Random(f"audit:{seed}:{self.n_users}")
        audit = []
        for n in range(audit_records):
            req = self.request(rng, rng.choice(("permit", "no-match", "unknown")))
            exp = req.expected
            audit.append(
                {
                    "at": at, "request-id": f"pre{n:08x}", "subject": req.subject,
                    "resource": req.resource, "action": req.action, "effect": exp.effect,
                    "reason": exp.reason, "matched-role": exp.matched_role,
                }
            )
        sections = (
            self.bundle(),
            _json(runtime),
            _json(audit),
            _json([]),
        )
        payload = b"".join(len(s).to_bytes(8, "big") + s for s in sections)
        return b"RBAK" + bytes([1]) + payload + hashlib.sha256(payload).digest()

    # -- requests --------------------------------------------------------

    def permit_for(self, rng: random.Random, i: int, context=()) -> Req:
        chain, level = rng.choice(self.held[i])
        owner = rng.randrange(level + 1)
        action, resource = rng.choice(PERMS[chain][owner])
        obligations = (OB_MUST[0],) if self.has_chain(i, 1) else ()
        return Req(
            user_name(i), resource, action, context,
            Expected("permit", "granted", ROLE_NAMES[chain][owner], obligations),
        )

    def request(self, rng: random.Random, kind: str, subject: int | None = None) -> Req:
        """One request of the given mix kind; the subject is uniform unless given."""
        i = rng.randrange(self.n_users) if subject is None else subject
        if i == self.hot:
            i = (i + 1) % self.n_users
        if kind == "permit":
            ctx = (("channel", "internal"),) if rng.random() < 0.5 else ()
            return self.permit_for(rng, i, ctx)
        if kind == "hot":
            req = self.permit_for(rng, self.hot)
            return Req(req.subject, req.resource, req.action, req.context, req.expected, hot=True)
        if kind == "unknown":
            return Req(f"ghost.{rng.randrange(10**6)}", "doc.00.0.0", "read", (),
                       Expected("deny", "unknown-subject"))
        if kind == "blocked":
            while i == self.hot or not self.has_chain(i, 2):
                i = rng.randrange(self.n_users)
            req = self.permit_for(rng, i, (("channel", "external"),))
            return Req(req.subject, req.resource, req.action, req.context,
                       Expected("deny", "obligation-blocked", None, (OB_MUST_NOT[0],)))
        if kind == "no-match":
            return self._no_match(rng, i)
        raise ValueError(kind)

    def _no_match(self, rng: random.Random, i: int) -> Req:
        deny = Expected("deny", "no-matching-permission")
        way = rng.randrange(3)
        if way == 0:  # a chain the user holds no role in
            chain = rng.choice([c for c in range(CHAINS) if not self.has_chain(i, c)])
            action, resource = rng.choice(PERMS[chain][rng.randrange(DEPTH)])
        elif way == 1:  # wrong action on a resource the user can reach
            chain, level = rng.choice(self.held[i])
            action, resource = rng.choice(PERMS[chain][rng.randrange(level + 1)])
            action = ACTIONS[(ACTIONS.index(action) + 1 + rng.randrange(2)) % 3]
        else:  # a resource no permission names
            action, resource = rng.choice(ACTIONS), f"nothing.{rng.randrange(1000)}"
        return Req(user_name(i), resource, action, (), deny)


def mix_kinds(rng: random.Random, n: int, kinds=MIX) -> list[str]:
    names = [k for k, _ in kinds]
    weights = [w for _, w in kinds]
    return rng.choices(names, weights=weights, k=n)


def uniform_requests(d: Directory, seed: int, n: int, kinds=MIX) -> list[Req]:
    rng = random.Random(f"uniform:{seed}:{d.n_users}")
    return [d.request(rng, kind) for kind in mix_kinds(rng, n, kinds)]


def zipf_requests(d: Directory, seed: int, n: int, s: float = 1.1) -> list[Req]:
    """Requests whose subjects follow a Zipf law over a seeded ranking of users."""
    rng = random.Random(f"zipf:{seed}:{d.n_users}")
    ranking = list(d.users())
    rng.shuffle(ranking)
    cumulative = []
    total = 0.0
    for rank in range(1, d.n_users + 1):
        total += 1.0 / rank**s
        cumulative.append(total)
    out = []
    for kind in mix_kinds(rng, n):
        i = ranking[bisect.bisect_left(cumulative, rng.random() * total)]
        out.append(d.request(rng, kind, subject=i))
    return out


def _json(value) -> bytes:
    return json.dumps(value, sort_keys=True, separators=(",", ":")).encode("utf-8")
