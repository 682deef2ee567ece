"""The three workloads: seeded inputs, query templates, and answers
computed in plain Python, apart from the engine.

A workload generates all of its inputs from the seed in ``__init__``
(rows, their JSON text, parameters, literals); the engine receives only
that text and the query texts.  ``setup`` loads and warms a fresh
database; ``round`` returns the operations of one round, the unit every
run repeats whole.  Each operation belongs to one class with one query
template, so a class's latencies come from one distribution.
"""

from __future__ import annotations

import json
import random
from collections import Counter, defaultdict
from typing import Any, Callable, Dict, List, NamedTuple, Optional, Tuple

from repro import Database
from repro.datamodel.convert import to_python
from repro.formats import json_io


class Op(NamedTuple):
    """One operation: ``run`` is timed and returns the engine's answer;
    ``check`` is not, and returns None when the answer is right or a
    message saying how it is wrong."""

    cls: str
    run: Callable[[], Any]
    check: Callable[[Any], Optional[str]]


class Probe(NamedTuple):
    """A query over dirty rows for the stop-on-error check (paper §IV):
    strict mode must raise TypeCheckError; permissive mode must return
    ``expected`` (compared as a bag)."""

    query: str
    expected: List[Any]


def _canon(value: Any) -> str:
    return json.dumps(value, sort_keys=True)


def bag_check(expected: List[Any]) -> Callable[[Any], Optional[str]]:
    """Compare an answer with ``expected`` as bags."""
    want = Counter(_canon(row) for row in expected)

    def check(answer: Any) -> Optional[str]:
        got = Counter(_canon(row) for row in to_python(answer))
        if got == want:
            return None
        return (
            f"bag differs: {sum((got - want).values())} extra, "
            f"{sum((want - got).values())} missing rows"
        )

    return check


def list_check(expected: List[Any]) -> Callable[[Any], Optional[str]]:
    """Compare an answer with ``expected`` in order (ORDER BY fixes it)."""

    def check(answer: Any) -> Optional[str]:
        got = to_python(answer)
        if got == expected:
            return None
        return f"ordered result differs: got {got[:3]}..., want {expected[:3]}..."

    return check


def _query(db: Database, text: str, params=None, **dials) -> Callable[[], Any]:
    def run() -> Any:
        return db.execute(text, params, **dials)

    return run


class Workload:
    """Base: subclasses set ``name``, ``classes`` and ``slots`` and
    implement ``setup``, ``round`` and ``probe``."""

    name = ""
    #: Operation classes, in the order their figures are printed.
    classes: Tuple[str, ...] = ()
    #: The five positional latency metrics ``lat1_ms`` .. ``lat5_ms``:
    #: (class or "round", percentile) each.
    slots: Tuple[Tuple[str, int], ...] = ()
    #: The round after which ``peak_rss_mb`` is read.
    rss_round = 1

    def __init__(self, seed: int) -> None:
        self.rng = random.Random(seed)
        self.db: Optional[Database] = None

    def setup(self) -> List[str]:
        """Load and warm a fresh ``self.db``; returns warm-up errors."""
        raise NotImplementedError

    def begin_round(self, index: int) -> None:
        """Untimed per-round preparation (nothing by default)."""

    def round(self, index: int) -> List[Op]:
        raise NotImplementedError

    def probe(self) -> Probe:
        raise NotImplementedError

    def warm(self, ops: List[Op]) -> List[str]:
        """Run operations before timing; returns error messages."""
        errors = []
        for op in ops:
            message = op.check(op.run())
            if message is not None:
                errors.append(f"warm-up {op.cls}: {message}")
        return errors


# ----------------------------------------------------------------------
# interactive: fixed per-query costs on a small catalog
# ----------------------------------------------------------------------

USERS_SCHEMA = (
    "BAG<STRUCT<uid INT, name STRING, city STRING, "
    "tier UNIONTYPE<INT, STRING>>>"
)
LOOKUP = (
    "SELECT e.name AS name, e.dept AS dept, e.projects AS projects "
    "FROM hr.emp AS e WHERE e.eid = ?"
)
ADHOC = (
    "SELECT u.uid AS uid, u.name AS name, {0} AS request FROM users AS u "
    "WHERE (u.city = 'c{1}' OR u.city = 'c{2}' OR u.city = 'c{3}') "
    "AND u.tier >= {4} "
    "AND EXISTS (SELECT VALUE o FROM orders AS o "
    "WHERE o.uid = u.uid AND o.amount > 200 + {5})"
)
#: Request numbers cycle through more values than the compile cache
#: holds (256 entries), so every ad-hoc text misses it; the request
#: number only echoes back, so it does not change the query's cost.
ADHOC_VARIANTS = 400


class Interactive(Workload):
    name = "interactive"
    classes = ("lookup", "adhoc")
    slots = (("lookup", 50), ("lookup", 90), ("adhoc", 50), ("adhoc", 90),
             ("round", 50))
    rss_round = 100
    USERS, ORDERS, EMPLOYEES, CITIES = 500, 1500, 150, 20
    #: A round: eight lookups and two ad-hoc queries, interleaved.
    PATTERN = ("lookup",) * 4 + ("adhoc",) + ("lookup",) * 4 + ("adhoc",)

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        rng = self.rng
        self.users = [
            {
                "uid": uid,
                "name": f"user{uid}",
                "city": f"c{rng.randrange(self.CITIES)}",
                # Every 20th tier is dirty: permissive comparisons drop
                # the row, strict ones stop the query.
                "tier": "gold" if uid % 20 == 7 else rng.randrange(4),
            }
            for uid in range(self.USERS)
        ]
        self.orders = [
            {
                "oid": oid,
                "uid": rng.randrange(self.USERS),
                "amount": rng.randrange(1, 500),
                "status": rng.choice(["new", "paid", "shipped"]),
            }
            for oid in range(self.ORDERS)
        ]
        self.employees = [
            {
                "eid": eid,
                "name": f"emp{eid}",
                "dept": rng.randrange(12),
                "projects": [
                    {"pname": f"p{rng.randrange(90)}",
                     "hours": rng.randrange(1, 60)}
                    for _ in range(rng.randrange(5))
                ],
            }
            for eid in range(self.EMPLOYEES)
        ]
        self.texts = {
            "users": json.dumps(self.users),
            "orders": json.dumps(self.orders),
            "hr.emp": json.dumps(self.employees),
        }
        self.lookup_order = rng.sample(range(self.EMPLOYEES), self.EMPLOYEES)
        self.literals = [
            tuple(rng.sample(range(self.CITIES), 3))
            + (rng.randrange(3), rng.randrange(50))
            for _ in range(ADHOC_VARIANTS)
        ]
        self.max_amount: Dict[int, int] = defaultdict(int)
        for order in self.orders:
            self.max_amount[order["uid"]] = max(
                self.max_amount[order["uid"]], order["amount"]
            )
        self._lookups = 0
        self._adhocs = 0

    def setup(self) -> List[str]:
        self.db = None
        db = self.db = Database()
        db.set_schema("users", USERS_SCHEMA)
        db.set("users", json_io.loads(self.texts["users"]))
        db.insert("orders", json_io.loads(self.texts["orders"]))
        db.set("hr.emp", json_io.loads(self.texts["hr.emp"]))
        self._lookups = self._adhocs = 0
        # Three of each fill the compile, plan, statistics and feedback
        # caches; the ad-hoc warm-ups use literal sets the run reuses
        # only after the compile cache has evicted them.
        return self.warm([self._lookup() for _ in range(3)]
                         + [self._adhoc() for _ in range(3)])

    def round(self, index: int) -> List[Op]:
        return [self._lookup() if cls == "lookup" else self._adhoc()
                for cls in self.PATTERN]

    def _lookup(self) -> Op:
        eid = self.lookup_order[self._lookups % self.EMPLOYEES]
        self._lookups += 1
        employee = self.employees[eid]
        expected = [{key: employee[key] for key in ("name", "dept", "projects")}]
        return Op("lookup", _query(self.db, LOOKUP, [eid]), bag_check(expected))

    def _adhoc(self) -> Op:
        request = self._adhocs % ADHOC_VARIANTS
        self._adhocs += 1
        c1, c2, c3, tier, extra = self.literals[request]
        text = ADHOC.format(request, c1, c2, c3, tier, extra)
        cities = {f"c{c1}", f"c{c2}", f"c{c3}"}
        expected = [
            {"uid": user["uid"], "name": user["name"], "request": request}
            for user in self.users
            if user["city"] in cities
            and isinstance(user["tier"], int)
            and user["tier"] >= tier
            and self.max_amount[user["uid"]] > 200 + extra
        ]
        return Op("adhoc", _query(self.db, text), bag_check(expected))

    def probe(self) -> Probe:
        return Probe(
            "SELECT VALUE u.uid FROM users AS u WHERE u.tier >= 2",
            [u["uid"] for u in self.users
             if isinstance(u["tier"], int) and u["tier"] >= 2],
        )


# ----------------------------------------------------------------------
# analytic: executor routes over collections of about 100k rows
# ----------------------------------------------------------------------

CUST_SCHEMA = "BAG<STRUCT<cid INT, region STRING, segment INT>>"
#: One literal text per class: caches stay warm and every run of a
#: class has the same answer.  (Literals, not ``?`` parameters: the
#: planner leaves a conjunct with a parameter unpushed.)
JOIN = (
    "SELECT s.sid AS sid, c.region AS region FROM {sales} AS s "
    "JOIN {cust} AS c ON s.cid = c.cid WHERE c.segment = 2 AND s.qty > 15"
)
GROUP = (
    "SELECT cid AS cid, COUNT(*) AS n, SUM(s.qty) AS qty FROM sales AS s "
    "WHERE s.price > 500 GROUP BY s.cid AS cid"
)
TOPK = (
    "SELECT s.sid AS sid, s.price AS price FROM sales AS s "
    "WHERE s.qty > 10 ORDER BY s.price DESC, s.sid LIMIT 20"
)
NESTED = (
    "SELECT e.name AS name, p.pname AS proj, p.hours AS hours "
    "FROM hr.emp AS e, e.projects AS p WHERE p.hours > 35 "
    "AND EXISTS (SELECT VALUE d FROM hr.dept AS d "
    "WHERE d.did = e.dept AND d.budget > 500)"
)


def _sales(rng: random.Random, rows: int, customers: int):
    sales = [
        {"sid": sid, "cid": rng.randrange(customers),
         "qty": rng.randrange(1, 20), "price": rng.randrange(1, 1000)}
        for sid in range(rows)
    ]
    cust = [
        {"cid": cid, "region": f"r{rng.randrange(50)}",
         "segment": rng.randrange(5)}
        for cid in range(customers)
    ]
    return sales, cust


def _join_answer(sales, cust) -> List[Any]:
    region = {c["cid"]: c["region"] for c in cust if c["segment"] == 2}
    return [
        {"sid": s["sid"], "region": region[s["cid"]]}
        for s in sales
        if s["qty"] > 15 and s["cid"] in region
    ]


def _group_answer(sales) -> List[Any]:
    count: Counter = Counter()
    qty: Counter = Counter()
    for s in sales:
        if s["price"] > 500:
            count[s["cid"]] += 1
            qty[s["cid"]] += s["qty"]
    return [{"cid": cid, "n": n, "qty": qty[cid]} for cid, n in count.items()]


def _topk_answer(sales) -> List[Any]:
    rows = [s for s in sales if s["qty"] > 10]
    rows.sort(key=lambda s: (-s["price"], s["sid"]))
    return [{"sid": s["sid"], "price": s["price"]} for s in rows[:20]]


def _nested_answer(employees, depts) -> List[Any]:
    budgeted = {d["did"] for d in depts if d["budget"] > 500}
    return [
        {"name": e["name"], "proj": p["pname"], "hours": p["hours"]}
        for e in employees if e["dept"] in budgeted
        for p in e["projects"]
        if isinstance(p["hours"], int) and p["hours"] > 35
    ]


class Analytic(Workload):
    name = "analytic"
    classes = ("join", "group", "topk", "nested", "strict_join")
    slots = tuple((cls, 50) for cls in classes)
    rss_round = 1
    SALES, CUSTOMERS = 100_000, 10_000
    EMPLOYEES, DEPTS = 800, 100
    #: The reference evaluator, which strict mode uses, joins these as a
    #: nested loop over 100 000 pairs: about 0.3 s, near the other
    #: classes, so that a run holds as many strict samples as others.
    STRICT_SALES, STRICT_CUSTOMERS = 1_000, 100

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        rng = self.rng
        sales, cust = _sales(rng, self.SALES, self.CUSTOMERS)
        strict_sales, strict_cust = _sales(
            rng, self.STRICT_SALES, self.STRICT_CUSTOMERS
        )
        project_count = 0
        employees = []
        for eid in range(self.EMPLOYEES):
            projects = []
            for _ in range(rng.randrange(6)):
                project_count += 1
                # Every 20th project's hours are dirty.
                hours = "tbd" if project_count % 20 == 0 else rng.randrange(1, 60)
                projects.append({"pname": f"p{rng.randrange(500)}",
                                 "hours": hours})
            employees.append({"eid": eid, "name": f"emp{eid}",
                              "dept": rng.randrange(self.DEPTS),
                              "projects": projects})
        depts = [{"did": did, "budget": rng.randrange(1000)}
                 for did in range(self.DEPTS)]
        self.texts = {
            "sales": json.dumps(sales),
            "cust": json.dumps(cust),
            "ssales": json.dumps(strict_sales),
            "scust": json.dumps(strict_cust),
            "hr.emp": json.dumps(employees),
            "hr.dept": json.dumps(depts),
        }
        # The Python rows are dropped once the texts and answers exist,
        # so that the measuring process's peak RSS is mostly the engine's.
        self.checks = {
            "join": bag_check(_join_answer(sales, cust)),
            "group": bag_check(_group_answer(sales)),
            "topk": list_check(_topk_answer(sales)),
            "nested": bag_check(_nested_answer(employees, depts)),
            "strict_join": bag_check(_join_answer(strict_sales, strict_cust)),
        }
        self._probe = Probe(
            "SELECT VALUE p.hours FROM hr.emp AS e, e.projects AS p "
            "WHERE p.hours > 30",
            [p["hours"] for e in employees for p in e["projects"]
             if isinstance(p["hours"], int) and p["hours"] > 30],
        )

    def setup(self) -> List[str]:
        self.db = None
        db = self.db = Database()
        db.set("sales", json_io.loads(self.texts["sales"]))
        db.set_schema("cust", CUST_SCHEMA)
        db.insert("cust", json_io.loads(self.texts["cust"]))
        db.set("ssales", json_io.loads(self.texts["ssales"]))
        db.set("scust", json_io.loads(self.texts["scust"]))
        db.set("hr.emp", json_io.loads(self.texts["hr.emp"]))
        db.set("hr.dept", json_io.loads(self.texts["hr.dept"]))
        # Once each: the first run samples statistics and feeds back
        # cardinalities.  The re-plan that feedback causes costs
        # milliseconds against operations of about a second, so the
        # first measured round is left to absorb it.
        return self.warm(self.round(0))

    def round(self, index: int) -> List[Op]:
        db = self.db
        queries = {
            "join": _query(db, JOIN.format(sales="sales", cust="cust")),
            "group": _query(db, GROUP),
            "topk": _query(db, TOPK),
            "nested": _query(db, NESTED),
            "strict_join": _query(db, JOIN.format(sales="ssales", cust="scust"),
                                  typing_mode="strict"),
        }
        return [Op(cls, queries[cls], self.checks[cls]) for cls in self.classes]

    def probe(self) -> Probe:
        return self._probe


# ----------------------------------------------------------------------
# ingest: appends to a growing event log beside the reads they dirty
# ----------------------------------------------------------------------

EVENTS_SCHEMA = (
    "BAG<STRUCT<eid INT, kind STRING, latency UNIONTYPE<INT, STRING>>>"
)
READ = (
    "SELECT kind AS kind, COUNT(*) AS n, SUM(e.latency) AS total "
    "FROM events AS e GROUP BY e.kind AS kind"
)


class Ingest(Workload):
    name = "ingest"
    classes = ("write", "read")
    slots = (("write", 50), ("write", 90), ("read", 50), ("read", 90),
             ("round", 50))
    rss_round = 4
    #: Each round restores the base log (untimed), then appends
    #: ``WRITES`` batches of ``BATCH`` rows, each followed by a read, so
    #: every round sees the same log sizes, BASE to BASE + WRITES*BATCH.
    BASE, WRITES, BATCH, KINDS = 4_000, 12, 100, 8

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        rng = self.rng
        total = self.BASE + self.WRITES * self.BATCH
        # Every 10th latency is dirty.
        self.events = [
            {"eid": eid, "kind": f"k{rng.randrange(self.KINDS)}",
             "latency": "timeout" if eid % 10 == 3 else rng.randrange(1000)}
            for eid in range(total)
        ]
        self.base_text = json.dumps(self.events[: self.BASE])
        self.batches = [
            self.events[start: start + self.BATCH]
            for start in range(self.BASE, total, self.BATCH)
        ]
        self._base_value: Any = None
        self._rows = 0
        self._totals: Dict[str, List[int]] = {}

    def setup(self) -> List[str]:
        self.db = None
        db = self.db = Database()
        db.set_schema("events", EVENTS_SCHEMA)
        self._base_value = json_io.loads(self.base_text)
        # One write-and-read pair fills the caches; every round starts
        # by restoring the base log, so the extra batch never reaches it.
        self._reset()
        return self.warm(self.round(0)[:2] + [self._read()])

    def _reset(self) -> None:
        self.db.set("events", self._base_value)
        self._rows = 0
        self._totals = {}
        for event in self.events[: self.BASE]:
            self._count(event)

    def _count(self, event: Dict[str, Any]) -> None:
        entry = self._totals.setdefault(event["kind"], [0, 0])
        entry[0] += 1
        if isinstance(event["latency"], int):
            entry[1] += event["latency"]
        self._rows += 1

    def begin_round(self, index: int) -> None:
        self._reset()

    def round(self, index: int) -> List[Op]:
        ops: List[Op] = []
        for batch in self.batches:
            ops.append(self._write(batch))
            ops.append(self._read())
        return ops

    def _write(self, batch: List[Dict[str, Any]]) -> Op:
        db = self.db

        def run() -> int:
            db.insert("events", json_io.loads(json.dumps(batch)))
            return len(db.get("events"))

        def check(rows: int) -> Optional[str]:
            for event in batch:
                self._count(event)
            if rows == self._rows:
                return None
            return f"log holds {rows} rows after the write, want {self._rows}"

        return Op("write", run, check)

    def _read(self) -> Op:
        def check(answer: Any) -> Optional[str]:
            expected = [{"kind": kind, "n": n, "total": total}
                        for kind, (n, total) in self._totals.items()]
            return bag_check(expected)(answer)

        return Op("read", _query(self.db, READ), check)

    def probe(self) -> Probe:
        return Probe(READ, [{"kind": kind, "n": n, "total": total}
                            for kind, (n, total) in self._totals.items()])


WORKLOADS = {cls.name: cls for cls in (Interactive, Analytic, Ingest)}
