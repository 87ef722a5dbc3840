"""Output checks computed apart from cavcross.

Nothing here imports the program.  Path lengths, the movement conflict
relation, merging-zone intervals, sampling grids and energies are derived
from the scenario document and the written artifacts with numpy alone, and
compared against what `cavcross run` and `cavcross plan` wrote.  Each check
returns a list of failure messages; an empty list means the output passed.
Every message starts with a tag (`bc:`, `bounds:`, `lateral:`, ...) so the
self-tests can tell which check rejected a corrupted input.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

import numpy as np

# Planned extrema stay inside the hard bounds; sampled values get a float
# tolerance on top.
BOUND_TOL = 1e-9
# Sampled rear-end margins and zone separations may sit at float noise below 0.
MARGIN_TOL = 1e-6
SEPARATION_TOL = 1e-9
CSV_TOL = 1e-9
DENSE_SAMPLES = 2001

# ---------------------------------------------------------------------------
# Geometry, derived from first principles on the unit merging-zone square:
# right-hand traffic, one lane each way, lane midlines a quarter side from
# the road centerline, turns as quarter circles tangent to both headings.
# ---------------------------------------------------------------------------

_HEADING_IN = {"W": (1.0, 0.0), "E": (-1.0, 0.0), "N": (0.0, -1.0), "S": (0.0, 1.0)}
_HEADING_OUT = {"E": (1.0, 0.0), "W": (-1.0, 0.0), "N": (0.0, 1.0), "S": (0.0, -1.0)}
CARDINALS = ("N", "E", "S", "W")


def _right_of(d: np.ndarray) -> np.ndarray:
    return np.array([d[1], -d[0]])


def turn_kind(origin: str, dest: str) -> str:
    """straight / right / left from the entry and exit headings."""
    d = np.array(_HEADING_IN[origin])
    e = np.array(_HEADING_OUT[dest])
    if d @ e > 0.5:
        return "straight"
    # Turning right rotates the heading clockwise: e equals right_of(d).
    return "right" if np.allclose(e, _right_of(d)) else "left"


def _zone_path(origin: str, dest: str, n: int = 401) -> np.ndarray:
    d = np.array(_HEADING_IN[origin])
    e = np.array(_HEADING_OUT[dest])
    a = -0.5 * d + 0.25 * _right_of(d)
    b = 0.5 * e + 0.25 * _right_of(e)
    s = np.linspace(0.0, 1.0, n)[:, None]
    if turn_kind(origin, dest) == "straight":
        return a + s * (b - a)
    # The arc centre lies on the normals to both headings at the endpoints.
    lam, _ = np.linalg.solve(np.column_stack([_right_of(d), -_right_of(e)]), b - a)
    c = a + lam * _right_of(d)
    radius = float(np.hypot(*(a - c)))
    th_a = math.atan2(a[1] - c[1], a[0] - c[0])
    th_b = math.atan2(b[1] - c[1], b[0] - c[0])
    sweep = (th_b - th_a + math.pi) % (2.0 * math.pi) - math.pi
    th = th_a + sweep * s[:, 0]
    return c + radius * np.column_stack([np.cos(th), np.sin(th)])


def _build_conflicts() -> dict[tuple[tuple[str, str], tuple[str, str]], bool]:
    """Movements from different approaches conflict when their in-zone paths
    meet (crossing, or merging into one exit lane).  Disjoint paths stay at
    least 0.41 side lengths apart; touching ones come within one sample."""
    moves = [(o, x) for o in CARDINALS for x in CARDINALS if o != x]
    paths = {m: _zone_path(*m) for m in moves}
    table = {}
    for ma in moves:
        for mb in moves:
            if ma[0] == mb[0]:
                table[(ma, mb)] = False
                continue
            pa, pb = paths[ma], paths[mb]
            dmin = np.sqrt(((pa[:, None, :] - pb[None, :, :]) ** 2).sum(-1)).min()
            table[(ma, mb)] = bool(dmin < 0.05)
    return table


CONFLICTS = _build_conflicts()


def zone_length(layout: dict, origin: str, dest: str) -> float:
    side = layout["merging_zone_side_m"]
    kind = turn_kind(origin, dest)
    if kind == "straight":
        return side
    if kind == "right":
        return math.pi * layout.get("right_turn_radius_m", side / 2.0) / 2.0
    return math.pi * layout.get("left_turn_radius_m", side) / 2.0


def path_length(layout: dict, origin: str, dest: str) -> float:
    return 2.0 * layout["control_zone_length_m"] + zone_length(layout, origin, dest)


# ---------------------------------------------------------------------------
# Cubic helpers (coefficients c3, c2, c1, c0 in time since entry)
# ---------------------------------------------------------------------------

def _pos(c, tau):
    return ((c[0] * tau + c[1]) * tau + c[2]) * tau + c[3]


def _speed(c, tau):
    return (3.0 * c[0] * tau + 2.0 * c[1]) * tau + c[2]


def _accel(c, tau):
    return 6.0 * c[0] * tau + 2.0 * c[1]


def crossing_time(c: np.ndarray, horizon: np.ndarray, position: np.ndarray) -> np.ndarray:
    """Time since entry at which each cubic reaches `position` (bisection;
    the cubics are checked to move forward before this is trusted).

    `c` has shape (4, n); returns an array of n times."""
    lo = np.zeros_like(horizon)
    hi = horizon.copy()
    for _ in range(64):
        mid = 0.5 * (lo + hi)
        below = _pos(c, mid) < position
        lo = np.where(below, mid, lo)
        hi = np.where(below, hi, mid)
    return 0.5 * (lo + hi)


def energy_quadrature(c, horizon: float) -> float:
    """(1/2)*integral(u^2) by 4-point Gauss-Legendre, exact for this integrand."""
    nodes, weights = np.polynomial.legendre.leggauss(4)
    tau = 0.5 * horizon * (nodes + 1.0)
    u = _accel(c, tau)
    return float(0.5 * 0.5 * horizon * np.sum(weights * u * u))


def solve_cubic_4x4(v0: float, s_total: float, horizon: float) -> np.ndarray:
    """Boundary cubic from p(0)=0, v(0)=v0, p(T)=s, u(T)=0 by a dense solve."""
    t = horizon
    a = np.array(
        [
            [0.0, 0.0, 0.0, 1.0],
            [0.0, 0.0, 1.0, 0.0],
            [t**3, t**2, t, 1.0],
            [6.0 * t, 2.0, 0.0, 0.0],
        ]
    )
    return np.linalg.solve(a, np.array([0.0, v0, s_total, 0.0]))


# ---------------------------------------------------------------------------
# Scenario document access
# ---------------------------------------------------------------------------

def vehicle_params(doc: dict, arrival: dict) -> dict:
    params = dict(doc["defaults"])
    params.setdefault("reaction_gain", 1.0)
    params.update(arrival.get("params", {}))
    return params


def _bounds_failures(vid, c, horizon, params, v0) -> list[str]:
    tau = np.linspace(0.0, horizon, DENSE_SAMPLES)
    v = _speed(c, tau)
    u = _accel(c, tau)
    out = []
    # The arrival speed is given, so it may sit on a bound.
    v_lo = min(params["speed_min_mps"], v0) - BOUND_TOL
    v_hi = max(params["speed_max_mps"], v0) + BOUND_TOL
    if v.min() < v_lo or v.max() > v_hi:
        out.append(f"bounds: {vid} speed spans [{v.min():.9g}, {v.max():.9g}]")
    if u.min() < params["accel_min_mps2"] - BOUND_TOL or u.max() > params["accel_max_mps2"] + BOUND_TOL:
        out.append(f"bounds: {vid} accel spans [{u.min():.9g}, {u.max():.9g}]")
    return out


def _bc_failures(vid, c, horizon, v0, s_total) -> list[str]:
    out = []
    if abs(c[3]) > 1e-9:
        out.append(f"bc: {vid} p(0)={float(c[3])!r}")
    if abs(c[2] - v0) > 1e-9 * max(1.0, v0):
        out.append(f"bc: {vid} v(0)={float(c[2])!r}, arrival speed {v0!r}")
    end = float(_pos(c, horizon))
    if abs(end - s_total) > 1e-6:
        out.append(f"bc: {vid} p(T)={end!r}, path length {s_total!r}")
    u_end = float(_accel(c, horizon))
    if abs(u_end) > 1e-9:
        out.append(f"bc: {vid} u(T)={u_end!r}")
    return out


# ---------------------------------------------------------------------------
# `cavcross run` artifacts
# ---------------------------------------------------------------------------

def check_run(doc: dict, out_dir: Path, policy: str) -> list[str]:
    """Check trajectory.csv, metrics.json and protocol.json of one run."""
    try:
        records = json.loads((out_dir / "protocol.json").read_text())["entries"]
        metrics = json.loads((out_dir / "metrics.json").read_text())
    except (OSError, ValueError, KeyError) as exc:
        return [f"artifact: cannot read protocol.json/metrics.json: {exc}"]
    layout = doc["layout"]
    arrivals = doc["arrivals"]
    by_id = {r["vehicle_id"]: r for r in records}
    ids = [a["id"] for a in arrivals]
    if sorted(by_id) != sorted(ids) or len(records) != len(ids):
        return [f"artifact: protocol.json holds {sorted(by_id)}, expected {sorted(ids)}"]

    failures: list[str] = []
    n = len(ids)
    coeffs = np.empty((4, n))
    t0 = np.empty(n)
    tf = np.empty(n)
    entry = np.empty(n)
    exit_ = np.empty(n)
    for i, a in enumerate(arrivals):
        r = by_id[a["id"]]
        c = np.array(r["position_coeffs"], dtype=float)
        coeffs[:, i] = c
        t0[i], tf[i] = r["t0_s"], r["tf_s"]
        horizon = tf[i] - t0[i]
        mv = r["movement"]
        if (mv["from"], mv["to"]) != (a["from"], a["to"]):
            failures.append(f"artifact: {a['id']} movement {mv} != {a['from']}->{a['to']}")
        if t0[i] != a["time_s"]:
            failures.append(f"bc: {a['id']} t0={t0[i]!r}, arrival time {a['time_s']!r}")
        if not horizon > 0.0:
            failures.append(f"bc: {a['id']} empty window [{t0[i]}, {tf[i]}]")
            continue
        s_total = path_length(layout, a["from"], a["to"])
        failures += _bc_failures(a["id"], c, horizon, a["speed_mps"], s_total)
        failures += _bounds_failures(a["id"], c, horizon, vehicle_params(doc, a), a["speed_mps"])
        if _speed(c, np.linspace(0.0, horizon, DENSE_SAMPLES)).min() <= 0.0:
            failures.append(f"bounds: {a['id']} stops or reverses; zone times are undefined")
        entry[i] = layout["control_zone_length_m"]
        exit_[i] = entry[i] + zone_length(layout, a["from"], a["to"])
    if any("stops or reverses" in f or "empty window" in f for f in failures):
        return failures

    horizon = tf - t0
    t_in = t0 + crossing_time(coeffs, horizon, entry)
    t_out = t0 + crossing_time(coeffs, horizon, exit_)
    failures += _lateral_failures(doc, ids, t_in, t_out)
    failures += _rear_end_failures(doc, by_id, coeffs, t0, t_in)
    if policy == "fifo":
        order = np.diff(t_in)
        if order.size and order.min() < -SEPARATION_TOL:
            k = int(np.argmin(order))
            failures.append(
                f"fifo_order: {ids[k + 1]} enters at {t_in[k + 1]:.9g} before "
                f"{ids[k]} at {t_in[k]:.9g}"
            )
    failures += _energy_failures(metrics, ids, coeffs, horizon)
    failures += _csv_failures(doc, out_dir, ids, by_id, coeffs, t0, tf)
    return failures


def _lateral_failures(doc, ids, t_in, t_out) -> list[str]:
    buffer = doc.get("sim", {}).get("lateral_buffer_s", 0.0)
    moves = [(a["from"], a["to"]) for a in doc["arrivals"]]
    out = []
    for i in range(len(ids)):
        for j in range(i + 1, len(ids)):
            if not CONFLICTS[(moves[i], moves[j])]:
                continue
            sep = max(t_in[j] - t_out[i], t_in[i] - t_out[j])
            if sep < buffer - SEPARATION_TOL:
                out.append(
                    f"lateral: {ids[i]} [{t_in[i]:.9g}, {t_out[i]:.9g}] and "
                    f"{ids[j]} [{t_in[j]:.9g}, {t_out[j]:.9g}] overlap in the zone"
                )
    return out


def _rear_end_failures(doc, by_id, coeffs, t0, t_in) -> list[str]:
    """Consecutive arrivals on one approach lane, sampled while both are
    still before the merging zone."""
    arrivals = doc["arrivals"]
    lanes: dict[tuple[str, int], list[int]] = {}
    for i, a in enumerate(arrivals):
        lane = by_id[a["id"]]["lane_intervals"][0][2]
        lanes.setdefault((a["from"], lane), []).append(i)
    out = []
    for members in lanes.values():
        for lead, fol in zip(members, members[1:]):
            lo, hi = max(t0[lead], t0[fol]), min(t_in[lead], t_in[fol])
            if hi <= lo:
                continue
            p = vehicle_params(doc, arrivals[fol])
            t = np.linspace(lo, hi, DENSE_SAMPLES)
            gap = _pos(coeffs[:, lead], t - t0[lead]) - _pos(coeffs[:, fol], t - t0[fol])
            v_fol = _speed(coeffs[:, fol], t - t0[fol])
            margin = p["reaction_gain"] * gap - (p["standstill_gap_m"] + p["headway_s"] * v_fol)
            if margin.min() < -MARGIN_TOL:
                k = int(np.argmin(margin))
                out.append(
                    f"rear_end: {arrivals[fol]['id']} behind {arrivals[lead]['id']} "
                    f"margin {margin[k]:.6g} m at t={t[k]:.6g}"
                )
    return out


def _energy_failures(metrics, ids, coeffs, horizon) -> list[str]:
    out = []
    per_vehicle = metrics.get("per_vehicle", {})
    for i, vid in enumerate(ids):
        reported = per_vehicle.get(vid, {}).get("energy_cost")
        expected = energy_quadrature(coeffs[:, i], horizon[i])
        if reported is None or abs(reported - expected) > 1e-9 * max(1.0, abs(expected)):
            out.append(f"energy: {vid} reports {reported!r}, quadrature gives {expected!r}")
    return out


def _csv_failures(doc, out_dir, ids, by_id, coeffs, t0, tf) -> list[str]:
    dt = doc.get("sim", {}).get("dt_s", 0.01)
    # The sampling grid is k*dt over the run, each vehicle logged while
    # t0 <= t <= tf.
    k0 = math.floor(min(t0) / dt + 1e-9)
    k1 = math.ceil(max(tf) / dt - 1e-9)
    grid = np.arange(k0, k1 + 1, dtype=np.int64) * dt
    index = {vid: i for i, vid in enumerate(ids)}
    times: list[list[float]] = [[] for _ in ids]
    values: list[list[tuple[float, float, float]]] = [[] for _ in ids]
    lanes = [by_id[vid]["lane_intervals"][0][2] for vid in ids]
    out: list[str] = []
    try:
        with open(out_dir / "trajectory.csv", newline="") as handle:
            reader = csv.reader(handle)
            header = next(reader)
            if header != ["t", "vehicle_id", "lane", "position_m", "speed_mps", "accel_mps2", "rear_margin_m"]:
                return [f"csv: unexpected header {header}"]
            for row in reader:
                i = index.get(row[1])
                if i is None or int(row[2]) != lanes[i]:
                    return [f"csv: row {row} names an unknown vehicle or lane"]
                times[i].append(float(row[0]))
                values[i].append((float(row[3]), float(row[4]), float(row[5])))
    except (OSError, ValueError, IndexError, StopIteration) as exc:
        return [f"csv: cannot read trajectory.csv: {exc}"]
    for i, vid in enumerate(ids):
        expected = grid[(grid >= t0[i]) & (grid <= tf[i])]
        got = np.array(times[i])
        if got.shape != expected.shape or not np.array_equal(got, expected):
            out.append(f"csv: {vid} has {got.size} rows, the sampling window gives {expected.size}")
            continue
        tau = np.minimum(np.maximum(got - t0[i], 0.0), tf[i] - t0[i])
        c = coeffs[:, i]
        want = np.column_stack([_pos(c, tau), _speed(c, tau), _accel(c, tau)])
        err = np.abs(np.array(values[i]) - want).max() if got.size else 0.0
        if err > CSV_TOL * max(1.0, np.abs(want).max()):
            out.append(f"csv: {vid} rows deviate from the cubic by {err:.3g}")
    return out


# ---------------------------------------------------------------------------
# `cavcross plan` output
# ---------------------------------------------------------------------------

def check_plan(doc: dict, vehicle_id: str, stdout: str, exit_code: int) -> list[str]:
    """Check the JSON record `cavcross plan --vehicle <id>` printed."""
    if exit_code != 0:
        return [f"plan: exit code {exit_code}; an earlier arrival was not admitted"]
    try:
        record = json.loads(stdout)
        tf = float(record["chosen_tf_s"])
        lane = record["chosen_lane"]
        coeffs = np.array(record["position_coeffs"], dtype=float)
        lanes = record["lanes"]
    except (ValueError, KeyError, TypeError) as exc:
        return [f"plan: unreadable record: {exc}"]
    arrival = next(a for a in doc["arrivals"] if a["id"] == vehicle_id)
    layout = doc["layout"]
    t0, v0 = arrival["time_s"], arrival["speed_mps"]
    out = []
    if record.get("vehicle_id") != vehicle_id or record.get("arrival_time_s") != t0:
        out.append(f"plan: record names {record.get('vehicle_id')!r} at {record.get('arrival_time_s')!r}")
    horizon = tf - t0
    if not horizon > 0.0:
        return out + [f"bc: chosen tf {tf!r} is not after arrival {t0!r}"]
    s_total = path_length(layout, arrival["from"], arrival["to"])
    solved = solve_cubic_4x4(v0, s_total, horizon)
    if not np.allclose(coeffs, solved, rtol=1e-9, atol=1e-12):
        out.append(f"bc: printed coefficients {coeffs.tolist()} != 4x4 solve {solved.tolist()}")
    out += _bounds_failures(vehicle_id, coeffs, horizon, vehicle_params(doc, arrival), v0)
    if out:
        return out
    feasible = [c["tf_s"] for c in lanes if c["tf_s"] is not None]
    if not feasible or min(feasible) != tf:
        out.append(f"plan: chosen tf {tf!r} is not the least lane tf {feasible}")
    chosen = [c for c in lanes if c["lane"] == lane]
    if len(chosen) != 1:
        return out + [f"plan: chosen lane {lane!r} listed {len(chosen)} times"]
    entry = layout["control_zone_length_m"]
    exit_ = entry + zone_length(layout, arrival["from"], arrival["to"])
    c = coeffs[:, None]
    h = np.array([horizon])
    t_in = t0 + crossing_time(c, h, np.array([entry]))[0]
    t_out = t0 + crossing_time(c, h, np.array([exit_]))[0]
    for lo, hi in chosen[0]["rejected_occupancy_intervals_s"]:
        if not (t_out < lo + SEPARATION_TOL or t_in > hi - SEPARATION_TOL):
            out.append(
                f"lateral: occupancy [{t_in:.9g}, {t_out:.9g}] meets listed "
                f"interval [{lo:.9g}, {hi:.9g}]"
            )
    return out
