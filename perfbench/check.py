"""Output checker for perfbench runs.

Checks what the socket client read from ref_serve against facts the
benchmark derives on its own, never against the program's own
answers:

* every SHARE read in the timed phase is explained by the REF closed
  form (paper Eq. 13) for one of the elasticity pairs the agent can
  hold there (check_query_share);
* the final allocation equals the closed form recomputed from the
  elasticities the client sent, conserves each resource's capacity,
  and satisfies sharing incentives (SI) and envy-freeness (EF)
  (check_allocation);
* every TICK advanced the epoch by exactly one (check_epochs);
* the server's STATS counters equal what the client sent
  (check_counters), and its socket byte counters over the timed phase
  equal the bytes the client sent and received (check_bytes);
* a restart on the same journal reproduces the state hash and every
  share (check_restart).

The closed form: agent i's re-scaled elasticities are
a_ir = e_ir / sum_r e_ir; resource r is split in proportion to them,
x_ir = a_ir / D_r * C_r with D_r = sum_j a_jr.
"""

import math

CAPACITIES = (24.0, 12.0)  # ref_serve's default --capacity.

# Relative tolerance of a share against the recomputed closed form.
SHARE_TOL = 1e-12
# Relative tolerance of capacity conservation and of the implied
# population of a timed-phase share.
SUM_TOL = 1e-9
# Absolute log-utility tolerance of the SI and EF checks.
UTILITY_TOL = 1e-9


def rescale(elasticities):
    total = sum(elasticities)
    return tuple(e / total for e in elasticities)


def closed_form(agents, capacities=CAPACITIES):
    """REF allocation {name: shares} for {name: elasticities}."""
    rescaled = {name: rescale(e) for name, e in agents.items()}
    denominators = [
        math.fsum(a[r] for a in rescaled.values())
        for r in range(len(capacities))
    ]
    return {
        name: tuple(a[r] / denominators[r] * capacities[r]
                    for r in range(len(capacities)))
        for name, a in rescaled.items()
    }


def check_query_share(shares, candidates, n_lo, n_hi,
                      capacities=CAPACITIES):
    """True when @shares is the closed-form share of an agent holding
    one of @candidates in a population of n_lo..n_hi agents.

    Under the closed form D_r = a_r * C_r / x_r for every resource,
    and sum_r D_r = N because every agent's re-scaled elasticities
    sum to one. So the shares must imply an integer population in
    range; a share off by more than about SUM_TOL does not.
    """
    if any(not (s > 0 and math.isfinite(s)) for s in shares):
        return False
    for elasticities in candidates:
        a = rescale(elasticities)
        implied = sum(a[r] * capacities[r] / shares[r]
                      for r in range(len(capacities)))
        n = round(implied)
        if n_lo <= n <= n_hi and abs(implied - n) <= SUM_TOL * n:
            return True
    return False


def _max_over_bundles(weights, logs):
    """For each weight t in @weights: max_j (t*m_j + b_j) over the
    lines (m_j, b_j) in @logs, by the upper envelope (O(N log N))."""
    lines = sorted(logs)
    hull = []
    for m, b in lines:
        if hull and hull[-1][0] == m:
            hull.pop()  # Same slope: the later one has the larger b.
        while len(hull) >= 2:
            (m1, b1), (m2, b2) = hull[-2], hull[-1]
            # Middle line is never on top once the new one crosses
            # the first line left of where the middle one did.
            if (b1 - b) * (m2 - m1) <= (b1 - b2) * (m - m1):
                hull.pop()
            else:
                break
        hull.append((m, b))
    order = sorted(range(len(weights)), key=lambda i: weights[i])
    best = [0.0] * len(weights)
    k = 0
    for i in order:
        t = weights[i]
        while (k + 1 < len(hull) and
               hull[k + 1][0] * t + hull[k + 1][1] >=
               hull[k][0] * t + hull[k][1]):
            k += 1
        best[i] = hull[k][0] * t + hull[k][1]
    return best


def envy_violations(rescaled, shares):
    """Agents that prefer another agent's bundle to their own by more
    than UTILITY_TOL in log utility. @rescaled and @shares are lists
    of tuples in the same agent order. O(N log N) for two resources,
    pairwise otherwise."""
    logs = [tuple(math.log(s) for s in bundle) for bundle in shares]
    own = [sum(a[r] * l[r] for r in range(len(a)))
           for a, l in zip(rescaled, logs)]
    if any(len(a) != 2 for a in rescaled):
        return envy_violations_brute(rescaled, shares)
    # u_i(x_j) = a_i0*L_j0 + a_i1*L_j1 = L_j1 + a_i0*(L_j0 - L_j1)
    # when a_i0 + a_i1 = 1: a max over lines at t = a_i0.
    best = _max_over_bundles([a[0] for a in rescaled],
                             [(l[0] - l[1], l[1]) for l in logs])
    # The envelope is exact up to rounding in the line algebra.
    return [i for i in range(len(own))
            if best[i] > own[i] + UTILITY_TOL + 1e-12 * (1 + abs(own[i]))]


def envy_violations_brute(rescaled, shares):
    """EF by every ordered pair (the oracle for envy_violations)."""
    logs = [tuple(math.log(s) for s in bundle) for bundle in shares]
    bad = []
    for i, a in enumerate(rescaled):
        own = sum(a[r] * logs[i][r] for r in range(len(a)))
        for j, l in enumerate(logs):
            if j != i and sum(a[r] * l[r] for r in range(len(a))) > \
                    own + UTILITY_TOL:
                bad.append(i)
                break
    return bad


def check_allocation(agents, shares, capacities=CAPACITIES):
    """Errors of the final allocation @shares ({name: tuple}) for the
    live agents @agents ({name: elasticities})."""
    errors = []
    if set(agents) != set(shares):
        missing = sorted(set(agents) - set(shares))[:3]
        extra = sorted(set(shares) - set(agents))[:3]
        return ["allocation agents differ from the live agents "
                f"(missing {missing}, unexpected {extra})"]
    if not agents:
        return ["no live agents"]
    expected = closed_form(agents, capacities)
    for name, want in expected.items():
        got = shares[name]
        if len(got) != len(want) or any(
                abs(g - w) > SHARE_TOL * w for g, w in zip(got, want)):
            errors.append(f"share of {name} is {got}, closed form "
                          f"gives {want}")
            if len(errors) >= 5:
                break
    for r, capacity in enumerate(capacities):
        total = math.fsum(s[r] for s in shares.values())
        if abs(total - capacity) > SUM_TOL * capacity:
            errors.append(f"resource {r}: shares sum to {total}, "
                          f"capacity is {capacity}")
    names = sorted(agents)
    rescaled = [rescale(agents[n]) for n in names]
    bundles = [shares[n] for n in names]
    if any(s <= 0 for b in bundles for s in b):
        return errors + ["an agent holds a non-positive share"]
    count = len(names)
    for name, a, bundle in zip(names, rescaled, bundles):
        gain = sum(a[r] * (math.log(bundle[r]) -
                           math.log(capacities[r] / count))
                   for r in range(len(a)))
        if gain < -UTILITY_TOL:
            errors.append(f"SI violated: {name} prefers the equal "
                          f"split (log-utility slack {gain})")
            break
    envious = envy_violations(rescaled, bundles)
    if envious:
        errors.append(f"EF violated: {len(envious)} agents envy "
                      f"another bundle (e.g. {names[envious[0]]})")
    return errors


def check_epochs(epochs, ticks):
    """Every TICK sent got its own EPOCH, one apart, from epoch 1."""
    if len(epochs) != ticks:
        return [f"{ticks} TICKs sent, {len(epochs)} EPOCH replies"]
    if sorted(epochs) != list(range(1, ticks + 1)):
        return ["EPOCH numbers do not advance by exactly one per TICK"]
    return []


JOURNALED = ("admit", "update", "depart", "tick", "pool_create",
             "assign")


def check_counters(stats, sent, failed, journal):
    """Server STATS against the requests the client sent."""
    want = {
        "admits": sent["admit"],
        "updates": sent["update"],
        "departs": sent["depart"],
        "queries": sent["query"],
        "epochs": sent["tick"],
        "pool_assigns": sent["assign"],
        "pool_creates": sent["pool_create"],
        "rejected": failed,
        "journal_records":
            sum(sent[k] for k in JOURNALED) if journal else 0,
    }
    errors = []
    for key, value in want.items():
        if key not in stats:
            errors.append(f"STATS lacks {key}")
        elif int(stats[key]) != value:
            errors.append(f"STATS {key}={stats[key]}, client counted "
                          f"{value}")
    return errors


def check_bytes(timed_bytes):
    """Server bytes in/out over the timed phase against the client's
    own count of bytes sent/received: (server_in, server_out,
    client_sent, client_read)."""
    server_in, server_out, client_sent, client_read = timed_bytes
    errors = []
    if server_in != client_sent:
        errors.append(f"server read {server_in} bytes in the timed "
                      f"phase, client sent {client_sent}")
    if server_out != client_read:
        errors.append(f"server wrote {server_out} bytes in the timed "
                      f"phase, client read {client_read}")
    return errors


def check_restart(report):
    """Restart on the same journal: same state hash, same shares."""
    errors = []
    before = report["stats"].get("state_hash")
    after = report["restart_stats"].get("state_hash")
    if before is None or before != after:
        errors.append(f"state_hash {before} before shutdown, {after} "
                      "after restart")
    if report["restart_shares_text"] != report["shares_text"]:
        errors.append("shares after restart differ from before")
    return errors


def read_report(path):
    """Parse the client's report file."""
    report = {
        "sent": {}, "epochs": [], "queries": [], "agents": {},
        "shares": {}, "shares_text": {}, "stats": {},
        "restart_stats": {}, "restart_shares_text": {},
        "pooled": False, "journal": False, "failed": 0,
        "population": (0, 0), "timed_bytes": None,
    }
    with open(path) as f:
        for line in f:
            tag, _, rest = line.rstrip("\n").partition(" ")
            fields = rest.split()
            if tag == "q":
                values = [float(v) for v in fields]
                report["queries"].append(
                    (tuple(values[:2]),
                     [tuple(values[k:k + 2])
                      for k in range(2, len(values), 2)]))
            elif tag == "agent":
                report["agents"][fields[0]] = tuple(
                    float(v) for v in fields[1:])
            elif tag == "share":
                report["shares"][fields[0]] = tuple(
                    float(v) for v in fields[1:])
                report["shares_text"][fields[0]] = fields[1:]
            elif tag == "restart_share":
                report["restart_shares_text"][fields[0]] = fields[1:]
            elif tag == "stat":
                report["stats"][fields[0]] = fields[1]
            elif tag == "restart_stat":
                report["restart_stats"][fields[0]] = fields[1]
            elif tag == "sent":
                report["sent"][fields[0]] = int(fields[1])
            elif tag == "epochs":
                report["epochs"] = [int(v) for v in fields]
            elif tag == "population":
                report["population"] = (int(fields[0]), int(fields[1]))
            elif tag in ("pooled", "journal"):
                report[tag] = fields[0] == "1"
            elif tag == "failed":
                report["failed"] = int(fields[0])
            elif tag == "timed_bytes":
                report["timed_bytes"] = tuple(int(v) for v in fields)
    return report


def check_report(report, restarted=False):
    """Every check that applies to one run's report."""
    errors = []
    n_lo, n_hi = report["population"]
    bad = [q for q in report["queries"]
           if not check_query_share(q[0], q[1], n_lo, n_hi)]
    if bad:
        errors.append(f"{len(bad)} of {len(report['queries'])} timed "
                      f"QUERY shares fit no closed form (first: {bad[0]})")
    if not report["queries"]:
        errors.append("no QUERY was answered in the timed phase")
    errors += check_allocation(report["agents"], report["shares"])
    errors += check_epochs(report["epochs"], report["sent"]["tick"])
    errors += check_counters(report["stats"], report["sent"],
                             report["failed"], report["journal"])
    if report["timed_bytes"] is None:
        errors.append("report lacks the timed phase's byte counts")
    else:
        errors += check_bytes(report["timed_bytes"])
    if restarted:
        errors += check_restart(report)
    return errors
