"""Policy tests: index values, selection rules, baselines, tie-breaking."""

import copy
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from unimodal_bandits import (
    BanditConfig,
    Bernoulli,
    Exponential,
    Gaussian,
    Imed,
    ImedUB,
    Osub,
    ParameterError,
    PolicySpec,
    PullStats,
    StateError,
    UnimodalGraph,
    Uts,
    leader,
    line_graph,
    load_config,
    make_policy,
    seed_sequence,
    simulate_policy_run,
    transport_kl,
)
from unimodal_bandits import runner
from unimodal_bandits.expfam import BUDGET_MAX, C_MAX, PULLS_MAX
from unimodal_bandits.policies import _IndexRule

from conftest import (
    FAMILIES,
    HILL_MEANS,
    bisect_kl_upper_inverse,
    log_bits,
    make_stats,
    oracle_select,
    osub_select_loop,
    simulate_loop,
)


BERN = Bernoulli()


# ---------------------------------------------------------------------------
# index


def index_oracle(stats, family, arm):
    """The minimum-index value n KL(mean, best mean) + log n, from scratch."""
    n = stats.counts[arm]
    return n * transport_kl(family, stats.means[arm], max(stats.means)) + math.log(n)


def test_index_is_log_pulls_for_best_arm():
    # the best arm's index is exactly log 8 = 2.079: a neighbor with two
    # pulls at 0.2 (index 2 KL(0.2, 0.7) + log 2 = 1.76) undercuts it, one
    # at 0.1 (2.28) does not
    policy = Imed(BERN, 2)
    assert policy.select(make_stats([8, 2], [0.7, 0.2])) == 1
    assert policy.select(make_stats([8, 2], [0.7, 0.1])) == 0


def test_index_zero_for_best_arm_with_one_pull():
    # index 0 is the least any arm can have, so a once-pulled best arm wins
    # whatever the others' statistics
    assert Imed(BERN, 2).select(make_stats([1, 5], [0.7, 0.2])) == 0
    assert Imed(BERN, 3).select(make_stats([40, 1, 1], [0.69, 0.7, 0.0])) == 1


def test_index_composes_kl_and_log():
    # arm 0's index 100 KL(0.2, 0.25) + log 100 = 5.3052 sits between the
    # best arm's log 150 = 5.01 and log 250 = 5.52
    stats = make_stats([100, 150], [0.2, 0.25])
    assert index_oracle(stats, BERN, 0) == pytest.approx(5.3052, rel=1e-3)
    assert Imed(BERN, 2).select(stats) == 1
    assert Imed(BERN, 2).select(make_stats([100, 250], [0.2, 0.25])) == 0


def test_index_requires_pulled_arm():
    for policy in (Imed(BERN, 2), ImedUB(BERN, line_graph(2))):
        with pytest.raises(StateError):
            policy.select(make_stats([0, 5], [0.0, 0.2]))


def test_index_floor_property():
    # the structured rule's pick never has an index below the leader's
    # log N_L, which is the minimum over best arms
    rng = np.random.default_rng(42)
    g = line_graph(6)
    policy = ImedUB(BERN, g)
    for _ in range(200):
        stats = make_stats(
            rng.integers(1, 50, 6).tolist(), np.round(rng.uniform(0, 1, 6), 2).tolist()
        )
        lead = leader(stats)
        chosen = policy.select(stats)
        assert chosen in g.candidates(lead)
        assert index_oracle(stats, BERN, chosen) <= math.log(stats.counts[lead]) + 1e-12
        for a in g.candidates(lead):
            assert index_oracle(stats, BERN, a) >= math.log(stats.counts[a]) - 1e-12


# ---------------------------------------------------------------------------
# index floors and OSUB's certificate: the rules against the reference
# loops of conftest


GRID36 = Path(__file__).resolve().parents[1] / "bench" / "configs" / "grid36_exponential.json"
HILL_CONFIG = Path(__file__).resolve().parents[1] / "configs" / "hill9_bernoulli.json"

PARITY_BANDITS = {
    "bernoulli-hill": lambda: BanditConfig(BERN, HILL_MEANS, line_graph(9)),
    "gaussian-hill": lambda: BanditConfig(Gaussian(0.25), HILL_MEANS, line_graph(9)),
    "exponential-hill": lambda: BanditConfig(
        Exponential(), [m + 0.5 for m in HILL_MEANS], line_graph(9)
    ),
    "grid36": lambda: load_config(GRID36).bandit_config(),
}

def oracle_log(bandit, spec, seed_seq, horizon):
    """conftest's per-step simulation loop, with the rule's select()
    replaced by conftest's reference loops, which evaluate every
    candidate's index or KL upper inverse exactly."""
    graph = bandit.graph
    if spec.name == "osub":
        def select(policy, stats):
            return osub_select_loop(policy, graph, stats)
    else:
        loop = oracle_select(spec.name, bandit.family, graph)

        def select(policy, stats):
            return loop(stats)
    return simulate_loop(bandit, spec, seed_seq, horizon, select)


def assert_matches_oracle(bandit, rule, run, horizon, spec=None):
    # a run leaves its SeedSequence as it is, so both runs share one
    spec = spec or PolicySpec(rule)
    seed_seq = seed_sequence(20260810, run, 0)
    log = simulate_policy_run(bandit, spec, seed_seq, horizon)
    assert log_bits(*log) == log_bits(*oracle_log(bandit, spec, seed_seq, horizon))


@pytest.mark.parametrize("rule", ["imed-ub", "imed"])
@pytest.mark.parametrize("name", sorted(PARITY_BANDITS))
def test_index_rules_match_the_oracle_loops(name, rule):
    bandit = PARITY_BANDITS[name]()
    for run in range(2):
        assert_matches_oracle(bandit, rule, run, 3000)


@st.composite
def unimodal_bandits(draw):
    """A line, a random tree or a tree with one more edge, which closes a
    cycle, with means falling with the distance to a peak, so arms at one
    distance share their mean; Bernoulli means sit near 0 or near 1."""
    k = draw(st.integers(2, 7))
    if draw(st.booleans()):
        edges = [(i - 1, i) for i in range(1, k)]
    else:
        edges = [(draw(st.integers(0, i - 1)), i) for i in range(1, k)]
        if k > 2 and draw(st.booleans()):
            a, b = draw(st.sampled_from([(a, b) for b in range(k) for a in range(b)]))
            edges.append((a, b))
    graph = UnimodalGraph(k, edges)
    peak = draw(st.integers(0, k - 1))
    dist = {peak: 0}
    frontier = [peak]
    while frontier:
        a = frontier.pop(0)
        for b in graph.neighbors(a):
            if b not in dist:
                dist[b] = dist[a] + 1
                frontier.append(b)
    family = draw(st.sampled_from(FAMILIES))
    ratio = draw(st.sampled_from([0.5, 0.9, 0.999]))
    if family.name == "bernoulli":
        top = draw(st.sampled_from([0.01, 0.3, 0.999]))
        means = [top * ratio ** dist[a] for a in range(k)]
    elif family.name == "gaussian":
        means = [ratio ** dist[a] for a in range(k)]
    else:
        means = [2.0 * ratio ** dist[a] for a in range(k)]
    return BanditConfig(family, means, graph)


@settings(max_examples=60, deadline=None)
@given(bandit=unimodal_bandits(), rule=st.sampled_from(["imed-ub", "imed"]),
       run=st.integers(0, 2**16), horizon=st.integers(7, 900))
def test_index_rules_match_the_oracle_loops_on_drawn_instances(bandit, rule, run, horizon):
    # most horizons end inside a leader run that simulate_policy_run
    # shortens to fit
    assert_matches_oracle(bandit, rule, run, horizon)


@pytest.mark.parametrize("rule", ["imed-ub", "imed", "osub"])
@pytest.mark.parametrize("name", ["bernoulli-hill", "gaussian-hill", "exponential-hill"])
def test_leader_runs_match_the_per_step_loop(name, rule):
    # 50 runs of the acceptance study's seed, run 420 among them, against
    # conftest's loop with the rule's own select on every step
    bandit = PARITY_BANDITS[name]()
    spec = PolicySpec(rule)
    for run in [*range(49), 420]:
        seed_seq = seed_sequence(20260810, run, 0)
        log = simulate_policy_run(bandit, spec, seed_seq, 5000)
        assert log_bits(*log) == log_bits(*simulate_loop(bandit, spec, seed_seq, 5000)), run


# every rule with a certify: the index rules, and OSUB at each gamma and c
CERTIFIED_SPECS = {
    "imed-ub": PolicySpec("imed-ub"),
    "imed": PolicySpec("imed"),
    **{
        f"osub-gamma{gamma}-c{c:g}": PolicySpec("osub", gamma=gamma, c=c)
        for gamma in (0, 1, 2, None)
        for c in (0.0, 1.0)
    },
}


@pytest.mark.parametrize("certified", ["as-is", "seeded-refusals", "never"])
@pytest.mark.parametrize("rule", sorted(CERTIFIED_SPECS))
@pytest.mark.parametrize("name", sorted(PARITY_BANDITS))
def test_leader_runs_match_the_per_step_loop_whatever_certify_says(
    monkeypatch, name, rule, certified
):
    # a refused run has read the leader's next rewards, which its later
    # pulls must still be served; a run that reads across the end of the
    # leader's 512-draw block reads on into the next one
    spec = CERTIFIED_SPECS[rule]
    owner = Osub if spec.name == "osub" else _IndexRule
    certify = owner.certify
    coin = np.random.default_rng(11)
    crossing = []

    def watched(self, stats, lead, k, m_min):
        seeded = certified == "seeded-refusals" and coin.random() < 0.5
        if owner is Osub:
            # an accepting Osub.certify has already counted the run's
            # leader rounds, so its seeded refusal comes before the call
            ok = certified != "never" and not seeded and certify(self, stats, lead, k, m_min)
        else:
            ok = certified != "never" and certify(self, stats, lead, k, m_min) and not seeded
        n = stats.counts[lead]
        if n // runner._REWARD_BLOCK != (n + k - 1) // runner._REWARD_BLOCK:
            crossing.append(ok)
        return ok

    monkeypatch.setattr(owner, "certify", watched)
    bandit = PARITY_BANDITS[name]()
    # OSUB with c = 1 certifies few runs on grid36 before T = 5000, and
    # none that crosses a block's end
    horizon = 8000 if name == "grid36" else 5000
    for run in (0, 420):
        seed_seq = seed_sequence(20260810, run, 0)
        log = simulate_policy_run(bandit, spec, seed_seq, horizon)
        assert log_bits(*log) == log_bits(*simulate_loop(bandit, spec, seed_seq, horizon)), run
    # certified runs crossed a block's end, or refused ones did
    assert (certified == "as-is") in crossing


@pytest.mark.parametrize("name", sorted(PARITY_BANDITS))
def test_uts_matches_the_per_step_loop(name):
    bandit = PARITY_BANDITS[name]()
    for run in (0, 420):
        seed_seq = seed_sequence(20260810, run, 0)
        log = simulate_policy_run(bandit, PolicySpec("uts"), seed_seq, 3000)
        assert log_bits(*log) == log_bits(*simulate_loop(bandit, PolicySpec("uts"), seed_seq, 3000))


def test_imed_ub_decides_most_hill_steps_in_leader_runs(monkeypatch):
    # the mechanism behind the speed of imed-ub: on the Bernoulli hill at
    # T = 20000 select decides 1322 steps, 6.6%, and leader runs the rest
    calls = []
    select = ImedUB.select

    def counted(self, stats):
        calls.append(stats.t)
        return select(self, stats)

    monkeypatch.setattr(ImedUB, "select", counted)
    bandit = PARITY_BANDITS["bernoulli-hill"]()
    simulate_policy_run(bandit, PolicySpec("imed-ub"), seed_sequence(20260810, 0, 0), 20000)
    assert len(calls) <= 0.2 * (20000 - 9)


def test_osub_decides_most_hill_steps_in_leader_runs(monkeypatch):
    # run 0 of the acceptance study's osub at T = 20000: select decides
    # 5002 steps, 25.0%, and leader runs the rest
    cfg = load_config(HILL_CONFIG)
    idx = [p.name for p in cfg.policies].index("osub")
    calls = []
    select = Osub.select

    def counted(self, stats):
        calls.append(stats.t)
        return select(self, stats)

    monkeypatch.setattr(Osub, "select", counted)
    simulate_policy_run(
        cfg.bandit_config(), cfg.policies[idx], seed_sequence(cfg.seed, 0, idx), 20000
    )
    assert len(calls) <= 0.3 * (20000 - 9)


@pytest.mark.parametrize("rule", ["osub-gammaNone-c0", "osub-gamma1-c1"])
@pytest.mark.parametrize("name", sorted(PARITY_BANDITS))
def test_osub_certify_counts_the_rounds_its_selects_would(monkeypatch, name, rule):
    # wherever certify accepts, a copy of the rule taken before it makes
    # the run's k select calls on a copy of the PullStats, pulling the
    # logged rewards: each returns lead, and the copy's leader rounds end
    # where certify left the rule's
    spec = CERTIFIED_SPECS[rule]
    accepted = []
    certify = Osub.certify

    def watched(self, stats, lead, k, m_min):
        before = copy.deepcopy(self), copy.deepcopy(stats)
        ok = certify(self, stats, lead, k, m_min)
        if ok:
            accepted.append((*before, lead, k, list(self.leader_rounds)))
        return ok

    monkeypatch.setattr(Osub, "certify", watched)
    actions, rewards = simulate_policy_run(
        PARITY_BANDITS[name](), spec, seed_sequence(20260810, 0, 0), 5000
    )
    assert len(accepted) > 20
    for rule_copy, stats, lead, k, rounds in accepted:
        t = stats.t
        assert actions[t:t + k].tolist() == [lead] * k
        for x in rewards[t:t + k]:
            assert rule_copy.select(stats) == lead
            stats.record(lead, float(x))
        assert rule_copy.leader_rounds == rounds


@pytest.mark.parametrize("name", sorted(PARITY_BANDITS))
def test_osub_matches_the_oracle_loop(name):
    # runs 0 and 420 of the acceptance study's seed; c = 3 adds the
    # loglog term to the bonus
    bandit = PARITY_BANDITS[name]()
    for run in (0, 420):
        assert_matches_oracle(bandit, "osub", run, 3000)
    assert_matches_oracle(bandit, "osub", 1, 3000, PolicySpec("osub", c=3.0))


@settings(max_examples=40, deadline=None)
@given(bandit=unimodal_bandits(), gamma=st.sampled_from([None, 0, 1, 2]),
       c=st.sampled_from([0.0, 1.0, 3.0]), run=st.integers(0, 2**16))
def test_osub_matches_the_oracle_loop_on_drawn_instances(bandit, gamma, c, run):
    assert_matches_oracle(bandit, "osub", run, 600, PolicySpec("osub", gamma=gamma, c=c))


def osub_stats(draw, family, k):
    """PullStats on k arms whose counts and means come from short lists,
    so neighbours often tie in (count, mean); the Bernoulli and Exponential
    lists hold the edges of their mean domains."""
    pool = {
        "bernoulli": [0.0, 0.2, 0.25, 0.5, 0.999, 1.0],
        "gaussian": [-1.0, 0.0, 0.25, 0.5],
        "exponential": [0.0, 0.3, 0.5, 1.0, 2.0],
    }[family.name]
    lo, hi = max(family.mean_lo, -2.0), min(family.mean_hi, 3.0)
    mean = st.one_of(st.sampled_from(pool), st.floats(lo, hi))
    counts = draw(st.lists(st.sampled_from([1, 2, 5, 40]), min_size=k, max_size=k))
    return make_stats(counts, draw(st.lists(mean, min_size=k, max_size=k)))


@settings(max_examples=400, deadline=None)
@given(data=st.data())
def test_osub_select_matches_the_oracle_loop(data):
    # the certificate against the loop that solves every candidate, one
    # policy for each with the same leader rounds; each call advances the
    # rounds, so a few calls on one PullStats reach the unforced ones.
    # About a tenth of the examples have a Bernoulli leader at mean 1.0,
    # whose bound is 1.0 itself, and a sixth a neighbour tied with the
    # leader in count and mean
    family = data.draw(st.sampled_from(FAMILIES))
    k = data.draw(st.integers(2, 6))
    g = line_graph(k) if data.draw(st.booleans()) else UnimodalGraph(
        k, [(0, i) for i in range(1, k)]
    )
    gamma = data.draw(st.sampled_from([1, 2]))
    c = data.draw(st.sampled_from([0.0, 3.0]))
    stats = osub_stats(data.draw, family, k)
    rounds = data.draw(st.lists(st.integers(0, 300), min_size=k, max_size=k))
    policy = Osub(family, g, gamma=gamma, c=c)
    oracle = Osub(family, g, gamma=gamma, c=c)
    policy.leader_rounds = list(rounds)
    oracle.leader_rounds = list(rounds)
    for _ in range(gamma + 1):
        assert policy.select(stats) == osub_select_loop(oracle, g, stats)
    assert policy.leader_rounds == oracle.leader_rounds


def test_osub_a_tie_with_the_leader_goes_to_the_lower_index():
    # Gaussian bounds m + sqrt(2 var b): mean 0 at one pull and mean s/2 at
    # four pulls both reach s exactly, and arm 0 wins the tie, as the
    # neighbour of leader 1 or as the leader
    g = line_graph(2)
    gauss = Gaussian(0.25)
    s = gauss.kl_upper_inverse(0.0, math.log(2))
    counts, means = [1, 4], [0.0, s / 2]
    for flip in (False, True):
        stats = make_stats(counts[::-1], means[::-1]) if flip else make_stats(counts, means)
        policy = Osub(gauss, g, gamma=2)
        policy.leader_rounds = [1, 1]
        assert policy.select(stats) == 0, flip


@pytest.mark.parametrize("rule", ["imed-ub", "imed"])
def test_index_floors_follow_means_at_equal_counts(rule):
    # one policy instance sees PullStats that all share their counts, so a
    # floor keyed on the count alone would outlive its arm's mean; moves
    # of the best mean by a hair or by 0.05 also test the floors' ref
    rng = np.random.default_rng(19)
    g = line_graph(6)
    policy = make_policy(PolicySpec(rule), BERN, g)
    oracle = oracle_select(rule, BERN, g)
    counts = [400, 30, 900, 12, 250, 600]
    means = rng.uniform(0.2, 0.8, 6)
    for step in range(3000):
        if step % 100 == 0:
            means = rng.uniform(0.2, 0.8, 6)
        arm = rng.integers(6)
        means[arm] = min(0.99, max(0.01, means[arm] + rng.choice([-0.05, -1e-12, 1e-12, 0.05])))
        stats = make_stats(counts, means)
        assert policy.select(stats) == oracle(stats), step


def test_transport_kl_clamps_above_target():
    assert transport_kl(BERN, 0.6, 0.4) == 0.0
    assert transport_kl(BERN, 0.4, 0.4) == 0.0
    assert transport_kl(BERN, 0.3, 0.4) == BERN.kl(0.3, 0.4)


# ---------------------------------------------------------------------------
# IMED-UB selection


def test_imedub_selects_within_leader_neighborhood():
    policy = ImedUB(BERN, line_graph(9))
    stats = make_stats([5] * 9, HILL_MEANS)
    assert leader(stats) == 4
    assert policy.select(stats) in {3, 4, 5}


def test_imedub_picks_smallest_index_by_hand():
    # counts chosen so I_3 < I_4 < I_5 when means tie at 0.2 vs best 0.25
    policy = ImedUB(BERN, line_graph(9))
    counts = [3, 3, 3, 2, 4, 200, 3, 3, 3]
    means = [0.05, 0.10, 0.15, 0.20, 0.25, 0.20, 0.15, 0.10, 0.05]
    stats = make_stats(counts, means)
    by_hand = {
        a: counts[a] * BERN.kl(means[a], 0.25) + math.log(counts[a]) for a in (3, 4, 5)
    }
    assert by_hand[3] < by_hand[4] < by_hand[5]
    assert [index_oracle(stats, BERN, a) for a in (3, 4, 5)] == [
        pytest.approx(by_hand[a], abs=1e-12) for a in (3, 4, 5)
    ]
    assert policy.select(stats) == 3


def test_imedub_requires_initialization():
    policy = ImedUB(BERN, line_graph(3))
    with pytest.raises(StateError):
        policy.select(make_stats([1, 0, 1], [0.5, 0.0, 0.5]))


def test_imedub_ties_break_to_lowest_index():
    policy = ImedUB(BERN, line_graph(3))
    stats = make_stats([2, 2, 2], [0.5, 0.5, 0.5])
    # all indexes equal log 2; leader is arm 0 (tie, lowest index)
    assert policy.select(stats) == 0


def test_imed_all_tied_returns_arm_zero():
    policy = Imed(BERN, 4)
    assert policy.select(make_stats([3, 3, 3, 3], [0.4] * 4)) == 0


def test_imed_matches_exhaustive_index_oracle():
    rng = np.random.default_rng(11)
    policy = Imed(BERN, 6)
    for _ in range(300):
        stats = make_stats(
            rng.integers(1, 30, 6).tolist(), np.round(rng.uniform(0, 1, 6), 2).tolist()
        )
        vals = [index_oracle(stats, BERN, a) for a in range(6)]
        lowest = min(range(6), key=lambda a: (vals[a], a))
        assert policy.select(stats) == lowest


def test_imed_equals_imedub_on_two_arms():
    rng = np.random.default_rng(3)
    ub = ImedUB(BERN, line_graph(2))
    flat = Imed(BERN, 2)
    for _ in range(200):
        stats = make_stats(
            rng.integers(1, 40, 2).tolist(), np.round(rng.uniform(0, 1, 2), 2).tolist()
        )
        assert ub.select(stats) == flat.select(stats)


# ---------------------------------------------------------------------------
# OSUB


def test_osub_first_leader_round_pulls_leader():
    policy = Osub(BERN, line_graph(9))
    stats = make_stats([5] * 9, HILL_MEANS)
    assert policy.leader_rounds == [0] * 9
    assert policy.select(stats) == 4
    assert policy.leader_rounds[4] == 1


def test_osub_defaults_gamma_to_max_degree():
    assert Osub(BERN, line_graph(9)).gamma == 2
    assert Osub(BERN, line_graph(9), gamma=5).gamma == 5
    with pytest.raises(ParameterError):
        Osub(BERN, line_graph(9), gamma=-1)


def test_osub_budgets_stay_within_the_inverse_domain():
    # the largest budget, at c = C_MAX, one pull and the most leader rounds
    # a run can reach, is one kl_upper_inverse takes
    assert Osub(BERN, line_graph(3), c=C_MAX)._bonus(PULLS_MAX - 1) <= BUDGET_MAX < 423.0


@pytest.mark.parametrize("c", [-5.0, -1e-300, math.nextafter(C_MAX, math.inf), math.inf, math.nan])
def test_osub_refuses_negative_or_nonfinite_c(c):
    with pytest.raises(ParameterError):
        Osub(BERN, line_graph(9), c=c)


def test_osub_zero_budget_index_is_empirical_mean():
    assert BERN.kl_upper_inverse(0.35, 0.0) == 0.35


def test_osub_matches_hand_evaluated_ucb_argmax():
    policy = Osub(BERN, line_graph(3), gamma=2)
    stats = make_stats([10, 4, 6], [0.5, 0.45, 0.3])
    policy.leader_rounds[0] = 1  # round 2 for leader 0: not a forced round
    chosen = policy.select(stats)
    bonus = math.log(2)
    ucb = {a: BERN.kl_upper_inverse(stats.means[a], bonus / stats.counts[a]) for a in (0, 1)}
    expected = max((0, 1), key=lambda a: (ucb[a], -a))
    assert chosen == expected == 1  # fewer pulls inflate the neighbor's bound


def assert_pulls_in_argmax_neighborhood(log, graph):
    """Every post-initialization pull of a recorded run lies in the
    neighborhood of the arm of maximal empirical mean (lowest index on
    ties), the leader of OSUB and UTS."""
    stats = PullStats(graph.arm_count)
    for i, (arm, reward) in enumerate(zip(*log)):
        if i >= graph.arm_count:
            lead = max(range(graph.arm_count), key=lambda a: (stats.means[a], -a))
            assert arm in graph.candidates(lead), i
        stats.record(arm, reward)


def test_osub_membership_over_runs():
    g = line_graph(9)
    spec = PolicySpec("osub")
    log = simulate_policy_run(
        BanditConfig(BERN, HILL_MEANS, g), spec, seed_sequence(5, 0, 0), 800
    )
    assert_pulls_in_argmax_neighborhood(log, g)


def test_osub_forced_rounds_follow_schedule():
    policy = Osub(BERN, line_graph(3), gamma=2)
    stats = make_stats([50, 2, 2], [0.9, 0.1, 0.1])
    pulls = [policy.select(stats) for _ in range(9)]
    # leader (arm 0) is pulled on leader-rounds 1, 4, 7
    assert [pulls[i] for i in (0, 3, 6)] == [0, 0, 0]


def osub_hill_actions(family, seed):
    """OSUB's actions on the hill for run `seed` of the acceptance study."""
    actions, _ = simulate_policy_run(
        BanditConfig(family, HILL_MEANS, line_graph(9)), PolicySpec("osub"),
        seed_sequence(20260810, seed, 2), 5000,
    )
    return actions


@pytest.mark.parametrize("family", FAMILIES, ids=lambda f: f.name)
def test_osub_actions_match_bisection_oracle(family, monkeypatch):
    # the solver returns within 1e-10 of the bisection; no index comparison
    # on these runs is that close, so every decision agrees
    solver = [osub_hill_actions(family, seed) for seed in range(10)]
    monkeypatch.setattr(type(family), "kl_upper_inverse", bisect_kl_upper_inverse)
    for seed, actions in enumerate(solver):
        assert np.array_equal(osub_hill_actions(family, seed), actions), seed


# ---------------------------------------------------------------------------
# UTS


def _first_coin_below_half(seed):
    return np.random.default_rng(seed).random() < 0.5


def test_uts_leader_branch_returns_leader():
    seed = next(s for s in range(100) if _first_coin_below_half(s))
    policy = Uts(BERN, line_graph(9), np.random.default_rng(seed))
    stats = make_stats([5] * 9, HILL_MEANS)
    assert policy.select(stats) == 4


def test_uts_sampling_branch_respects_neighborhood():
    g = line_graph(9)
    spec = PolicySpec("uts")
    log = simulate_policy_run(
        BanditConfig(BERN, HILL_MEANS, g), spec, seed_sequence(6, 0, 0), 800
    )
    assert_pulls_in_argmax_neighborhood(log, g)


def test_uts_degenerate_neighbor_posterior_wins_half_the_time():
    # leader arm 0 sits at empirical mean 1.0 after a single lucky pull, so
    # its posterior spreads over [0, 1]; the neighbor's posterior is pinned
    # at 0.999 by a huge sample, far above most of the leader's mass. The
    # sampling branch then picks the neighbor almost surely, leaving the
    # overall neighbor frequency at the coin rate 1/2.
    rng = np.random.default_rng(314)
    policy = Uts(BERN, line_graph(2), rng)
    stats = make_stats([1, 10**6], [1.0, 0.999])
    picks = sum(policy.select(stats) == 1 for _ in range(10**5))
    assert abs(picks / 10**5 - 0.5) < 0.01


def test_uts_requires_rng():
    with pytest.raises(ParameterError):
        make_policy(PolicySpec("uts"), BERN, line_graph(3), rng=None)


def test_uts_deterministic_given_stream():
    stats = make_stats([3, 2, 4], [0.5, 0.4, 0.2])
    a = Uts(BERN, line_graph(3), np.random.default_rng(9)).select(stats)
    b = Uts(BERN, line_graph(3), np.random.default_rng(9)).select(stats)
    assert a == b


# ---------------------------------------------------------------------------
# factory and shared behavior


def test_make_policy_variants():
    g = line_graph(4)
    assert isinstance(make_policy(PolicySpec("imed-ub"), BERN, g), ImedUB)
    assert isinstance(make_policy(PolicySpec("imed"), BERN, g), Imed)
    assert isinstance(make_policy(PolicySpec("osub", gamma=1), BERN, g), Osub)
    assert isinstance(
        make_policy(PolicySpec("uts"), BERN, g, rng=np.random.default_rng(0)), Uts
    )
    with pytest.raises(ParameterError):
        make_policy(PolicySpec("ucb"), BERN, g)


def test_deterministic_policies_are_pure_functions_of_stats():
    g = line_graph(9)
    stats = make_stats([4, 2, 7, 1, 9, 2, 3, 5, 1], HILL_MEANS)
    for policy in (ImedUB(BERN, g), Imed(BERN, 9)):
        assert policy.select(stats) == policy.select(stats)


def test_gaussian_policy_runs():
    g = line_graph(5)
    fam = Gaussian(0.25)
    spec = PolicySpec("imed-ub")
    actions, _ = simulate_policy_run(
        BanditConfig(fam, (0.1, 0.2, 0.3, 0.2, 0.1), g), spec, seed_sequence(1, 0, 0), 400
    )
    counts = np.bincount(actions, minlength=5).tolist()
    assert sum(counts) == 400
    assert counts[2] == max(counts)
