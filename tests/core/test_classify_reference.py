"""Reference definitions of the Section 4.1.1 classifier statistics.

These are the multi-pass helpers the classifier was first written
with: each statistic computed by its own walk over the episode list.
:class:`repro.core.classify.TimerStats` folds all of them into one
pass; the property test below checks, over generated episode streams,
that the fold agrees with every reference statistic, whether
:meth:`TimerStats.add_batch` is fed one episode at a time, the whole
list at once or the list split in two.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.classify import TimerStats
from repro.core.episodes import DEFAULT_TOLERANCE_NS, Episode, Outcome

TOL = DEFAULT_TOLERANCE_NS
#: Half-tolerance steps, so consecutive values land below, exactly on,
#: and above the 2 ms comparison boundary.
STEP = TOL // 4


def _fractions(episodes: list[Episode]) -> tuple[float, float, float]:
    resolved = [e for e in episodes if e.outcome != Outcome.UNRESOLVED]
    if not resolved:
        return 0.0, 0.0, 0.0
    n = len(resolved)
    expired = sum(e.outcome == Outcome.EXPIRED for e in resolved) / n
    canceled = sum(e.outcome == Outcome.CANCELED for e in resolved) / n
    rearmed = sum(e.outcome == Outcome.REARMED for e in resolved) / n
    return expired, canceled, rearmed


def _is_countdown(episodes: list[Episode], tolerance_ns: int) -> bool:
    """Detect select-style countdown: values mostly strictly decreasing,
    periodically resetting upward."""
    values = [e.value_ns for e in episodes]
    if len(values) < 4:
        return False
    decreasing = resets = 0
    for prev, cur in zip(values, values[1:]):
        if cur < prev - tolerance_ns:
            decreasing += 1
        elif cur > prev + tolerance_ns:
            resets += 1
    pairs = len(values) - 1
    return decreasing / pairs >= 0.55 and resets >= 1


def _is_deferred(episodes: list[Episode]) -> bool:
    """Vista deferral pattern: runs of re-arms ending in an expiry."""
    outcomes = [e.outcome for e in episodes
                if e.outcome != Outcome.UNRESOLVED]
    expiries = sum(o == Outcome.EXPIRED for o in outcomes)
    rearms = sum(o == Outcome.REARMED for o in outcomes)
    if expiries == 0 or rearms == 0:
        return False
    # Every expiry should terminate a run of at least one re-arm.
    runs_ok = 0
    run = 0
    for outcome in outcomes:
        if outcome == Outcome.REARMED:
            run += 1
        elif outcome == Outcome.EXPIRED:
            if run >= 1:
                runs_ok += 1
            run = 0
        else:
            run = 0
    return runs_ok >= max(1, expiries * 0.6) and rearms / len(outcomes) >= 0.4


def _deferral_fraction(episodes: list[Episode], tolerance_ns: int) -> float:
    """Fraction of resolved episodes that *defer* the timer: a re-arm
    while pending, or a cancellation followed within the tolerance by a
    re-set to the same value.

    The latter is how a watchdog looks through a blocking-syscall
    interface (Apache's connection guards): the call must return and
    cancel before it can re-install the same 15 s deadline, but the
    gap is microseconds — semantically one deferral.
    """
    resolved = [e for e in episodes if e.outcome != Outcome.UNRESOLVED]
    if not resolved:
        return 0.0
    deferrals = 0
    for i, episode in enumerate(episodes):
        if episode.outcome == Outcome.REARMED:
            deferrals += 1
        elif episode.outcome == Outcome.CANCELED and i + 1 < len(episodes):
            nxt = episodes[i + 1]
            if (nxt.gap_before_ns is not None
                    and nxt.gap_before_ns <= tolerance_ns
                    and abs(nxt.value_ns - episode.value_ns)
                    <= tolerance_ns):
                deferrals += 1
    return deferrals / len(resolved)


@st.composite
def episode_lists(draw):
    """Episode streams over a small alphabet: mixed outcomes, values a
    few half-tolerance steps apart (countdowns, resets and repeats all
    occur), gaps straddling the tolerance, and cancel-then-re-set
    pairs at the same value."""
    n = draw(st.integers(0, 24))
    episodes = []
    t = 0
    for _ in range(n):
        outcome = draw(st.sampled_from(list(Outcome)))
        if episodes and episodes[-1].outcome is Outcome.CANCELED \
                and draw(st.booleans()):
            # Cancel-then-rearm: same value, re-set within or just
            # past the tolerance.
            value = episodes[-1].value_ns + draw(
                st.sampled_from([0, STEP, -STEP]))
            gap = draw(st.sampled_from([0, TOL - 1, TOL, TOL + 1]))
        else:
            value = draw(st.integers(0, 40)) * STEP
            gap = draw(st.one_of(
                st.none(),
                st.sampled_from([0, TOL - 1, TOL, TOL + 1, 50 * TOL])))
        set_at = t + (gap or 0)
        ended_at = None if outcome is Outcome.UNRESOLVED \
            else set_at + max(value, 1)
        episodes.append(Episode(set_at, max(value, 0), outcome,
                                ended_at, gap))
        t = ended_at if ended_at is not None else set_at
    return episodes


def fold_per_episode(episodes):
    stats = TimerStats(TOL)
    for episode in episodes:
        stats.add_batch([episode])
    return stats


def fold_batch(episodes):
    stats = TimerStats(TOL)
    stats.add_batch(episodes)
    return stats


def fold_split(episodes):
    stats = TimerStats(TOL)
    half = len(episodes) // 2
    stats.add_batch(episodes[:half])
    stats.add_batch(episodes[half:])
    return stats


@settings(max_examples=300, deadline=None)
@given(episode_lists())
def test_timer_stats_agree_with_reference(episodes):
    for fold in (fold_per_episode, fold_batch, fold_split):
        stats = fold(episodes)
        name = fold.__name__
        if stats.n_resolved:
            fractions = (stats.expired / stats.n_resolved,
                         stats.canceled / stats.n_resolved,
                         stats.rearmed / stats.n_resolved)
            deferral = stats.deferrals / stats.n_resolved
        else:
            fractions = (0.0, 0.0, 0.0)
            deferral = 0.0
        assert fractions == _fractions(episodes), name
        countdown = (stats.n >= 4
                     and stats.decreasing / (stats.n - 1) >= 0.55
                     and stats.resets >= 1)
        assert countdown == _is_countdown(episodes, TOL), name
        assert deferral == _deferral_fraction(episodes, TOL), name
        assert stats._is_deferred() == _is_deferred(episodes), name
